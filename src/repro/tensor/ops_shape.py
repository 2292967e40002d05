"""Shape-manipulation primitives.

Alongside the usual reshape/transpose/pad/slice/concat, this module
provides the ``TakeFlat``/``ScatterAddFlat`` adjoint pair: a gather from
the flattened tensor and its transpose, a scatter-add.  They are exact
adjoints of each other, so each one's backward rule is the other —
giving the engine support for arbitrary-order differentiation through
pooling window extraction and label lookup.

The ``Pad``/``Concat``/``Unslice`` adjoints slice the upstream gradient
through :class:`Slice`, whose forward copies, so both autograd routes
hand the next rule a C-ordered array.
"""

import numpy as np

from .function import Function, call, unbroadcast


class Reshape(Function):
    """View the data under a new shape (adjoint reshapes back)."""

    def forward(self, a, shape):
        self.in_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad_out, a):
        return (grad_out.reshape(self.in_shape),)


class Transpose(Function):
    """Permute axes (numpy semantics; ``axes=None`` reverses them)."""

    def forward(self, a, axes=None):
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        self.axes = tuple(axes)
        return np.transpose(a, self.axes)

    def backward(self, grad_out, a):
        inverse = np.argsort(self.axes)
        return (grad_out.transpose(tuple(int(i) for i in inverse)),)


class Expand(Function):
    """Broadcast to ``shape`` (materialized); adjoint sums the axes back."""

    def forward(self, a, shape):
        self.in_shape = a.shape
        return np.broadcast_to(a, shape).copy()

    def backward(self, grad_out, a):
        return (unbroadcast(grad_out, self.in_shape),)


class Pad(Function):
    """Constant-pad with ``pad_width`` in numpy format; adjoint slices."""

    def forward(self, a, pad_width, value=0.0):
        self.key = tuple(
            slice(lo, lo + size) for (lo, _hi), size in zip(pad_width, a.shape)
        )
        return np.pad(a, pad_width, mode="constant", constant_values=value)

    def backward(self, grad_out, a):
        return (call(Slice, grad_out, key=self.key),)


class Slice(Function):
    """Basic indexing ``a[key]``; adjoint scatters into a zero tensor."""

    def forward(self, a, key):
        self.key = key
        self.in_shape = a.shape
        return a[key].copy()

    def backward(self, grad_out, a):
        return (call(Unslice, grad_out, key=self.key, in_shape=self.in_shape),)


class Unslice(Function):
    """Adjoint of :class:`Slice`: place ``g`` into zeros at ``key``."""

    def forward(self, g, key, in_shape):
        self.key = key
        out = np.zeros(in_shape, dtype=g.dtype)
        out[key] = g
        return out

    def backward(self, grad_out, a):
        return (call(Slice, grad_out, key=self.key),)


class Concat(Function):
    """Concatenate tensors along ``axis``; adjoint slices the pieces."""

    def forward(self, *arrays, axis=0):
        self.axis = axis
        self.sizes = [arr.shape[axis] for arr in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad_out, *inputs):
        grads = []
        start = 0
        for size in self.sizes:
            key = [slice(None)] * grad_out.ndim
            key[self.axis] = slice(start, start + size)
            grads.append(call(Slice, grad_out, key=tuple(key)))
            start += size
        return tuple(grads)


class TakeFlat(Function):
    """Gather from the flattened input: ``out = a.ravel()[indices]``.

    ``indices`` may have any shape; the output takes that shape.  The
    adjoint is :class:`ScatterAddFlat` (duplicate indices accumulate).
    """

    def forward(self, a, indices):
        self.indices = indices
        self.in_shape = a.shape
        return a.reshape(-1)[indices]

    def backward(self, grad_out, a):
        return (
            call(ScatterAddFlat, grad_out, indices=self.indices, in_shape=self.in_shape),
        )


class ScatterAddFlat(Function):
    """Adjoint of :class:`TakeFlat`: scatter-add ``g`` into zeros."""

    def forward(self, g, indices, in_shape):
        self.indices = indices
        out = np.zeros(int(np.prod(in_shape)), dtype=g.dtype)
        np.add.at(out, indices.reshape(-1), g.reshape(-1))
        return out.reshape(in_shape)

    def backward(self, grad_out, g):
        return (call(TakeFlat, grad_out, indices=self.indices),)


def concat(tensors, axis=0):
    """Differentiable concatenation of a sequence of tensors."""
    return Concat.apply(*tensors, axis=axis)
