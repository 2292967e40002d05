"""Base class for differentiable operations.

Every primitive op in the engine is a :class:`Function`.  A ``Function``
instance records its input tensors when applied, and its ``backward``
method expresses the vector-Jacobian product with operations that
Tensors and ndarrays share.  ``Tensor.backward`` is one traversal, and
the same rule serves both of its routes:

* ``Tensor.backward(create_graph=True)`` calls it with Tensors, so the
  backward pass is itself a differentiable graph — which is exactly
  what HERO's Hessian regularizer (Eq. 16 of the paper) and the GRAD-L1
  baseline need (gradients of gradient norms);
* first-order ``Tensor.backward()`` calls it with the inputs' ndarrays
  and gets ndarray gradients back, skipping graph construction
  entirely.

Because both routes run one rule, they perform the same float
operations in the same order.  They also see the same memory layouts:
a rule that slices or broadcasts the gradient does it through an op
(``Slice``, ``Expand``) whose forward copies on both routes, because a
later ``sum`` reduces in layout order and a view would round
differently from the graph's copy.  ``tests/tensor/test_raw_backward.py``
checks that the two routes' gradients agree bitwise.
"""

import numpy as np

from . import _gradmode
from .policy import default_dtype, resolve_dtype

# Injected by ``tensor.py`` at import time; avoids a circular import
# without paying a per-call ``from .tensor import Tensor``.
_Tensor = None


class Function:
    """A differentiable operation node in the autograd graph.

    Subclasses implement:

    ``forward(self, *arrays, **kwargs)``
        Receives raw ``numpy.ndarray`` inputs, returns a ``numpy.ndarray``.
        May stash anything needed for the backward pass on ``self``.

    ``backward(self, grad_out, *inputs)``
        Receives the upstream gradient and the op's inputs, all Tensors
        (graph route) or all ndarrays (first-order route), and returns
        a tuple with one gradient of the same type per input, or
        ``None`` for a non-differentiable input.  Write it with what
        both types share (``+ - * @``, unary ``-``, ``**``,
        ``reshape``, ``transpose``, ``swapaxes``, ``sum``), keep the
        gradient or an input on the left of each operator, wrap every
        constant in :func:`as_array`, and reach other ops — slicing and
        broadcasting included — through :func:`call`.
    """

    def __init__(self):
        self.inputs = ()
        self.requires_grad = False

    @classmethod
    def apply(cls, *tensors, **kwargs):
        """Run the op on ``tensors`` and wire up the graph if needed."""
        T = _Tensor
        if not all(type(t) is T or isinstance(t, T) for t in tensors):
            tensors = tuple(T.as_tensor(t) for t in tensors)
        ctx = cls()
        out_data = ctx.forward(*(t.data for t in tensors), **kwargs)
        if type(out_data) is not np.ndarray:
            # Ufuncs on 0-d arrays return numpy scalars; keep the
            # Tensor.data invariant (always an ndarray).
            out_data = np.asarray(out_data)
        first_dtype = tensors[0].data.dtype
        if out_data.dtype != first_dtype and np.issubdtype(out_data.dtype, np.floating):
            # Keep op outputs in the promoted dtype of their inputs so
            # the engine dtype is stable across the graph (a forward
            # that allocated in the wrong precision is corrected here,
            # and explicit-float64 graphs stay float64 under a float32
            # policy).
            out_data = out_data.astype(np.result_type(*(t.data for t in tensors)), copy=False)
        needs_graph = _gradmode._MODE.enabled and any(t.requires_grad for t in tensors)
        out = T.__new__(T)
        out.data = out_data
        out.requires_grad = needs_graph
        out.grad = None
        if needs_graph:
            ctx.inputs = tensors
            ctx.requires_grad = True
            out._ctx = ctx
        else:
            out._ctx = None
        return out

    def forward(self, *arrays, **kwargs):
        raise NotImplementedError

    def backward(self, grad_out, *inputs):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


def call(op, *inputs, **kwargs):
    """Run the op class ``op`` on ``inputs`` inside a backward rule.

    The inputs are all Tensors or all ndarrays, like the rule's own.
    Tensors get a graph node (``op.apply``); ndarrays get the bare
    forward, which makes the same numpy calls.
    """
    if isinstance(inputs[0], _Tensor):
        return op.apply(*inputs, **kwargs)
    return op().forward(*inputs, **kwargs)


def unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after broadcasting.

    NumPy broadcasting prepends singleton dimensions and stretches size-1
    axes; the adjoint of broadcasting is summation over those axes.  This
    helper uses only ``sum``/``reshape``, so it works on a Tensor (as
    differentiable ops) and on an ndarray alike.
    """
    if tuple(grad.shape) == tuple(shape):
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    if tuple(grad.shape) != tuple(shape):
        grad = grad.reshape(shape)
    return grad


def as_array(value, dtype=None):
    """Coerce ``value`` to a numpy array of the engine dtype.

    ``dtype=None`` resolves to the process precision policy
    (:mod:`repro.tensor.policy`); pass an explicit dtype to pin an array
    to a precision regardless of the policy.
    """
    dtype = default_dtype() if dtype is None else resolve_dtype(dtype)
    arr = np.asarray(value)
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    return arr
