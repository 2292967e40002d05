"""Arithmetic primitives: add, neg, mul, pow and (batched) matmul.

All ``backward`` rules are written with Tensor operations so that the
backward pass is itself differentiable (double backprop).  Each op also
carries a ``backward_raw`` mirror used by first-order ``backward()``:
the same numpy calls in the same order, on raw arrays — bit-identical
results without graph bookkeeping.
"""

import numpy as np

from .function import Function, as_array, unbroadcast, unbroadcast_raw


class Add(Function):
    """Elementwise ``a + b`` with numpy broadcasting."""

    def forward(self, a, b):
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.add(a, b)

    def backward(self, grad_out):
        return (
            unbroadcast(grad_out, self.a_shape),
            unbroadcast(grad_out, self.b_shape),
        )

    def backward_raw(self, grad_out):
        return (
            unbroadcast_raw(grad_out, self.a_shape),
            unbroadcast_raw(grad_out, self.b_shape),
        )


class Neg(Function):
    """Elementwise negation."""

    def forward(self, a):
        return np.negative(a)

    def backward(self, grad_out):
        return (-grad_out,)

    def backward_raw(self, grad_out):
        return (np.negative(grad_out),)


class Mul(Function):
    """Elementwise ``a * b`` with numpy broadcasting."""

    def forward(self, a, b):
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.multiply(a, b)

    def backward(self, grad_out):
        a, b = self.inputs
        return (
            unbroadcast(grad_out * b, self.a_shape),
            unbroadcast(grad_out * a, self.b_shape),
        )

    def backward_raw(self, grad_out):
        a, b = self.inputs
        ad, bd = a.data, b.data
        grad_a = np.multiply(grad_out, bd)
        grad_b = np.multiply(grad_out, ad)
        return (
            unbroadcast_raw(grad_a, self.a_shape),
            unbroadcast_raw(grad_b, self.b_shape),
        )


class Pow(Function):
    """Elementwise ``a ** exponent`` for a constant scalar exponent.

    The gradient ``p * a**(p-1)`` is undefined at 0 for ``p < 1``; the
    engine leaves that to the caller (e.g. ``Tensor.norm`` offers an
    ``eps`` for a smooth square root at zero).
    """

    def forward(self, a, exponent):
        self.exponent = exponent
        return a ** exponent

    def backward(self, grad_out):
        (a,) = self.inputs
        p = self.exponent
        if p == 1.0:
            return (grad_out,)
        if p == 2.0:
            return (grad_out * (a * 2.0),)
        return (grad_out * (a.pow(p - 1.0) * p),)

    def backward_raw(self, grad_out):
        (a,) = self.inputs
        ad = a.data
        p = self.exponent
        if p == 1.0:
            return (grad_out,)
        if p == 2.0:
            return (_mul_into(grad_out, _scale(ad, 2.0)),)
        t = np.asarray(ad ** (p - 1.0))
        # Mirror the graph route exactly: the scalar factor p is cast
        # to the policy dtype there (Tensor(p)), which matters for
        # non-representable exponents under a float32 policy.
        s = as_array(p)
        t = np.multiply(t, s, out=t) if s.dtype == t.dtype else np.multiply(t, s)
        return (_mul_into(grad_out, np.asarray(t)),)


class MatMul(Function):
    """Matrix product with numpy ``matmul`` semantics (>= 2-D inputs).

    Batched stacks broadcast over leading dimensions; the backward rule
    contracts the broadcast batch axes back with :func:`unbroadcast`.
    Grouped convolution relies on the 3-D batched case.
    """

    def forward(self, a, b):
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(
                f"MatMul requires >=2-D operands, got {a.ndim}-D @ {b.ndim}-D"
            )
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.matmul(a, b)

    def backward(self, grad_out):
        a, b = self.inputs
        grad_a = grad_out @ b.swapaxes(-1, -2)
        grad_b = a.swapaxes(-1, -2) @ grad_out
        return (
            unbroadcast(grad_a, self.a_shape),
            unbroadcast(grad_b, self.b_shape),
        )

    def backward_raw(self, grad_out):
        a, b = self.inputs
        bt = b.data.swapaxes(-1, -2)
        at = a.data.swapaxes(-1, -2)
        grad_a = np.matmul(grad_out, bt)
        grad_b = np.matmul(at, grad_out)
        return (
            unbroadcast_raw(grad_a, self.a_shape),
            unbroadcast_raw(grad_b, self.b_shape),
        )


def _scale(x, c):
    """``x * c`` with ``c`` cast to the policy dtype, as the graph
    route's ``Tensor(c)`` wrapping does."""
    return np.asarray(np.multiply(x, as_array(c)))


def _mul_into(grad_out, t):
    """``grad_out * t`` writing into ``t`` when dtypes permit.

    ``t`` is always a scratch array private to the caller; writing the
    product into it saves an allocation.  A dtype mismatch (e.g. a
    float64 upstream gradient against a float32 recomputation) must
    allocate: a narrower ``out=`` would silently downcast.
    """
    if grad_out.dtype == t.dtype and grad_out.shape == t.shape and t.flags.writeable:
        return np.multiply(grad_out, t, out=t)
    return np.multiply(grad_out, t)
