"""Elementwise transcendental and piecewise-linear primitives.

Piecewise-linear ops (relu, abs, clip, maximum/minimum, where) use
*constant* masks captured at forward time.  Their second derivative is
zero almost everywhere, so treating the mask as constant during double
backprop is mathematically correct away from the kink — the standard
convention shared with PyTorch.

Each op's ``backward_raw`` mirrors its graph rule numpy-call for
numpy-call (bit-identical first-order gradients); mask products
replicate the graph route's ``Tensor(mask)`` policy-dtype cast via
``as_array`` so dtypes promote identically on both paths.
"""

import numpy as np

from .function import Function, as_array, unbroadcast, unbroadcast_raw
from .ops_basic import _mul_into
from .tensor import Tensor


class Exp(Function):
    """Elementwise natural exponential."""

    def forward(self, a):
        return np.exp(a)

    def backward(self, grad_out):
        (a,) = self.inputs
        # Recompute exp(a) differentiably rather than caching the output
        # tensor: keeps the graph free of reference cycles.
        return (grad_out * a.exp(),)

    def backward_raw(self, grad_out):
        (a,) = self.inputs
        t = np.exp(a.data)
        return (_mul_into(grad_out, t),)


class Log(Function):
    """Elementwise natural logarithm."""

    def forward(self, a):
        return np.log(a)

    def backward(self, grad_out):
        (a,) = self.inputs
        return (grad_out * a.pow(-1.0),)

    def backward_raw(self, grad_out):
        (a,) = self.inputs
        # Graph route is `a.pow(-1.0)` whose forward is `a ** -1.0`.
        t = np.asarray(a.data ** -1.0)
        return (_mul_into(grad_out, t),)


class Tanh(Function):
    """Elementwise hyperbolic tangent."""

    def forward(self, a):
        return np.tanh(a)

    def backward(self, grad_out):
        (a,) = self.inputs
        t = a.tanh()
        return (grad_out * (1.0 - t * t),)

    def backward_raw(self, grad_out):
        (a,) = self.inputs
        t = np.tanh(a.data)
        np.multiply(t, t, out=t)
        # `1.0 - u` in the graph route is `as_tensor(1.0) + (-u)`;
        # IEEE subtraction equals addition of the negation exactly,
        # and the policy-dtype 1.0 promotes identically via as_array.
        one = as_array(1.0)
        t = np.subtract(one, t, out=t) if one.dtype == t.dtype else np.asarray(one - t)
        return (_mul_into(grad_out, t),)


class Sigmoid(Function):
    """Elementwise logistic sigmoid (numerically stable)."""

    def forward(self, a):
        # Numerically stable logistic.
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        ea = np.exp(a[~pos])
        out[~pos] = ea / (1.0 + ea)
        return out

    def backward(self, grad_out):
        (a,) = self.inputs
        s = a.sigmoid()
        return (grad_out * (s * (1.0 - s)),)

    def backward_raw(self, grad_out):
        (a,) = self.inputs
        s = Sigmoid.forward(self, a.data)
        m = np.asarray(as_array(1.0) - s)
        np.multiply(s, m, out=m)
        return (_mul_into(grad_out, m),)


class Relu(Function):
    """Elementwise rectifier; mask captured at forward time."""

    def forward(self, a):
        self.mask = (a > 0).astype(a.dtype)
        return np.multiply(a, self.mask)

    def backward(self, grad_out):
        return (grad_out * Tensor(self.mask),)

    def backward_raw(self, grad_out):
        return (_mask_mul_raw(grad_out, self.mask),)


class Abs(Function):
    """Elementwise absolute value; sign captured as constant."""

    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad_out):
        return (grad_out * Tensor(self.sign),)

    def backward_raw(self, grad_out):
        return (_mask_mul_raw(grad_out, self.sign),)


class Clip(Function):
    """Clamp to ``[low, high]``; gradient passes only inside the range."""

    def forward(self, a, low, high):
        self.mask = ((a >= low) & (a <= high)).astype(a.dtype)
        return np.clip(a, low, high)

    def backward(self, grad_out):
        return (grad_out * Tensor(self.mask),)

    def backward_raw(self, grad_out):
        return (_mask_mul_raw(grad_out, self.mask),)


class Maximum(Function):
    """Elementwise max; ties send half the gradient to each operand."""

    def forward(self, a, b):
        self.a_shape = a.shape
        self.b_shape = b.shape
        mask_a = (a > b).astype(a.dtype)
        ties = (a == b).astype(a.dtype) * 0.5
        self.mask_a = mask_a + ties
        self.mask_b = 1.0 - self.mask_a
        return np.maximum(a, b)

    def backward(self, grad_out):
        return (
            unbroadcast(grad_out * Tensor(self.mask_a), self.a_shape),
            unbroadcast(grad_out * Tensor(self.mask_b), self.b_shape),
        )

    def backward_raw(self, grad_out):
        return (
            unbroadcast_raw(_mask_mul_raw(grad_out, self.mask_a), self.a_shape),
            unbroadcast_raw(_mask_mul_raw(grad_out, self.mask_b), self.b_shape),
        )


class Minimum(Function):
    """Elementwise min; ties send half the gradient to each operand."""

    def forward(self, a, b):
        self.a_shape = a.shape
        self.b_shape = b.shape
        mask_a = (a < b).astype(a.dtype)
        ties = (a == b).astype(a.dtype) * 0.5
        self.mask_a = mask_a + ties
        self.mask_b = 1.0 - self.mask_a
        return np.minimum(a, b)

    def backward(self, grad_out):
        return (
            unbroadcast(grad_out * Tensor(self.mask_a), self.a_shape),
            unbroadcast(grad_out * Tensor(self.mask_b), self.b_shape),
        )

    def backward_raw(self, grad_out):
        return (
            unbroadcast_raw(_mask_mul_raw(grad_out, self.mask_a), self.a_shape),
            unbroadcast_raw(_mask_mul_raw(grad_out, self.mask_b), self.b_shape),
        )


class Where(Function):
    """``where(cond, a, b)`` with a constant boolean condition."""

    def forward(self, a, b, cond):
        self.cond = np.asarray(cond, dtype=bool)
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.where(self.cond, a, b)

    def backward(self, grad_out):
        mask = self.cond.astype(grad_out.dtype)
        return (
            unbroadcast(grad_out * Tensor(mask), self.a_shape),
            unbroadcast(grad_out * Tensor(1.0 - mask), self.b_shape),
        )

    def backward_raw(self, grad_out):
        mask = self.cond.astype(grad_out.dtype)
        return (
            unbroadcast_raw(_mask_mul_raw(grad_out, mask), self.a_shape),
            unbroadcast_raw(_mask_mul_raw(grad_out, 1.0 - mask), self.b_shape),
        )


def where(cond, a, b):
    """Differentiable select: ``a`` where ``cond`` holds, else ``b``."""
    return Where.apply(a, b, cond=np.asarray(cond))


def _mask_mul_raw(grad_out, mask):
    """``grad_out * mask`` exactly as the graph route computes it.

    The graph rule wraps the mask in ``Tensor(mask)``, which casts it
    to the policy dtype — replicated here with ``as_array`` so the
    product's dtype (and, for non-0/1 masks like ``Max``'s tie split,
    its bits) match the graph path.
    """
    return np.multiply(grad_out, as_array(mask))
