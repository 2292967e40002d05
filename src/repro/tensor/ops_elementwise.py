"""Elementwise transcendental and piecewise-linear primitives.

Piecewise-linear ops (relu, abs, clip, maximum/minimum, where) use
*constant* masks captured at forward time.  Their second derivative is
zero almost everywhere, so treating the mask as constant during double
backprop is mathematically correct away from the kink — the standard
convention shared with PyTorch.

Each ``backward`` rule runs on Tensors and on ndarrays alike (see
:mod:`repro.tensor.function`).  Masks and constants are cast to the
policy dtype with ``as_array``, so a product promotes the same way on
both routes.
"""

import numpy as np

from .function import Function, as_array, call, unbroadcast


class Exp(Function):
    """Elementwise natural exponential."""

    def forward(self, a):
        return np.exp(a)

    def backward(self, grad_out, a):
        # Recompute exp(a) differentiably rather than caching the output
        # tensor: keeps the graph free of reference cycles.
        return (grad_out * call(Exp, a),)


class Log(Function):
    """Elementwise natural logarithm."""

    def forward(self, a):
        return np.log(a)

    def backward(self, grad_out, a):
        return (grad_out * a ** -1.0,)


class Tanh(Function):
    """Elementwise hyperbolic tangent."""

    def forward(self, a):
        return np.tanh(a)

    def backward(self, grad_out, a):
        t = call(Tanh, a)
        return (grad_out * (-(t * t) + as_array(1.0)),)


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

    def backward(self, grad_out, a):
        s = call(Sigmoid, a)
        return (grad_out * (s * (-s + as_array(1.0))),)


class Relu(Function):
    """Elementwise rectifier; mask captured at forward time."""

    def forward(self, a):
        self.mask = (a > 0).astype(a.dtype)
        return np.multiply(a, self.mask)

    def backward(self, grad_out, a):
        return (grad_out * as_array(self.mask),)


class Abs(Function):
    """Elementwise absolute value; sign captured as constant."""

    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad_out, a):
        return (grad_out * as_array(self.sign),)


class Clip(Function):
    """Clamp to ``[low, high]``; gradient passes only inside the range."""

    def forward(self, a, low, high):
        self.mask = ((a >= low) & (a <= high)).astype(a.dtype)
        return np.clip(a, low, high)

    def backward(self, grad_out, a):
        return (grad_out * as_array(self.mask),)


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

    def backward(self, grad_out, a, b):
        return (
            unbroadcast(grad_out * as_array(self.mask_a), self.a_shape),
            unbroadcast(grad_out * as_array(self.mask_b), self.b_shape),
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

    def backward(self, grad_out, a, b):
        return (
            unbroadcast(grad_out * as_array(self.mask_a), self.a_shape),
            unbroadcast(grad_out * as_array(self.mask_b), self.b_shape),
        )


class Where(Function):
    """``where(cond, a, b)`` with a constant boolean condition."""

    def forward(self, a, b, cond):
        self.cond = np.asarray(cond, dtype=bool)
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.where(self.cond, a, b)

    def backward(self, grad_out, a, b):
        mask = self.cond.astype(grad_out.dtype)
        return (
            unbroadcast(grad_out * as_array(mask), self.a_shape),
            unbroadcast(grad_out * as_array(1.0 - mask), self.b_shape),
        )


def where(cond, a, b):
    """Differentiable select: ``a`` where ``cond`` holds, else ``b``."""
    return Where.apply(a, b, cond=np.asarray(cond))

