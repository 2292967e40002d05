"""Arithmetic primitives: add, neg, mul, pow and (batched) matmul.

Each ``backward`` rule runs on Tensors (double backprop) and on ndarrays
(first-order ``backward()``) alike; see :mod:`repro.tensor.function`.
"""

import numpy as np

from .function import Function, as_array, unbroadcast


class Add(Function):
    """Elementwise ``a + b`` with numpy broadcasting."""

    def forward(self, a, b):
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.add(a, b)

    def backward(self, grad_out, a, b):
        return (
            unbroadcast(grad_out, self.a_shape),
            unbroadcast(grad_out, self.b_shape),
        )


class Neg(Function):
    """Elementwise negation."""

    def forward(self, a):
        return np.negative(a)

    def backward(self, grad_out, a):
        return (-grad_out,)


class Mul(Function):
    """Elementwise ``a * b`` with numpy broadcasting."""

    def forward(self, a, b):
        self.a_shape = a.shape
        self.b_shape = b.shape
        return np.multiply(a, b)

    def backward(self, grad_out, a, b):
        return (
            unbroadcast(grad_out * b, self.a_shape),
            unbroadcast(grad_out * a, self.b_shape),
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

    def backward(self, grad_out, a):
        p = self.exponent
        if p == 1.0:
            return (grad_out,)
        if p == 2.0:
            return (grad_out * (a * as_array(2.0)),)
        return (grad_out * (a ** (p - 1.0) * as_array(p)),)


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

    def backward(self, grad_out, a, b):
        grad_a = grad_out @ b.swapaxes(-1, -2)
        grad_b = a.swapaxes(-1, -2) @ grad_out
        return (
            unbroadcast(grad_a, self.a_shape),
            unbroadcast(grad_b, self.b_shape),
        )

