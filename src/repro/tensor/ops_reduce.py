"""Reduction primitives: sum and max (min/mean/var build on these)."""

import numpy as np

from .function import Function, as_array, call
from .ops_shape import Expand


def _normalize_axis(axis, ndim):
    """Return a sorted tuple of non-negative axes (or None for all)."""
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def _keepdims_shape(shape, axes):
    """Shape of the reduction result with reduced axes kept as size 1."""
    if axes is None:
        return (1,) * len(shape)
    return tuple(1 if i in axes else s for i, s in enumerate(shape))


class Sum(Function):
    """Sum over ``axis`` (int, tuple, or None for a full reduction)."""

    def forward(self, a, axis=None, keepdims=False):
        self.in_shape = a.shape
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        return a.sum(axis=self.axes, keepdims=keepdims)

    def backward(self, grad_out, a):
        mid_shape = _keepdims_shape(self.in_shape, self.axes)
        grad = grad_out if self.keepdims else grad_out.reshape(mid_shape)
        return (call(Expand, grad, shape=self.in_shape),)


class Max(Function):
    """Max over ``axis``; gradient is split evenly across tied maxima.

    The tie-splitting mask is captured as a constant, which is the
    correct subgradient convention and keeps double backprop exact
    almost everywhere.
    """

    def forward(self, a, axis=None, keepdims=False):
        self.in_shape = a.shape
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        out = a.max(axis=self.axes, keepdims=True)
        mask = (a == out).astype(a.dtype)
        counts = mask.sum(axis=self.axes, keepdims=True)
        self.mask = mask / counts
        if not keepdims:
            if self.axes is None:
                out = out.reshape(())
            else:
                out = np.squeeze(out, axis=self.axes)
        return out

    def backward(self, grad_out, a):
        mid_shape = _keepdims_shape(self.in_shape, self.axes)
        grad = grad_out if self.keepdims else grad_out.reshape(mid_shape)
        # The tie-split mask holds non-dyadic values (1/3, ...), so its
        # cast to the policy dtype decides the product's bits.
        return (call(Expand, grad, shape=self.in_shape) * as_array(self.mask),)
