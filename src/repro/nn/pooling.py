"""Pooling layers, built on the same im2col gather as convolution."""

import numpy as np

from ..tensor.function import Function, call
from .conv import _col2im, _columns, _pair, conv_output_size
from .module import Module


class Im2Col(Function):
    """The ``(C, KH*KW, OH*OW*N)`` windows of an NCHW input: the columns
    of a depthwise convolution.  The adjoint is :class:`Col2Im`."""

    def forward(self, x, *, geometry):
        self.geometry = geometry
        self.in_shape = x.shape
        return _columns(x, geometry)

    def backward(self, grad_out, x):
        return (call(Col2Im, grad_out, geometry=self.geometry, in_shape=self.in_shape),)


class Col2Im(Function):
    """Adjoint of :class:`Im2Col`: add the windows back onto the input."""

    def forward(self, windows, *, geometry, in_shape):
        self.geometry = geometry
        return _col2im(windows, in_shape, geometry)

    def backward(self, grad_out, windows):
        return (call(Im2Col, grad_out, geometry=self.geometry),)


def _windows(x, kernel_size, stride, padding, pad_value):
    """The pooling windows of the Tensor ``x``, ``(C, KH*KW, OH*OW*N)``,
    and the ``(C, OH, OW, N)`` shape their reduction takes."""
    kernel = _pair(kernel_size)
    stride = _pair(stride if stride is not None else kernel_size)
    padding = _pair(padding)
    if padding != (0, 0):
        ph, pw = padding
        x = x.pad(((0, 0), (0, 0), (ph, ph), (pw, pw)), value=pad_value)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel[0], stride[0], 0)
    ow = conv_output_size(w, kernel[1], stride[1], 0)
    windows = Im2Col.apply(x, geometry=(kernel, stride, (0, 0), (1, 1), c))
    return windows, (c, oh, ow, n)


def max_pool2d(x, kernel_size, stride=None, padding=0):
    """Functional max pooling over NCHW input."""
    windows, shape = _windows(x, kernel_size, stride, padding, -np.inf)
    return windows.max(axis=1).reshape(shape).transpose((3, 0, 1, 2))


def avg_pool2d(x, kernel_size, stride=None, padding=0):
    """Functional average pooling over NCHW input."""
    windows, shape = _windows(x, kernel_size, stride, padding, 0.0)
    return windows.mean(axis=1).reshape(shape).transpose((3, 0, 1, 2))


def global_avg_pool2d(x):
    """Average over the spatial dimensions: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size, stride=None, padding=0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self):
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size, stride=None, padding=0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return avg_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self):
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2d(Module):
    """Global average pooling: collapses H and W, returning (N, C)."""

    def forward(self, x):
        return global_avg_pool2d(x)
