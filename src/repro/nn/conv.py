"""2-D convolution as one autograd node, with two adjoint nodes.

:func:`conv2d` applies :class:`Conv2dOp`: its forward gathers the
input's im2col columns and runs one matmul per group.  Its backward
rule returns nodes of the two adjoint ops:

* :class:`Conv2dInputGrad` — the input gradient: the output gradient
  times the kernel, scattered back (col2im) onto the input;
* :class:`Conv2dWeightGrad` — the weight gradient: the input's columns,
  transposed, times the output gradient.

Each of the three ops is bilinear in its two tensor inputs, and each
one's adjoints are the other two (plus a ``sum`` for the bias), so every
backward rule is built from these three ops and the set is closed under
differentiation: HERO's ``create_graph`` pass (Eq. 16), the GRAD-L1
penalty and the third-order ``exact_hvp`` ablation all differentiate
through convolutions exactly.  The columns of an input are gathered
once and kept on the op instance that gathered them, and handed to
every op that contracts with that input, at first and second order.

The ops work batch-minor.  An input's zero-padded pixels are the rows
``(C*Hp*Wp, N)``, and its columns ``(G, C/G*KH*KW, OH*OW*N)`` are one
gather of whole rows through a per-sample row index, cached once per
geometry whatever the batch size.  The forward is ``W @ cols``, the
weight gradient ``g @ colsᵀ`` and the input gradient ``Wᵀ @ g``, added
back onto the rows one kernel offset at a time.  Outputs are NCHW views
that stay batch-minor in memory, so the next layer's rows are a plain
copy.

Grouped convolution (including depthwise, ``groups == in_channels``,
as used by MobileNetV2) maps onto a single 3-D batched matmul over the
group axis — no Python-level loop over groups.
"""

import functools

import numpy as np

from ..tensor import Tensor, default_dtype
from ..tensor.function import Function, call
from . import init
from .module import Module, Parameter


def _pair(value):
    """Normalize an int-or-pair argument to a 2-tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


def conv_output_size(size, kernel, stride, padding, dilation=1):
    """Spatial output size of a convolution along one dimension."""
    effective = dilation * (kernel - 1) + 1
    return (size + 2 * padding - effective) // stride + 1


@functools.lru_cache(maxsize=128)
def _row_index(channels, height, width, kernel, stride, dilation):
    """The rows of a padded ``(C*H*W, N)`` input that make its columns.

    Entry ``(c, kh, kw, oh, ow)`` of the flat result is the row of pixel
    ``(c, oh*sh + kh*dh, ow*sw + kw*dw)``.  It describes one sample, so
    a geometry has one entry whatever the batch size.
    """
    (kh, kw), (sh, sw), (dh, dw) = kernel, stride, dilation
    oh = conv_output_size(height, kh, sh, 0, dh)
    ow = conv_output_size(width, kw, sw, 0, dw)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input "
            f"{(channels, height, width)}"
        )
    rows = np.arange(kh)[:, None] * dh + np.arange(oh) * sh  # (KH, OH)
    cols = np.arange(kw)[:, None] * dw + np.arange(ow) * sw  # (KW, OW)
    pixels = rows[:, None, :, None] * width + cols[None, :, None, :]
    index = np.arange(channels)[:, None, None, None, None] * (height * width) + pixels
    index = index.reshape(-1)
    index.flags.writeable = False
    return index


def _columns(x, geometry):
    """im2col: the ``(G, C/G*KH*KW, OH*OW*N)`` columns of the array ``x``.

    ``x`` is laid out batch-minor, as the rows ``(C*Hp*Wp, N)`` of its
    zero-padded pixels, so its columns are one gather of whole rows.
    """
    kernel, stride, padding, dilation, groups = geometry
    n, c, h, w = x.shape
    (kh, kw), (ph, pw) = kernel, padding
    rows = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
    rows[:, ph : ph + h, pw : pw + w] = x.transpose((1, 2, 3, 0))
    index = _row_index(c, h + 2 * ph, w + 2 * pw, kernel, stride, dilation)
    cols = rows.reshape(-1, n).take(index, axis=0)  # (C*KH*KW*OH*OW, N)
    return cols.reshape(groups, c // groups * kh * kw, -1)


def _col2im(cols, in_shape, geometry):
    """Adjoint of :func:`_columns`: add the columns back onto ``in_shape``.

    One strided add of whole rows per kernel offset, which hits no pixel
    twice.  The offsets go last to first, so every pixel sums its terms
    in the order of a scatter over the batch-major patches.  The result
    is batch-minor in memory, like the rows it was added into.
    """
    (kh, kw), (sh, sw), (ph, pw), (dh, dw), _groups = geometry
    n, c, h, w = in_shape
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = conv_output_size(hp, kh, sh, 0, dh)
    ow = conv_output_size(wp, kw, sw, 0, dw)
    patches = cols.reshape(c, kh * kw, oh, ow, n)
    rows = np.zeros((c, hp, wp, n), dtype=cols.dtype)
    for k in reversed(range(kh * kw)):
        top, left = (k // kw) * dh, (k % kw) * dw
        rows[:, top : top + oh * sh : sh, left : left + ow * sw : sw] += patches[:, k]
    return rows[:, ph : ph + h, pw : pw + w].transpose((3, 0, 1, 2))


def _out_rows(grad, groups):
    """An ``(N, OC, OH, OW)`` gradient as the ``(G, OC/G, OH*OW*N)`` matmul operand."""
    oc = grad.shape[1]
    return grad.transpose((1, 2, 3, 0)).reshape(groups, oc // groups, -1)


class Conv2dOp(Function):
    """``conv2d(x, weight) [+ bias]``; pass ``cols`` to reuse ``x``'s columns."""

    def forward(self, x, weight, bias=None, *, geometry, cols=None):
        kernel, stride, padding, dilation, groups = geometry
        n = x.shape[0]
        oc = weight.shape[0]
        oh = conv_output_size(x.shape[2], kernel[0], stride[0], padding[0], dilation[0])
        ow = conv_output_size(x.shape[3], kernel[1], stride[1], padding[1], dilation[1])
        self.geometry = geometry
        self.cols = _columns(x, geometry) if cols is None else cols
        out = np.matmul(weight.reshape(groups, oc // groups, -1), self.cols)  # (G, OC/G, OHW*N)
        out = out.reshape(oc, oh, ow, n).transpose((3, 0, 1, 2))  # batch-minor in memory
        if bias is not None:
            out = np.add(out, bias.reshape(1, oc, 1, 1))
        return out

    def backward(self, grad_out, x, weight, bias=None):
        x_t, w_t = self.inputs[:2]
        grad_x = grad_w = None
        if x_t.requires_grad:
            grad_x = call(
                Conv2dInputGrad, grad_out, weight, geometry=self.geometry, in_shape=x.shape
            )
        if w_t.requires_grad:
            grad_w = call(Conv2dWeightGrad, grad_out, x, geometry=self.geometry, cols=self.cols)
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))


class Conv2dInputGrad(Function):
    """Input gradient of a convolution: ``grad`` through ``weight``, then col2im."""

    def forward(self, grad, weight, *, geometry, in_shape):
        groups = geometry[4]
        self.geometry = geometry
        w_mat = weight.reshape(groups, weight.shape[0] // groups, -1)
        cols = np.matmul(w_mat.swapaxes(-1, -2), _out_rows(grad, groups))  # (G, K, OHW*N)
        return _col2im(cols, in_shape, geometry)

    def backward(self, grad_out, grad, weight):
        g_t, w_t = self.inputs
        # One gather of the upstream gradient's columns for both adjoints.
        h = grad_out.data if isinstance(grad_out, Tensor) else grad_out
        cols = _columns(h, self.geometry)
        return (
            call(Conv2dOp, grad_out, weight, geometry=self.geometry, cols=cols)
            if g_t.requires_grad
            else None,
            call(Conv2dWeightGrad, grad, grad_out, geometry=self.geometry, cols=cols)
            if w_t.requires_grad
            else None,
        )


class Conv2dWeightGrad(Function):
    """Weight gradient of a convolution: ``cols``, the columns of ``x``,
    contracted with ``grad``."""

    def forward(self, grad, x, *, geometry, cols):
        kernel, _stride, _padding, _dilation, groups = geometry
        self.geometry = geometry
        self.cols = cols
        gw = np.matmul(_out_rows(grad, groups), cols.swapaxes(-1, -2))  # (G, OC/G, K)
        return gw.reshape(grad.shape[1], -1, *kernel)

    def backward(self, grad_out, grad, x):
        g_t, x_t = self.inputs
        return (
            call(Conv2dOp, x, grad_out, geometry=self.geometry, cols=self.cols)
            if g_t.requires_grad
            else None,
            call(Conv2dInputGrad, grad, grad_out, geometry=self.geometry, in_shape=x.shape)
            if x_t.requires_grad
            else None,
        )


def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
    """Functional 2-D convolution (NCHW layout), one autograd node.

    ``weight`` has shape ``(out_channels, in_channels // groups, kh, kw)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    _n, c, _h, _w = x.shape
    oc, c_per_group, kh, kw = weight.shape
    if c != c_per_group * groups:
        raise ValueError(
            f"input channels {c} incompatible with weight {weight.shape} "
            f"and groups={groups}"
        )
    if oc % groups:
        raise ValueError(f"out_channels {oc} not divisible by groups {groups}")
    geometry = ((kh, kw), stride, padding, dilation, groups)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return Conv2dOp.apply(*inputs, geometry=geometry)


class Conv2d(Module):
    """2-D convolution layer over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts; ``out_channels`` must be divisible by ``groups``.
    kernel_size, stride, padding, dilation:
        Int or (h, w) pair, numpy/PyTorch semantics.
    groups:
        Channel groups; ``groups == in_channels`` gives a depthwise
        convolution (MobileNetV2's workhorse).
    bias:
        Include the additive per-channel bias.
    """

    def __init__(
        self,
        in_channels,
        out_channels,
        kernel_size,
        stride=1,
        padding=0,
        dilation=1,
        groups=1,
        bias=True,
        rng=None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = _pair(kernel_size)
        if in_channels % groups:
            raise ValueError(
                f"in_channels {in_channels} not divisible by groups {groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.dilation = _pair(dilation)
        self.groups = groups
        self.weight = Parameter(
            np.empty((out_channels, in_channels // groups, kh, kw), dtype=default_dtype())
        )
        init.kaiming_normal_(self.weight, rng)
        if bias:
            fan_in = (in_channels // groups) * kh * kw
            self.bias = Parameter(np.empty(out_channels, dtype=default_dtype()))
            init.linear_bias_(self.bias, rng, fan_in)
        else:
            self.bias = None

    def forward(self, x):
        return conv2d(
            x,
            self.weight,
            bias=self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
            groups=self.groups,
        )

    def __repr__(self):
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, groups={self.groups}, "
            f"bias={self.bias is not None})"
        )
