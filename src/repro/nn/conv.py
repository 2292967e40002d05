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

Grouped convolution (including depthwise, ``groups == in_channels``,
as used by MobileNetV2) maps onto a single 3-D batched matmul over the
group axis — no Python-level loop over groups.
"""

import threading
from collections import OrderedDict

import numpy as np

from ..tensor import Tensor, default_dtype
from ..tensor.function import Function, call
from . import init
from .module import Module, Parameter

# Bounded LRU for im2col gather indices.  Index construction is pure
# integer arithmetic but costs ~ O(N * OHW * C * KK) per call — several
# milliseconds for a CIFAR-sized batch — so a training loop that
# recomputed it every step would spend more time building indices than
# convolving.  The bound keeps pathological shape churn (e.g. sweeping
# image sizes in an eval harness) from growing the cache without limit;
# steady-state training uses a handful of entries and never evicts.
# The lock makes a lookup and its LRU bookkeeping one step: a served
# model's worker threads share the cache, and one thread's eviction
# must not land between another's hit and its ``move_to_end``.
_INDEX_CACHE_MAX = 64
_INDEX_CACHE = OrderedDict()
_INDEX_CACHE_LOCK = threading.Lock()
_INDEX_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def im2col_cache_info():
    """Snapshot of the index-cache counters (hits/misses/evictions/size)."""
    info = dict(_INDEX_CACHE_STATS)
    info["size"] = len(_INDEX_CACHE)
    info["maxsize"] = _INDEX_CACHE_MAX
    return info


def im2col_cache_clear():
    """Drop all cached index arrays and reset the counters."""
    with _INDEX_CACHE_LOCK:
        _INDEX_CACHE.clear()
        for key in _INDEX_CACHE_STATS:
            _INDEX_CACHE_STATS[key] = 0


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


def im2col_indices(in_shape, kernel, stride, dilation):
    """Flat gather indices turning a padded NCHW tensor into patches.

    Returns an int array of shape ``(N, OH*OW, C, KH*KW)`` whose entries
    index into the *flattened padded* input; gathering with it yields,
    for every output location, the receptive-field window of every
    channel.  Results are memoized in a bounded LRU — models reuse the
    same shapes every step, so steady-state training recomputes nothing
    (see :func:`im2col_cache_info`).
    """
    key = (in_shape, kernel, stride, dilation)
    with _INDEX_CACHE_LOCK:
        cached = _INDEX_CACHE.get(key)
        if cached is not None:
            _INDEX_CACHE_STATS["hits"] += 1
            _INDEX_CACHE.move_to_end(key)
            return cached
        _INDEX_CACHE_STATS["misses"] += 1

    n, c, hp, wp = in_shape
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh = conv_output_size(hp, kh, sh, 0, dh)
    ow = conv_output_size(wp, kw, sw, 0, dw)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input {in_shape}"
        )

    out_rows = np.arange(oh * ow) // ow  # (OHW,)
    out_cols = np.arange(oh * ow) % ow
    ker_rows = np.arange(kh * kw) // kw  # (KK,)
    ker_cols = np.arange(kh * kw) % kw
    rows = out_rows[:, None] * sh + ker_rows[None, :] * dh  # (OHW, KK)
    cols = out_cols[:, None] * sw + ker_cols[None, :] * dw

    n_idx = np.arange(n)[:, None, None, None]
    c_idx = np.arange(c)[None, None, :, None]
    flat = ((n_idx * c + c_idx) * hp + rows[None, :, None, :]) * wp
    flat = flat + cols[None, :, None, :]
    result = (flat.astype(np.int64), oh, ow)
    with _INDEX_CACHE_LOCK:
        _INDEX_CACHE[key] = result
        if len(_INDEX_CACHE) > _INDEX_CACHE_MAX:
            _INDEX_CACHE.popitem(last=False)
            _INDEX_CACHE_STATS["evictions"] += 1
    return result


def _columns(x, geometry):
    """im2col: the ``(G, N*OH*OW, C/G*KH*KW)`` columns of the array ``x``."""
    kernel, stride, padding, dilation, groups = geometry
    if padding != (0, 0):
        n, c, h, w = x.shape
        ph, pw = padding
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph : ph + h, pw : pw + w] = x
        x = padded
    indices = im2col_indices(x.shape, kernel, stride, dilation)[0]
    patches = x.reshape(-1)[indices]  # (N, OHW, C, KK)
    n, ohw, c, kk = patches.shape
    return (
        patches.reshape(n, ohw, groups, c // groups * kk)
        .transpose((2, 0, 1, 3))
        .reshape(groups, n * ohw, c // groups * kk)
    )


def _col2im(cols, in_shape, geometry):
    """Adjoint of :func:`_columns`: scatter-add columns onto ``in_shape``."""
    kernel, stride, padding, dilation, groups = geometry
    n, c, h, w = in_shape
    ph, pw = padding
    padded = (n, c, h + 2 * ph, w + 2 * pw)
    indices, oh, ow = im2col_indices(padded, kernel, stride, dilation)
    patches = cols.reshape(groups, n, oh * ow, -1).transpose((1, 2, 0, 3))
    out = np.zeros(n * c * padded[2] * padded[3], dtype=cols.dtype)
    np.add.at(out, indices.reshape(-1), patches.reshape(-1))
    return out.reshape(padded)[:, :, ph : ph + h, pw : pw + w]


def _out_matrix(grad, groups):
    """An ``(N, OC, OH, OW)`` gradient as the ``(G, N*OH*OW, OC/G)`` matmul operand."""
    n, oc, oh, ow = grad.shape
    return (
        grad.reshape(n, groups, oc // groups, oh, ow)
        .transpose((1, 0, 3, 4, 2))
        .reshape(groups, n * oh * ow, oc // groups)
    )


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
        kernel_mat = weight.reshape(groups, oc // groups, -1).transpose((0, 2, 1))
        out = np.matmul(self.cols, kernel_mat)  # (G, N*OHW, OC/G)
        out = (
            out.reshape(groups, n, oh, ow, oc // groups)
            .transpose((1, 0, 4, 2, 3))
            .reshape(n, oc, oh, ow)
        )
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
        return _col2im(np.matmul(_out_matrix(grad, groups), w_mat), in_shape, geometry)

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
        gw = np.matmul(cols.swapaxes(-1, -2), _out_matrix(grad, groups))  # (G, K, OC/G)
        return gw.transpose((0, 2, 1)).reshape(grad.shape[1], -1, *kernel)

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
