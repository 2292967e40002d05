"""Composite-primitive convolution and BatchNorm: the parity oracle.

``repro.nn`` runs a conv layer and a BatchNorm layer as one autograd
node each, with hand-written adjoints.  This module keeps the same
computations as chains of engine primitives (pad -> batch-minor rows ->
gather of whole rows -> matmul -> reshape/transpose -> bias add;
mean/var/pow arithmetic), whose derivatives of every order come from
the primitives' rules.  Tests compare the coarse ops against them:
forward outputs bitwise, gradients of every order within float
tolerance.

The ``Composite*`` layer classes are drop-in subclasses that share their
parents' parameters, buffers and running-statistic updates, so a model
built from them is the oracle twin of one built from ``repro.nn``.
"""

import numpy as np

from repro import nn
from repro.nn.conv import _pair, _row_index, conv_output_size
from repro.tensor import Tensor


def composite_conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
    """``nn.conv2d`` as a chain of primitive nodes."""
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    n, c = x.shape[:2]
    oc, c_per_group, kh, kw = weight.shape
    if padding != (0, 0):
        ph, pw = padding
        x = x.pad(((0, 0), (0, 0), (ph, ph), (pw, pw)))
    hp, wp = x.shape[2:]
    oh = conv_output_size(hp, kh, stride[0], 0, dilation[0])
    ow = conv_output_size(wp, kw, stride[1], 0, dilation[1])
    rows = x.transpose((1, 2, 3, 0)).reshape(c * hp * wp, n)
    index = _row_index(c, hp, wp, (kh, kw), stride, dilation)
    cols = rows.take_flat(index[:, None] * n + np.arange(n))  # (C*KK*OHW, N)
    cols = cols.reshape(groups, c_per_group * kh * kw, oh * ow * n)
    out = weight.reshape(groups, oc // groups, c_per_group * kh * kw) @ cols  # (G, OCg, OHW*N)
    out = out.reshape(oc, oh, ow, n).transpose((3, 0, 1, 2))
    if bias is not None:
        out = out + bias.reshape(1, oc, 1, 1)
    return out


def composite_batch_norm(bn, x):
    """``bn(x)`` as a chain of primitive nodes (running stats updated alike)."""
    axes = bn._axes(x.ndim)
    shape = bn._param_shape(x.ndim)
    if bn.training:
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
        count = x.size // bn.num_features
        unbiased = var.data * (count / (count - 1)) if count > 1 else var.data
        m = bn.momentum
        bn.set_buffer("running_mean", (1 - m) * bn.running_mean + m * mu.data.reshape(-1))
        bn.set_buffer("running_var", (1 - m) * bn.running_var + m * unbiased.reshape(-1))
        bn.set_buffer("num_batches_tracked", bn.num_batches_tracked + 1)
    else:
        mu = Tensor(bn.running_mean.reshape(shape), dtype=bn.running_mean.dtype)
        var = Tensor(bn.running_var.reshape(shape), dtype=bn.running_var.dtype)
    x_hat = (x - mu) * (var + bn.eps).pow(-0.5)
    if bn.affine:
        x_hat = x_hat * bn.weight.reshape(shape) + bn.bias.reshape(shape)
    return x_hat


class CompositeConv2d(nn.Conv2d):
    def forward(self, x):
        return composite_conv2d(
            x, self.weight, self.bias, self.stride, self.padding, self.dilation, self.groups
        )


class CompositeBatchNorm1d(nn.BatchNorm1d):
    def forward(self, x):
        return composite_batch_norm(self, x)


class CompositeBatchNorm2d(nn.BatchNorm2d):
    def forward(self, x):
        return composite_batch_norm(self, x)


_TWINS = {
    nn.Conv2d: CompositeConv2d,
    nn.BatchNorm1d: CompositeBatchNorm1d,
    nn.BatchNorm2d: CompositeBatchNorm2d,
}


def to_composite(model):
    """Make every conv and BatchNorm layer of ``model`` (in place) its
    composite twin; parameters and buffers are kept, not copied."""
    for module in model.modules():
        twin = _TWINS.get(type(module))
        if twin is not None:
            module.__class__ = twin
    return model
