"""Composite-primitive convolution and BatchNorm: the parity oracle.

``repro.nn`` runs a conv layer and a BatchNorm layer as one autograd
node each, with hand-written adjoints.  This module keeps the chains of
engine primitives they replaced (pad -> im2col gather -> matmul ->
reshape/transpose -> bias add; mean/var/pow arithmetic), whose
derivatives of every order come from the primitives' rules.  Tests
compare the coarse ops against them: forward outputs bitwise, gradients
of every order within float tolerance.

The ``Composite*`` layer classes are drop-in subclasses that share their
parents' parameters, buffers and running-statistic updates, so a model
built from them is the oracle twin of one built from ``repro.nn``.
"""

from repro import nn
from repro.nn.conv import _pair, im2col_indices
from repro.tensor import Tensor


def composite_conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
    """``nn.conv2d`` as a chain of primitive nodes."""
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    n = x.shape[0]
    oc, c_per_group, kh, kw = weight.shape
    if padding != (0, 0):
        ph, pw = padding
        x = x.pad(((0, 0), (0, 0), (ph, ph), (pw, pw)))
    indices, oh, ow = im2col_indices(x.shape, (kh, kw), stride, dilation)
    patches = x.take_flat(indices)  # (N, OHW, C, KK)
    oc_per_group = oc // groups
    ohw = oh * ow
    cols = (
        patches.reshape(n, ohw, groups, c_per_group * kh * kw)
        .transpose((2, 0, 1, 3))
        .reshape(groups, n * ohw, c_per_group * kh * kw)
    )
    kernel = weight.reshape(groups, oc_per_group, c_per_group * kh * kw).transpose((0, 2, 1))
    out = cols @ kernel  # (G, N*OHW, OCg)
    out = (
        out.reshape(groups, n, oh, ow, oc_per_group)
        .transpose((1, 0, 4, 2, 3))
        .reshape(n, oc, oh, ow)
    )
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
