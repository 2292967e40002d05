"""BatchNorm folding — the standard pre-quantization deployment step.

At inference BatchNorm is an affine transform per channel; folding it
into the preceding convolution's weights and bias produces a network
that is (i) mathematically identical in eval mode and (ii) the form
deployment toolchains actually quantize.  The paper quantizes conv
weights with BN kept separate; folding is provided so users can study
both deployment conventions (the folded model's weight distribution
differs, which changes PTQ behaviour — see the tests).
"""

import copy

import numpy as np

from .. import nn


def fold_conv_bn(conv, bn):
    """Return a new Conv2d equivalent to ``bn(conv(x))`` in eval mode.

    ``W' = W * gamma / sqrt(var + eps)`` (per output channel),
    ``b' = (b - mean) * gamma / sqrt(var + eps) + beta``.  A missing
    conv bias (and a non-affine BN's shift) is zeros in the conv
    weight's dtype, so folding keeps a float32 model float32.
    """
    if conv.out_channels != bn.num_features:
        raise ValueError(
            f"conv out_channels {conv.out_channels} != bn features {bn.num_features}"
        )
    dtype = conv.weight.data.dtype
    scale = 1.0 / np.sqrt(bn.running_var + bn.eps)
    if bn.affine:
        scale = scale * bn.weight.data
        shift = bn.bias.data
    else:
        shift = np.zeros(bn.num_features, dtype=dtype)

    folded = nn.Conv2d(
        conv.in_channels,
        conv.out_channels,
        conv.kernel_size,
        stride=conv.stride,
        padding=conv.padding,
        dilation=conv.dilation,
        groups=conv.groups,
        bias=True,
    )
    folded.weight.data = conv.weight.data * scale[:, None, None, None]
    base_bias = conv.bias.data if conv.bias is not None else np.zeros(conv.out_channels, dtype=dtype)
    folded.bias.data = (base_bias - bn.running_mean) * scale + shift
    return folded


def fold_batchnorms(model):
    """Fold every ``Conv2d -> BatchNorm2d`` pair inside Sequential containers.

    Returns a deep-copied model with each such pair replaced by a single
    folded Conv2d followed by ``nn.Identity()``.  Pairs must be adjacent
    children of the same ``Sequential`` (the layout all models in
    ``repro.models`` use for their conv stacks); other BN placements are
    left untouched.  The model should be in eval mode downstream — the
    folded convs bake in the *running* statistics.
    """
    folded_model = copy.deepcopy(model)
    count = _fold_in_place(folded_model)
    return folded_model, count


def _fold_in_place(module):
    count = 0
    for child in list(module._modules.values()):
        count += _fold_in_place(child)
    if isinstance(module, nn.Sequential):
        names = list(module._modules)
        for i in range(len(names) - 1):
            first = module._modules[names[i]]
            second = module._modules[names[i + 1]]
            if isinstance(first, nn.Conv2d) and isinstance(second, nn.BatchNorm2d):
                folded = fold_conv_bn(first, second)
                setattr(module, names[i], folded)
                setattr(module, names[i + 1], nn.Identity())
                count += 1
    else:
        # Fold conv/bn attribute pairs by naming convention (convN/bnN),
        # which covers the model zoo's non-Sequential blocks.
        names = list(module._modules)
        for name in names:
            if not name.startswith("conv"):
                continue
            suffix = name[4:]
            bn_name = f"bn{suffix}"
            conv = module._modules.get(name)
            bn = module._modules.get(bn_name)
            if isinstance(conv, nn.Conv2d) and isinstance(bn, nn.BatchNorm2d):
                setattr(module, name, fold_conv_bn(conv, bn))
                setattr(module, bn_name, nn.Identity())
                count += 1
    return count
