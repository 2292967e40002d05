"""The paper's ``||Hz||`` Hessian-norm metric (Fig. 2a).

Following Sec. 5.4: ``z`` is the Eq. 15 perturbation (gradient
direction, layer-adaptively scaled), and ``||Hz||`` is estimated with
the same finite difference the training objective uses:

    H z ~ ( dL/dW(W + h z) - dL/dW(W) ) / h .

Averaged over training batches, this is the curve plotted against
training epochs for HERO / GRAD-L1 / SGD.
"""

import numpy as np

from ..core.perturbation import PERTURBATIONS, at_weights
from .hvp import batch_gradients, model_params, restore_buffers, snapshot_buffers


def hz_norm_on_batch(model, loss_fn, x, y, h=0.5, perturbation="layer_adaptive"):
    """``||H z||_2`` (flattened over all layers) on a single batch."""
    params = model_params(model)
    buffers = snapshot_buffers(model)
    try:
        _, clean = batch_gradients(model, loss_fn, x, y)
        offsets = PERTURBATIONS[perturbation](params, clean, h)
        with at_weights(params, [p.data + dz for p, dz in zip(params, offsets)]):
            _, shifted = batch_gradients(model, loss_fn, x, y)
    finally:
        restore_buffers(model, buffers)
    total = sum(float(np.sum((gs - gc) ** 2)) for gs, gc in zip(shifted, clean))
    return np.sqrt(total) / h


def hz_norm(model, loss_fn, loader, h=0.5, perturbation="layer_adaptive", max_batches=None):
    """Mean ``||Hz||`` over (up to ``max_batches`` of) a data loader."""
    values = []
    for index, (x, y) in enumerate(loader):
        if max_batches is not None and index >= max_batches:
            break
        values.append(hz_norm_on_batch(model, loss_fn, x, y, h=h, perturbation=perturbation))
    if not values:
        raise ValueError("loader produced no batches")
    return float(np.mean(values))
