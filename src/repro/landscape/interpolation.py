"""Linear interpolation paths between trained models.

The classic mode-connectivity probe: evaluate
``L((1 - t) W_a + t W_b)`` for ``t`` along ``[start, stop]``.  Between
a HERO optimum and an SGD optimum the path shows whether the two
methods find basins separated by a barrier — complementary evidence to
Fig. 3's per-optimum contours.
"""

import numpy as np

from ..core.perturbation import at_weights
from ..hessian.hvp import restore_buffers, snapshot_buffers
from .surface import _loss_on_batches


def interpolation_path(
    model, state_a, state_b, loss_fn, batches, steps=11, start=-0.25, stop=1.25
):
    """Loss along the segment between two state dicts.

    Parameters
    ----------
    model:
        A model of the right architecture (used as the evaluation
        vehicle; its own weights are restored afterwards).
    state_a, state_b:
        ``state_dict()``-style mappings with identical keys.
    batches:
        List of ``(x, y)`` pairs evaluated at every point.
    steps, start, stop:
        Grid of interpolation coefficients; extending slightly past
        [0, 1] shows the walls of both basins.

    Returns ``{"ts": array, "loss": array}``.
    """
    if set(state_a) != set(state_b):
        raise ValueError("state dicts have different keys")
    params = dict(model.named_parameters())
    missing = [k for k in params if k not in state_a]
    if missing:
        raise ValueError(f"state dicts missing parameters: {missing}")

    buffers = snapshot_buffers(model)
    batches = list(batches)
    ts = np.linspace(start, stop, steps)
    losses = np.empty(steps)
    try:
        for index, t in enumerate(ts):
            point = [(1.0 - t) * np.asarray(state_a[name]) + t * np.asarray(state_b[name]) for name in params]
            with at_weights(params.values(), point):
                losses[index] = _loss_on_batches(model, loss_fn, batches)
    finally:
        restore_buffers(model, buffers)
        model.train()
    return {"ts": ts, "loss": losses}


def barrier_height(path):
    """Max loss on the [0, 1] segment above the endpoint maximum.

    Zero (or negative, clipped to 0) means the two optima are linearly
    mode-connected on this data.
    """
    ts = path["ts"]
    losses = path["loss"]
    inside = (ts >= 0.0) & (ts <= 1.0)
    if not inside.any():
        raise ValueError("path does not cover [0, 1]")
    end_a = losses[np.argmin(np.abs(ts - 0.0))]
    end_b = losses[np.argmin(np.abs(ts - 1.0))]
    peak = losses[inside].max()
    return float(max(0.0, peak - max(end_a, end_b)))
