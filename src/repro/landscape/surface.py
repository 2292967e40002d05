"""Loss-surface evaluation around converged weights (Fig. 3).

Evaluates ``L(W + a d1 + b d2)`` on a grid, returns the loss matrix
plus summary statistics — in particular the *flat-region area*: the
fraction of the plotted neighborhood whose loss increase stays below a
tolerance (the paper reads this off the inner contour circle at +0.1).
A terminal-friendly ASCII contour renderer is included since the
environment has no plotting stack.
"""

import numpy as np

from ..core.perturbation import at_weights
from ..tensor import Tensor, no_grad
from ..hessian.hvp import restore_buffers, snapshot_buffers


def _loss_on_batches(model, loss_fn, batches):
    model.eval()
    total, weight = 0.0, 0
    with no_grad():
        for x, y in batches:
            loss = loss_fn(model(Tensor(x)), y)
            total += float(loss.data) * len(y)
            weight += len(y)
    return total / max(weight, 1)


def loss_line(model, loss_fn, batches, direction, radius=1.0, steps=11):
    """1-D slice ``L(W + a d)`` for ``a`` in ``[-radius, radius]``."""
    return loss_surface(
        model,
        loss_fn,
        batches,
        direction,
        [np.zeros_like(d) for d in direction],
        radius=radius,
        steps=(steps, 1),
    )


def loss_surface(model, loss_fn, batches, d1, d2, radius=1.0, steps=(11, 11)):
    """2-D loss grid around the current weights.

    Parameters
    ----------
    batches:
        A list of ``(x, y)`` pairs (materialized so every grid point
        sees identical data).
    d1, d2:
        Plot directions (parameter-shaped lists).
    radius:
        Half-width of the plotted square in direction units.
    steps:
        Grid resolution ``(n_a, n_b)``.

    Returns a dict with ``alphas``, ``betas``, ``loss`` (2-D array) and
    ``center_loss``.
    """
    params = list(model.parameters())
    buffers = snapshot_buffers(model)
    batches = list(batches)
    n_a, n_b = steps
    alphas = np.linspace(-radius, radius, n_a)
    betas = np.linspace(-radius, radius, n_b) if n_b > 1 else np.array([0.0])
    losses = np.empty((len(alphas), len(betas)))
    try:
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                with at_weights(params, [p.data + a * v1 + b * v2 for p, v1, v2 in zip(params, d1, d2)]):
                    losses[i, j] = _loss_on_batches(model, loss_fn, batches)
    finally:
        restore_buffers(model, buffers)
    center = _loss_on_batches(model, loss_fn, batches)
    return {"alphas": alphas, "betas": betas, "loss": losses, "center_loss": center}


def flat_area_fraction(surface, tolerance=0.1):
    """Fraction of grid points with loss increase below ``tolerance``.

    The quantitative counterpart of the paper's "larger region within
    the inner contour circle indicating a 0.1 loss increase".
    """
    losses = surface["loss"]
    return float((losses <= surface["center_loss"] + tolerance).mean())


def max_loss_increase(surface):
    """Worst loss increase over the plotted neighborhood."""
    return float(surface["loss"].max() - surface["center_loss"])


_ASCII_LEVELS = " .:-=+*#%@"


def ascii_contour(surface, width=None):
    """Render a loss surface as ASCII art (darker = higher loss)."""
    losses = surface["loss"]
    low = losses.min()
    span = max(losses.max() - low, 1e-12)
    normalized = (losses - low) / span
    chars = np.clip((normalized * (len(_ASCII_LEVELS) - 1)).astype(int), 0, len(_ASCII_LEVELS) - 1)
    lines = []
    for row in chars:
        lines.append("".join(_ASCII_LEVELS[c] for c in row))
    return "\n".join(lines)
