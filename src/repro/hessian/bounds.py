"""Theorem 3's perturbation lower bounds, computed and empirically checked.

The paper's central theoretical object: the minimal norm a weight
perturbation needs to raise the loss by ``c``,

    ||g||_2 / v * (sqrt(1 + 2 v c / ||g||_2^2) - 1)  <=  ||delta*||_2   (Eq. 6)
    |g|_1 / (n v) * (sqrt(1 + 2 n v c / |g|_1^2) - 1) <= ||delta*||_inf (Eq. 7)

with ``g`` the gradient, ``v = lambda_max(H)`` and ``n = ||W||_0``.
Larger bounds mean more perturbation headroom — HERO's goal.

:func:`theorem3_bounds` evaluates both bounds for a model on a batch;
:func:`empirical_loss_increase` probes the actual loss change under
random perturbations of a given norm so the bound can be validated
(and is, in the tests, on quadratics where everything is exact).
"""

import numpy as np

from ..core.perturbation import at_weights
from ..nn import eval_mode
from ..tensor import Tensor, no_grad
from .eigen import power_iteration
from .hvp import batch_gradients, hvp_finite_diff, model_params, restore_buffers, snapshot_buffers


def _flat(vectors):
    return np.concatenate([np.asarray(v).reshape(-1) for v in vectors])


def bound_l2(grad_norm, v, c):
    """Eq. 6 right-hand side; ``inf`` when the Hessian is flat (v <= 0)."""
    if c <= 0:
        raise ValueError(f"loss-increase tolerance c must be positive, got {c}")
    if v <= 0:
        # Quadratic term vanishes: delta* >= c / ||g||.
        return np.inf if grad_norm == 0 else c / grad_norm
    if grad_norm == 0:
        return np.sqrt(2.0 * c / v)
    ratio = 2.0 * v * c / grad_norm ** 2
    return grad_norm / v * (np.sqrt(1.0 + ratio) - 1.0)


def bound_linf(grad_l1, v, c, n):
    """Eq. 7 right-hand side (``n`` = number of nonzero weights)."""
    if c <= 0:
        raise ValueError(f"loss-increase tolerance c must be positive, got {c}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if v <= 0:
        return np.inf if grad_l1 == 0 else c / grad_l1
    if grad_l1 == 0:
        return np.sqrt(2.0 * c / (n * v))
    ratio = 2.0 * n * v * c / grad_l1 ** 2
    return grad_l1 / (n * v) * (np.sqrt(1.0 + ratio) - 1.0)


def gradl1_limit_linf(v, c, n):
    """Eq. 12: the l-inf bound's limit when ``|g| -> 0``.

    Shows why GRAD-L1 alone is insufficient — the limit still shrinks
    as ``v`` grows, which only Hessian regularization controls.
    """
    if v <= 0:
        return np.inf
    return np.sqrt(2.0 * c / (n * v))


def theorem3_bounds(model, loss_fn, x, y, c=0.1, power_iters=15, seed=0):
    """Evaluate Eq. 6/7 for ``model`` on a batch.

    Returns a dict with the ingredients (``grad_norm``, ``grad_l1``,
    ``lambda_max``, ``n``) and the two bounds.  ``lambda_max`` comes
    from power iteration over finite-difference HVPs.
    """
    params = model_params(model)
    _loss, grads = batch_gradients(model, loss_fn, x, y)
    flat_grad = _flat(grads)
    shapes = [p.shape for p in params]
    v, _vec, _hist = power_iteration(
        lambda vec: hvp_finite_diff(model, loss_fn, x, y, vec),
        shapes,
        iters=power_iters,
        seed=seed,
    )
    v = max(float(v), 0.0)  # Theorem 3 assumes v >= 0
    n = int(sum((p.data != 0).sum() for p in params))
    grad_norm = float(np.linalg.norm(flat_grad))
    grad_l1 = float(np.abs(flat_grad).sum())
    return {
        "grad_norm": grad_norm,
        "grad_l1": grad_l1,
        "lambda_max": v,
        "n": n,
        "c": c,
        "l2_bound": bound_l2(grad_norm, v, c),
        "linf_bound": bound_linf(grad_l1, v, c, n),
        "gradl1_limit": gradl1_limit_linf(v, c, n),
    }


def empirical_loss_increase(model, loss_fn, x, y, radius, norm="l2", samples=8, seed=0):
    """Max observed loss increase under random perturbations of ``radius``.

    ``norm="l2"`` draws directions uniformly on the l2 sphere of that
    radius; ``norm="linf"`` uses sign vectors scaled to ``radius``.
    Used to check Theorem 3: for ``radius`` below the bound, the
    increase should stay below ``c`` (up to higher-order terms).
    """
    if norm not in ("l2", "linf"):
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
    params = model_params(model)
    rng = np.random.default_rng(seed)
    buffers = snapshot_buffers(model)

    def batch_loss():
        with eval_mode(model), no_grad():
            return float(loss_fn(model(Tensor(x)), y).data)

    base = batch_loss()
    worst = -np.inf
    try:
        for _ in range(samples):
            if norm == "l2":
                direction = [rng.standard_normal(p.shape) for p in params]
                scale = radius / np.linalg.norm(_flat(direction))
                offsets = [scale * d for d in direction]
            else:
                offsets = [radius * np.sign(rng.standard_normal(p.shape)) for p in params]
            # In each parameter's dtype, so radius 0 is the model itself.
            shifted = [(p.data + o).astype(p.data.dtype, copy=False) for p, o in zip(params, offsets)]
            with at_weights(params, shifted):
                worst = max(worst, batch_loss() - base)
    finally:
        restore_buffers(model, buffers)
    return worst
