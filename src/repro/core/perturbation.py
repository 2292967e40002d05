"""Layer-adaptive weight perturbations (Eq. 15 of the paper).

HERO probes curvature along the gradient direction, with the
perturbation's l2 norm scaled *per layer* to the layer's weight norm:

    z_i = ||W_i||_2 * g_i / ||g_i||_2

so that layers with large weights receive proportionally large probes
("adapting perturbation strength across different layers based on
their weight distribution", Sec. 4.1).  The actual weight offset is
``h * z_i`` with the scalar step ``h`` from the experiment config
(0.5 on CIFAR-10, 1.0 elsewhere in the paper).

A global (non-adaptive) variant is included for the ablation bench.

:func:`at_weights` is the one way to evaluate at shifted weights
(HERO's ``W* = W + h z``, QAT's quantized pass, the ``||Hz||`` probe,
finite-difference HVPs, the landscape plots); it restores them exactly.
"""

from contextlib import contextmanager

import numpy as np

_EPS = 1e-12


def layer_adaptive_perturbation(params, grads, h):
    """Compute ``h * z_i`` per parameter tensor.

    Parameters
    ----------
    params:
        Sequence of Parameters (their current weights set the scale).
    grads:
        Matching sequence of numpy gradient arrays.
    h:
        Scalar perturbation step.

    Returns a list of numpy arrays (zero where the gradient vanishes).
    """
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    deltas = []
    for param, grad in zip(params, grads):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < _EPS:
            deltas.append(np.zeros_like(param.data))
            continue
        weight_norm = float(np.linalg.norm(param.data))
        deltas.append((h * weight_norm / grad_norm) * grad)
    return deltas


def global_perturbation(params, grads, h):
    """Non-adaptive ablation: one global scale for all layers.

    ``z = ||W||_2 * g / ||g||_2`` with norms taken over the *whole*
    parameter vector — what Eq. 15 would be without the per-layer
    adaptation the paper argues for in Sec. 4.1.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    total_grad_sq = sum(float(np.sum(g * g)) for g in grads)
    grad_norm = np.sqrt(total_grad_sq)
    if grad_norm < _EPS:
        return [np.zeros_like(p.data) for p in params]
    weight_norm = np.sqrt(sum(float(np.sum(p.data * p.data)) for p in params))
    scale = h * weight_norm / grad_norm
    return [scale * g for g in grads]


@contextmanager
def at_weights(params, arrays):
    """Evaluate at shifted weights: ``param.data = array`` inside the block.

    On exit, error or not, each parameter gets back its own array
    object, so the weights are restored exactly, whatever the shift
    was.  The caller computes the shifted arrays; BatchNorm buffers are
    left to the caller too.
    """
    params = list(params)
    originals = [param.data for param in params]
    try:
        for param, array in zip(params, arrays):
            param.data = array
        yield
    finally:
        for param, original in zip(params, originals):
            param.data = original


PERTURBATIONS = {
    "layer_adaptive": layer_adaptive_perturbation,
    "global": global_perturbation,
}
