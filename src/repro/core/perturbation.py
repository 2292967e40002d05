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
"""

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


def apply_offsets(params, offsets, sign=1.0):
    """Add ``sign * offsets`` to parameter data, writing in place.

    Writing into the existing buffers (rather than rebinding
    ``param.data``) is bit-identical — ``w + (-o) == w - o`` exactly in
    IEEE — and saves an allocation per parameter.
    """
    if sign == 1.0:
        for param, offset in zip(params, offsets):
            np.add(param.data, offset, out=param.data)
    elif sign == -1.0:
        for param, offset in zip(params, offsets):
            np.subtract(param.data, offset, out=param.data)
    else:
        for param, offset in zip(params, offsets):
            np.add(param.data, sign * offset, out=param.data)


PERTURBATIONS = {
    "layer_adaptive": layer_adaptive_perturbation,
    "global": global_perturbation,
}
