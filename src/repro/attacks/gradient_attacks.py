"""Gradient-based input attacks: FGSM and PGD.

Both operate on numpy batches, differentiate the loss w.r.t. the
*input* tensor (the engine treats any tensor with ``requires_grad`` as
a leaf — inputs included), and leave model parameters and their grads
untouched.
"""

import numpy as np

from ..nn import eval_mode
from ..tensor import Tensor, default_dtype, no_grad


def input_gradient(model, loss_fn, x, y):
    """Gradient of the batch loss w.r.t. the input ``x`` (in eval mode)."""
    for p in model.parameters():
        p.grad = None
    x_tensor = Tensor(np.asarray(x, dtype=default_dtype()), requires_grad=True)
    with eval_mode(model):
        loss = loss_fn(model(x_tensor), y)
        loss.backward()
    grad = (
        np.zeros_like(x_tensor.data) if x_tensor.grad is None else x_tensor.grad.data.copy()
    )
    for p in model.parameters():
        p.grad = None
    return grad, float(loss.data)


def fgsm(model, loss_fn, x, y, epsilon):
    """Fast Gradient Sign Method: ``x + eps * sign(dL/dx)``."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    grad, _loss = input_gradient(model, loss_fn, x, y)
    return np.asarray(x) + epsilon * np.sign(grad)


def pgd(model, loss_fn, x, y, epsilon, steps=10, step_size=None, seed=None):
    """Projected Gradient Descent within an l-inf ball of ``epsilon``.

    ``step_size`` defaults to ``2.5 * epsilon / steps`` (the standard
    choice); a ``seed`` enables random initialization inside the ball.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    x = np.asarray(x, dtype=default_dtype())
    step = step_size if step_size is not None else 2.5 * epsilon / steps
    if seed is not None:
        rng = np.random.default_rng(seed)
        adversarial = x + rng.uniform(-epsilon, epsilon, size=x.shape)
    else:
        adversarial = x.copy()
    for _ in range(steps):
        grad, _loss = input_gradient(model, loss_fn, adversarial, y)
        adversarial = adversarial + step * np.sign(grad)
        adversarial = np.clip(adversarial, x - epsilon, x + epsilon)
    return adversarial


def robust_accuracy(model, loss_fn, x, y, epsilon, attack="pgd", **attack_kwargs):
    """Accuracy on adversarially perturbed inputs."""
    attacks = {"fgsm": fgsm, "pgd": pgd}
    if attack not in attacks:
        raise KeyError(f"unknown attack {attack!r}; have {sorted(attacks)}")
    adversarial = attacks[attack](model, loss_fn, x, y, epsilon, **attack_kwargs)
    with eval_mode(model), no_grad():
        logits = model(Tensor(adversarial)).data
    return float((logits.argmax(axis=1) == np.asarray(y)).mean())
