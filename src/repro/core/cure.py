"""CURE — curvature regularization in *input* space ([18], Sec. 2.3).

HERO adapts CURE's finite-difference Hessian penalty from input space
to weight space.  Implementing CURE itself closes the loop: the same
Eq. 14-style machinery, but perturbing the *input* along its gradient
direction:

    L_total = L(x) + gamma * || dL/dx (x + h z) - dL/dx (x) ||,
    z = dL/dx / ||dL/dx||     (per sample)

which improves robustness to input (adversarial) perturbation rather
than weight perturbation.  Included as a related-work baseline: the
tests and the adversarial example compare what each flavour of
curvature regularization buys.
"""

import numpy as np

from ..tensor import Tensor, default_dtype
from .trainer import Trainer

_EPS = 1e-12


class CURETrainer(Trainer):
    """Input-curvature-regularized training.

    Parameters
    ----------
    h:
        Input perturbation step (CURE's h; scaled per sample to the
        input-gradient direction).
    gamma:
        Regularization strength.
    penalty:
        ``"norm"`` or ``"sq_norm"`` of the input-gradient difference.
    """

    method_name = "cure"

    def __init__(
        self,
        model,
        loss_fn,
        optimizer,
        scheduler=None,
        callbacks=(),
        h=1.0,
        gamma=0.1,
        penalty="norm",
        grad_clip=None,
    ):
        super().__init__(model, loss_fn, optimizer, scheduler, callbacks, grad_clip=grad_clip)
        if h <= 0:
            raise ValueError(f"input perturbation h must be positive, got {h}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if penalty not in ("norm", "sq_norm"):
            raise ValueError(f"penalty must be 'norm' or 'sq_norm', got {penalty!r}")
        self.h = float(h)
        self.gamma = float(gamma)
        self.penalty = penalty

    def training_step(self, x, y):
        x = np.asarray(x, dtype=default_dtype())
        self._clear_grads()

        # (1) clean pass; input gradient defines the probe direction z
        x_leaf = Tensor(x, requires_grad=True)
        logits = self.model(x_leaf)
        loss = self.loss_fn(logits, y)
        loss.backward()
        clean_param_grads = self._collect_grads(detach=True)
        input_grad = (
            np.zeros_like(x) if x_leaf.grad is None else x_leaf.grad.data
        )
        flat = input_grad.reshape(len(x), -1)
        norms = np.linalg.norm(flat, axis=1, keepdims=True)
        z = (flat / np.maximum(norms, _EPS)).reshape(x.shape)

        # (2) perturbed pass, gradient w.r.t. the perturbed input kept
        #     differentiable so the penalty reaches the weights
        self._clear_grads()
        x_perturbed = Tensor(x + self.h * z, requires_grad=True)
        perturbed_loss = self.loss_fn(self.model(x_perturbed), y)
        perturbed_loss.backward(create_graph=True)
        perturbed_input_grad = x_perturbed.grad
        self._clear_grads()

        # (3) penalty on the input-gradient difference
        reg_grads = [np.zeros_like(p.data) for p in self.params]
        if perturbed_input_grad is not None and self.gamma > 0:
            diff = perturbed_input_grad - Tensor(input_grad)
            if self.penalty == "norm":
                penalty = diff.norm(eps=_EPS)
            else:
                penalty = (diff * diff).sum()
            if penalty._ctx is not None or penalty.requires_grad:
                penalty.backward()
                reg_grads = [
                    np.zeros_like(p.data) if p.grad is None else p.grad.data
                    for p in self.params
                ]

        # (4) total gradient: clean first-order term + gamma * penalty grad
        combined = [
            gc + self.gamma * gr for gc, gr in zip(clean_param_grads, reg_grads)
        ]
        self._set_grads(combined)
        return float(loss.data), logits
