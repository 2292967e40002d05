"""HERO — Hessian-Enhanced Robust Optimization (Algorithm 1).

Per batch:

1.  ``g_i = dL/dW_i`` at the current weights (first backward pass);
2.  perturbation ``h z_i`` with ``z_i`` from Eq. 15 (layer-adaptive,
    along the gradient direction, scaled to the layer's weight norm);
3.  perturbed gradient ``dL/dW*`` at ``W* = W + h z`` with
    ``create_graph=True`` so it stays differentiable;
4.  Hessian penalty ``G = sum_i || dL/dW_i* - g_i ||`` (finite
    difference of gradients ~ ``h * H z``, Eq. 14) and its gradient
    w.r.t. the *perturbed* weights via double backprop — the paper's
    Eq. 16 approximation that treats ``z`` as constant;
5.  HERO gradient (Eq. 17):
    ``dW_i = dL/dW_i* + gamma * dG/dW_i*`` (the ``alpha W`` weight
    decay lives in the optimizer, shared by all methods).

``penalty="norm"`` follows Algorithm 1 line 10 literally
(``||.||_2``); ``penalty="sq_norm"`` matches the ``sum lambda_i^2``
formulation of Eq. 13 — both are exposed and compared in the ablation
bench.

``regularizer`` selects how ``H z`` is obtained:

* ``"finite_diff"`` (the paper's choice): the gradient difference of
  Eq. 14, costing one extra backprop;
* ``"exact_hvp"``: the exact Hessian-vector product via double
  backprop, whose gradient then requires a third-order pass — an
  ablation the engine supports because backward rules are themselves
  differentiable.  The two differ exactly by the paper's Eq. 16
  approximation: on a quadratic loss the exact penalty gradient
  vanishes (H is constant) while the finite-difference rule does not,
  so this arm isolates the approximation's effect.
"""

import numpy as np

from ..tensor import Tensor
from .perturbation import PERTURBATIONS, apply_offsets
from .trainer import Trainer

_PENALTY_EPS = 1e-12


class HEROTrainer(Trainer):
    """The paper's method.

    Parameters
    ----------
    h:
        Perturbation step size (paper: 0.5 for CIFAR-10, 1.0 otherwise).
    gamma:
        Hessian regularization strength (paper grid:
        {0.01, 0.05, 0.1, 0.5, 1.0, 5.0}).
    penalty:
        ``"norm"`` (Algorithm 1) or ``"sq_norm"`` (Eq. 13 form).
    perturbation:
        ``"layer_adaptive"`` (Eq. 15) or ``"global"`` (ablation).
    regularizer:
        ``"finite_diff"`` (Eq. 14, the paper) or ``"exact_hvp"``
        (third-order ablation; see module docstring).
    """

    method_name = "hero"

    def __init__(
        self,
        model,
        loss_fn,
        optimizer,
        scheduler=None,
        callbacks=(),
        h=0.5,
        gamma=0.1,
        penalty="norm",
        perturbation="layer_adaptive",
        regularizer="finite_diff",
        grad_clip=None,
    ):
        super().__init__(model, loss_fn, optimizer, scheduler, callbacks, grad_clip=grad_clip)
        if h <= 0:
            raise ValueError(f"perturbation step h must be positive, got {h}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if penalty not in ("norm", "sq_norm"):
            raise ValueError(f"penalty must be 'norm' or 'sq_norm', got {penalty!r}")
        if perturbation not in PERTURBATIONS:
            raise ValueError(
                f"perturbation must be one of {sorted(PERTURBATIONS)}, got {perturbation!r}"
            )
        if regularizer not in ("finite_diff", "exact_hvp"):
            raise ValueError(
                f"regularizer must be 'finite_diff' or 'exact_hvp', got {regularizer!r}"
            )
        self.h = float(h)
        self.gamma = float(gamma)
        self.penalty = penalty
        self.perturbation = perturbation
        self.regularizer = regularizer

    def training_step(self, x, y):
        if self.regularizer == "exact_hvp":
            return self._training_step_exact(x, y)
        return self._training_step_finite_diff(x, y)

    def _training_step_finite_diff(self, x, y):
        # (1) clean gradient g_i
        self._clear_grads()
        loss, logits = self._forward_loss(x, y)
        loss.backward()
        clean_grads = self._collect_grads(detach=True)

        # (2) Eq. 15 perturbation, applied in place
        offsets = PERTURBATIONS[self.perturbation](self.params, clean_grads, self.h)
        apply_offsets(self.params, offsets, sign=+1.0)

        try:
            # (3) perturbed gradient, kept differentiable
            self._clear_grads()
            perturbed_loss, _ = self._forward_loss(x, y)
            perturbed_loss.backward(create_graph=True)
            perturbed_grads = self._collect_grads(detach=False)
            self._clear_grads()

            # (4) Hessian penalty and its gradient at W*
            regularizer = self._hessian_penalty(perturbed_grads, clean_grads)
            if regularizer is not None and self.gamma > 0:
                regularizer.backward()
            reg_grads = [
                np.zeros_like(p.data) if p.grad is None else p.grad.data
                for p in self.params
            ]

            # (5) Eq. 17 combined gradient
            combined = [
                self._grad_data(gp) + self.gamma * gr
                for gp, gr in zip(perturbed_grads, reg_grads)
            ]
        finally:
            # Restore the unperturbed weights before the optimizer step.
            apply_offsets(self.params, offsets, sign=-1.0)

        self._set_grads(combined)
        return float(loss.data), logits

    def _training_step_exact(self, x, y):
        """Exact-HVP ablation: regularize ``penalty(H z)`` directly.

        ``H z`` is formed by double backprop (so no ``h``-scaled finite
        difference enters the penalty) and its gradient by a third
        backward pass; the first-order term is still the perturbed
        gradient, as in Eq. 17.
        """
        # (1) clean gradient, kept differentiable for the HVP
        self._clear_grads()
        loss, logits = self._forward_loss(x, y)
        loss.backward(create_graph=True)
        graph_grads = self._collect_grads(detach=False)
        clean_grads = [self._grad_data(g).copy() for g in graph_grads]
        self._clear_grads()

        # (2) Eq. 15 direction z (constants w.r.t. differentiation)
        z_dirs = PERTURBATIONS[self.perturbation](self.params, clean_grads, 1.0)

        # (3) Hz via double backprop: d(g . z)/dW, graph retained
        inner = None
        for grad, z in zip(graph_grads, z_dirs):
            if not isinstance(grad, Tensor) or grad._ctx is None:
                continue
            term = (grad * Tensor(z)).sum()
            inner = term if inner is None else inner + term
        reg_grads = [np.zeros_like(p.data) for p in self.params]
        if inner is not None and self.gamma > 0:
            inner.backward(create_graph=True)
            hz = self._collect_grads(detach=False)
            self._clear_grads()
            # (4) penalty(Hz) and its gradient (third-order pass)
            penalty = None
            for hv in hz:
                if not isinstance(hv, Tensor) or (hv._ctx is None and not hv.requires_grad):
                    continue
                term = hv.norm(eps=_PENALTY_EPS) if self.penalty == "norm" else (hv * hv).sum()
                penalty = term if penalty is None else penalty + term
            if penalty is not None and (penalty._ctx is not None or penalty.requires_grad):
                penalty.backward()
                reg_grads = [
                    np.zeros_like(p.data) if p.grad is None else p.grad.data
                    for p in self.params
                ]
        self._clear_grads()

        # (5) first-order term at the perturbed point + combined update
        offsets = [self.h * z for z in z_dirs]
        apply_offsets(self.params, offsets, sign=+1.0)
        try:
            perturbed_loss, _ = self._forward_loss(x, y)
            perturbed_loss.backward()
            perturbed = self._collect_grads(detach=True)
        finally:
            apply_offsets(self.params, offsets, sign=-1.0)

        combined = [gp + self.gamma * gr for gp, gr in zip(perturbed, reg_grads)]
        self._set_grads(combined)
        return float(loss.data), logits

    def _hessian_penalty(self, perturbed_grads, clean_grads):
        """``G = sum_i penalty(dL/dW_i* - g_i)`` as a graph scalar."""
        total = None
        for grad_p, grad_c in zip(perturbed_grads, clean_grads):
            if not isinstance(grad_p, Tensor) or grad_p._ctx is None and not grad_p.requires_grad:
                # Parameter untouched by the loss; nothing to regularize.
                continue
            diff = grad_p - Tensor(grad_c)
            if self.penalty == "norm":
                term = diff.norm(eps=_PENALTY_EPS)
            else:
                term = (diff * diff).sum()
            total = term if total is None else total + term
        return total

    @staticmethod
    def _grad_data(grad):
        return grad.data if isinstance(grad, Tensor) else np.asarray(grad)
