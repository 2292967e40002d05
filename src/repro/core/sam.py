"""First-order-only trainer (the SAM-style arm of Table 3).

Implements the update the paper ablates against HERO:

    dW_i = dL/dW_i evaluated at W* = W + h z   (+ alpha W in the optimizer)

i.e. HERO's Eq. 17 with ``gamma = 0``: the perturbed-gradient
replacement borrowed from sharpness-aware minimization [7], without the
Hessian penalty.  Shares the Eq. 15 perturbation with HERO.
"""

from .perturbation import PERTURBATIONS, apply_offsets
from .trainer import Trainer


class SAMTrainer(Trainer):
    """Sharpness-aware first-order trainer ("First-order only" in Table 3)."""

    method_name = "first_order"

    def __init__(
        self,
        model,
        loss_fn,
        optimizer,
        scheduler=None,
        callbacks=(),
        h=0.5,
        perturbation="layer_adaptive",
        grad_clip=None,
    ):
        super().__init__(model, loss_fn, optimizer, scheduler, callbacks, grad_clip=grad_clip)
        if h <= 0:
            raise ValueError(f"perturbation step h must be positive, got {h}")
        if perturbation not in PERTURBATIONS:
            raise ValueError(
                f"perturbation must be one of {sorted(PERTURBATIONS)}, got {perturbation!r}"
            )
        self.h = float(h)
        self.perturbation = perturbation

    def training_step(self, x, y):
        self._clear_grads()
        loss, logits = self._forward_loss(x, y)
        loss.backward()
        clean_grads = self._collect_grads(detach=True)

        offsets = PERTURBATIONS[self.perturbation](self.params, clean_grads, self.h)
        apply_offsets(self.params, offsets, sign=+1.0)
        try:
            self._clear_grads()
            perturbed_loss, _ = self._forward_loss(x, y)
            perturbed_loss.backward()
            perturbed = self._collect_grads(detach=True)
        finally:
            apply_offsets(self.params, offsets, sign=-1.0)

        self._set_grads(perturbed)
        return float(loss.data), logits
