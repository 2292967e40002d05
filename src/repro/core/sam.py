"""First-order-only trainer (the SAM-style arm of Table 3).

Implements the update the paper ablates against HERO:

    dW_i = dL/dW_i evaluated at W* = W + h z   (+ alpha W in the optimizer)

i.e. HERO's Eq. 17 with ``gamma = 0``: the perturbed-gradient
replacement borrowed from sharpness-aware minimization [7], without the
Hessian penalty.  It is :class:`HEROTrainer` with ``gamma`` fixed at 0,
so the two arms share the Eq. 15 perturbation and the step itself.
"""

from .hero import HEROTrainer


class SAMTrainer(HEROTrainer):
    """Sharpness-aware first-order trainer ("First-order only" in Table 3)."""

    method_name = "first_order"

    def __init__(self, model, loss_fn, optimizer, scheduler=None, callbacks=(), h=0.5,
                 perturbation="layer_adaptive", grad_clip=None):
        super().__init__(model, loss_fn, optimizer, scheduler, callbacks, h=h, gamma=0.0,
                         perturbation=perturbation, grad_clip=grad_clip)
