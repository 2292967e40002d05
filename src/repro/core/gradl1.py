"""GRAD-L1 baseline (Alizadeh et al. [1]).

Regularizes the l1 norm of the loss gradient:

    L_total(W) = L(W) + lambda * sum_i || dL/dW_i ||_1

The gradient of the penalty, ``lambda * H sign(g)``, is obtained by
double backpropagation — the same machinery HERO uses, but carrying
only first-order information about the *quantization* loss (the paper's
Sec. 3.2 shows why that is weaker than HERO's Hessian term: even with
``|g| -> 0`` the perturbation bound collapses when ``lambda_max(H)`` is
large).
"""

import numpy as np

from ..tensor import Tensor
from .trainer import Trainer


class GradL1Trainer(Trainer):
    """Gradient-l1-regularized training."""

    method_name = "grad_l1"

    def __init__(
        self,
        model,
        loss_fn,
        optimizer,
        scheduler=None,
        callbacks=(),
        lambda_l1=0.01,
        grad_clip=None,
    ):
        super().__init__(model, loss_fn, optimizer, scheduler, callbacks, grad_clip=grad_clip)
        if lambda_l1 < 0:
            raise ValueError(f"lambda_l1 must be non-negative, got {lambda_l1}")
        self.lambda_l1 = float(lambda_l1)

    def training_step(self, x, y):
        self._clear_grads()
        loss, logits = self._forward_loss(x, y)
        loss.backward(create_graph=True)
        grads = self._collect_grads(detach=False)
        self._clear_grads()

        penalty = None
        for grad in grads:
            if not isinstance(grad, Tensor) or (grad._ctx is None and not grad.requires_grad):
                continue
            term = grad.abs().sum()
            penalty = term if penalty is None else penalty + term
        if penalty is not None and self.lambda_l1 > 0:
            penalty.backward()
        combined = []
        for param, grad in zip(self.params, grads):
            base = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
            extra = np.zeros_like(base) if param.grad is None else param.grad.data
            combined.append(base + self.lambda_l1 * extra)
        self._set_grads(combined)
        return float(loss.data), logits
