"""Stochastic gradient descent with momentum and weight decay.

This is the optimizer under every method in the paper: SGD itself, and
the outer update of GRAD-L1, SAM ("first-order only") and HERO — those
methods differ only in the gradient they hand to this update rule
(Eq. 17 folds the weight-decay term ``alpha * W`` into the gradient,
which is exactly ``weight_decay`` here).
"""

import numpy as np

from .optimizer import Optimizer


class SGD(Optimizer):
    """SGD with classical momentum.

    Update (PyTorch convention):
        ``v <- mu * v + (g + wd * w)``;  ``w <- w - lr * v``
    with optional Nesterov lookahead.
    """

    def __init__(
        self,
        params,
        lr=0.1,
        momentum=0.0,
        weight_decay=0.0,
        nesterov=False,
    ):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = nesterov
        self._velocity = [None] * len(self.params)

    def step(self):
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            # Update in the parameter's own dtype: state buffers
            # (zeros_like) already match it, so the whole step stays in
            # the engine precision.
            grad = np.asarray(param.grad.data, dtype=param.data.dtype)
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity[index]
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[index] = velocity
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data = param.data - self.lr * grad

    def state_dict(self):
        state = super().state_dict()
        state.update(
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            nesterov=self.nesterov,
            velocity=[None if v is None else v.copy() for v in self._velocity],
        )
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.momentum = state["momentum"]
        self.weight_decay = state["weight_decay"]
        self.nesterov = state["nesterov"]
        self._velocity = [None if v is None else v.copy() for v in state["velocity"]]
