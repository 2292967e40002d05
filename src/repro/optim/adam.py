"""Adam and AdamW optimizers.

The paper trains everything with SGD+momentum, but downstream users of
the HERO trainers routinely want adaptive optimizers (the outer update
of Eq. 17 is optimizer-agnostic: HERO hands a gradient to whatever
optimizer is configured).  ``AdamW`` uses decoupled weight decay
(Loshchilov & Hutter), which composes correctly with HERO's gradient —
the ``alpha * W`` term of Eq. 17 then acts on the weights directly
rather than through the second-moment normalization.
"""

import numpy as np

from .optimizer import Optimizer


class Adam(Optimizer):
    """Adam with the standard bias-corrected moment estimates.

    ``weight_decay`` here is the *coupled* L2 form (added to the
    gradient before the moment updates), matching the original Adam.
    """

    def __init__(
        self,
        params,
        lr=1e-3,
        betas=(0.9, 0.999),
        eps=1e-8,
        weight_decay=0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._exp_avg = [None] * len(self.params)
        self._exp_avg_sq = [None] * len(self.params)

    def _apply_decay_to_grad(self, param, grad):
        if self.weight_decay:
            return grad + self.weight_decay * param.data
        return grad

    def _decay_weights_directly(self, param):
        pass  # coupled variant decays through the gradient

    def step(self):
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            # Moments (zeros_like) live in the parameter's dtype; cast
            # the gradient once so the whole update stays in the engine
            # precision.
            grad = np.asarray(param.grad.data, dtype=param.data.dtype)
            grad = self._apply_decay_to_grad(param, grad)
            m = self._exp_avg[index]
            v = self._exp_avg_sq[index]
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._exp_avg[index] = m
            self._exp_avg_sq[index] = v
            m_hat = m / bias1
            v_hat = v / bias2
            self._decay_weights_directly(param)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        state = super().state_dict()
        state.update(
            betas=(self.beta1, self.beta2),
            eps=self.eps,
            weight_decay=self.weight_decay,
            step_count=self._step_count,
            exp_avg=[None if m is None else m.copy() for m in self._exp_avg],
            exp_avg_sq=[None if v is None else v.copy() for v in self._exp_avg_sq],
        )
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.beta1, self.beta2 = state["betas"]
        self.eps = state["eps"]
        self.weight_decay = state["weight_decay"]
        self._step_count = state["step_count"]
        self._exp_avg = [None if m is None else m.copy() for m in state["exp_avg"]]
        self._exp_avg_sq = [None if v is None else v.copy() for v in state["exp_avg_sq"]]


class AdamW(Adam):
    """Adam with decoupled weight decay: ``w <- w - lr * wd * w`` applied
    separately from the adaptive update."""

    def _apply_decay_to_grad(self, param, grad):
        return grad  # decay is decoupled

    def _decay_weights_directly(self, param):
        if self.weight_decay:
            param.data = param.data - self.lr * self.weight_decay * param.data
