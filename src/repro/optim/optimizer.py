"""Optimizer base class."""


class Optimizer:
    """Base optimizer over a list of :class:`~repro.nn.Parameter`.

    Subclasses implement :meth:`step`, reading each parameter's
    ``.grad`` and rebinding ``.data`` to the updated array.
    """

    def __init__(self, params, lr):
        params = list(params)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = float(lr)

    def zero_grad(self):
        """Clear accumulated gradients."""
        for param in self.params:
            param.grad = None

    def step(self):
        raise NotImplementedError

    def state_dict(self):
        """Optimizer hyper-state (subclasses extend)."""
        return {"lr": self.lr}

    def load_state_dict(self, state):
        self.lr = state["lr"]
