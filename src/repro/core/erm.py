"""Plain empirical-risk-minimization (SGD) trainer — the paper's baseline."""

from .trainer import Trainer


class ERMTrainer(Trainer):
    """Standard SGD training: one forward/backward per batch.

    Weight decay (the ``alpha * W`` term of Eq. 17) is applied by the
    optimizer, identically for every method.
    """

    method_name = "sgd"

    def training_step(self, x, y):
        self._clear_grads()
        loss, logits = self._forward_loss(x, y)
        loss.backward()
        return float(loss.data), logits
