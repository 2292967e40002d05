"""Quantization-aware training (QAT) — the paper's motivating contrast.

Sec. 2.2: straight-through-estimator finetuning "regains the
quantization performance via retraining on a specific quantization
precision, yet fail[s] to perform well when the precision is changed on
the fly".  This trainer implements that scheme so the claim can be
measured: weights are fake-quantized to a *target precision* on every
forward pass (straight-through gradients flow to full-precision master
weights), producing a model excellent at its target precision and
brittle elsewhere — the opposite robustness profile from HERO's.
"""

from ..quant.quantizer import QuantScheme, quantize_array
from .perturbation import at_weights
from .trainer import Trainer


class QATTrainer(Trainer):
    """Straight-through-estimator QAT at a fixed weight precision.

    Per batch: run forward/backward with every conv/linear weight
    quantized to ``bits`` (the quantization error is constant w.r.t.
    the graph, so gradients are exactly the straight-through ones),
    inside :func:`~repro.core.perturbation.at_weights`, so the update
    then applies to the full-precision master weights.
    """

    method_name = "qat"

    def __init__(
        self,
        model,
        loss_fn,
        optimizer,
        scheduler=None,
        callbacks=(),
        bits=4,
        symmetric=True,
        grad_clip=None,
    ):
        super().__init__(model, loss_fn, optimizer, scheduler, callbacks, grad_clip=grad_clip)
        self.scheme = QuantScheme(bits=bits, symmetric=symmetric)
        self._targets = self._find_quantized_params(model)

    @staticmethod
    def _find_quantized_params(model):
        from ..nn import Conv2d, Linear

        targets = []
        for _name, module in model.named_modules():
            if isinstance(module, (Conv2d, Linear)):
                targets.append(module.weight)
        if not targets:
            raise ValueError("model has no Conv2d/Linear weights to fake-quantize")
        return targets

    def training_step(self, x, y):
        quantized = [quantize_array(w.data, self.scheme)[0] for w in self._targets]
        with at_weights(self._targets, quantized):
            self._clear_grads()
            loss, logits = self._forward_loss(x, y)
            loss.backward()
        return float(loss.data), logits
