"""Shared training loop.

All four methods in the paper (SGD, GRAD-L1, first-order-only/SAM,
HERO) are :class:`Trainer` subclasses that differ only in
:meth:`Trainer.training_step` — the code that turns a mini-batch into
parameter gradients.  The outer loop (epochs, cosine LR schedule,
metric logging, callbacks) is identical across methods, mirroring the
paper's "same training procedure" protocol.
"""

import numpy as np

from ..nn import eval_mode
from ..tensor import Tensor, no_grad
from .metrics import AverageMeter, History, correct_count


class Callback:
    """Hook interface for the training loop."""

    def on_train_begin(self, trainer):
        pass

    def on_epoch_end(self, trainer, epoch, logs):
        """``logs`` is the dict for this epoch; mutate it to add metrics."""

    def on_step_end(self, trainer, step):
        """Called after every optimizer step (``step`` counts from 0).

        The only hook inside the batch loop, so it is where anything
        that must outlive a *single long epoch* plugs in — the sweep
        fleet's lease-renewal heartbeat
        (:class:`repro.experiments.scheduler.StepLeaseRenewal`) renews
        here so a ``full``-profile run survives a lease timeout shorter
        than one epoch.  Implementations must be cheap (they run once
        per batch) and must not mutate model or optimizer state.
        """

    def on_train_end(self, trainer):
        pass


class Trainer:
    """Base trainer: epochs of mini-batch updates plus evaluation.

    Parameters
    ----------
    model:
        A :class:`repro.nn.Module` classifier.
    loss_fn:
        Callable ``(logits, targets) -> scalar Tensor``.
    optimizer:
        A :class:`repro.optim.Optimizer` over ``model.parameters()``.
    scheduler:
        Optional LR scheduler stepped once per epoch.
    callbacks:
        Iterable of :class:`Callback`.
    grad_clip:
        Optional global-l2-norm gradient clip applied to whatever
        gradient the method produced (HERO's Eq. 17 gradient can spike
        early in training when the Hessian penalty is large).
    """

    method_name = "base"

    def __init__(self, model, loss_fn, optimizer, scheduler=None, callbacks=(), grad_clip=None):
        if grad_clip is not None and grad_clip <= 0:
            raise ValueError(f"grad_clip must be positive, got {grad_clip}")
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.callbacks = list(callbacks)
        self.grad_clip = grad_clip
        self.params = [p for p in model.parameters()]
        self.history = History()
        self.stop_requested = False
        self.global_step = 0  #: optimizer steps taken across all epochs

    # ------------------------------------------------------------------
    def training_step(self, x, y):
        """Compute gradients for one batch; return ``(loss, logits)``.

        Subclasses must leave the final gradient in each parameter's
        ``.grad``; the loop then calls ``optimizer.step()``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def fit(self, train_loader, epochs, test_loader=None, verbose=False):
        """Train for ``epochs`` epochs; returns the :class:`History`."""
        for callback in self.callbacks:
            callback.on_train_begin(self)
        for epoch in range(epochs):
            if self.stop_requested:
                break
            logs = self.run_epoch(train_loader, epoch)
            if test_loader is not None:
                test_loss, test_acc = self.evaluate(test_loader)
                logs["test_loss"] = test_loss
                logs["test_acc"] = test_acc
            if self.scheduler is not None:
                self.scheduler.step()
            for callback in self.callbacks:
                callback.on_epoch_end(self, epoch, logs)
            self.history.log(**logs)
            if verbose:
                summary = ", ".join(
                    f"{k}={v:.4f}" for k, v in logs.items() if isinstance(v, float)
                )
                print(f"[{self.method_name}] epoch {epoch + 1}/{epochs}: {summary}")
        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history

    def run_epoch(self, train_loader, epoch):
        """One pass over the training loader; returns the epoch's logs.

        Metric accumulation happens in :class:`AverageMeter`'s Python
        floats (i.e. float64) regardless of the engine precision
        policy, so logged losses/accuracies do not drift when training
        runs in float32.
        """
        self.model.train()
        loss_meter = AverageMeter()
        acc_meter = AverageMeter()
        for x, y in train_loader:
            loss_value, logits = self.training_step(x, y)
            if self.grad_clip is not None:
                from ..optim import clip_grad_norm_

                clip_grad_norm_(self.params, self.grad_clip)
            self.optimizer.step()
            for callback in self.callbacks:
                callback.on_step_end(self, self.global_step)
            self.global_step += 1
            batch = len(y)
            loss_meter.update(loss_value, batch)
            acc_meter.update(correct_count(logits, y) / batch, batch)
            if self.stop_requested:
                # A step callback may abandon the run mid-epoch (e.g. a
                # fleet worker whose lease was stolen — its result will
                # be discarded, so finishing the epoch is pure waste).
                break
        return {
            "epoch": epoch,
            "lr": self.optimizer.lr,
            "train_loss": loss_meter.average,
            "train_acc": acc_meter.average,
        }

    def evaluate(self, loader):
        """Mean loss and accuracy over ``loader`` in eval mode."""
        loss_meter = AverageMeter()
        acc_meter = AverageMeter()
        with eval_mode(self.model), no_grad():
            for x, y in loader:
                logits = self.model(Tensor(x))
                loss = self.loss_fn(logits, y)
                batch = len(y)
                loss_meter.update(float(loss.data), batch)
                acc_meter.update(correct_count(logits, y) / batch, batch)
        return loss_meter.average, acc_meter.average

    # ------------------------------------------------------------------
    # Gradient plumbing shared by subclasses
    # ------------------------------------------------------------------
    def _forward_loss(self, x, y):
        logits = self.model(Tensor(x))
        return self.loss_fn(logits, y), logits

    def _collect_grads(self, detach=True):
        """Grab per-parameter gradients (optionally as raw numpy copies)."""
        grads = []
        for param in self.params:
            if param.grad is None:
                grads.append(
                    np.zeros_like(param.data) if detach else Tensor(np.zeros_like(param.data))
                )
            else:
                grads.append(param.grad.data.copy() if detach else param.grad)
        return grads

    def _clear_grads(self):
        for param in self.params:
            param.grad = None

    def _set_grads(self, arrays):
        for param, grad in zip(self.params, arrays):
            param.grad = Tensor(np.asarray(grad))
