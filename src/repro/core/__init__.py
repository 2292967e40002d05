"""``repro.core`` — HERO and the baselines it is compared against.

The paper's four training methods share one :class:`Trainer` loop:

========================  =====================================
``"sgd"``                 :class:`ERMTrainer` (plain SGD)
``"grad_l1"``             :class:`GradL1Trainer` (Alizadeh [1])
``"first_order"``         :class:`SAMTrainer` (HERO at gamma = 0, Table 3 ablation)
``"hero"``                :class:`HEROTrainer` (Algorithm 1)
========================  =====================================

Use :func:`make_trainer` to build any of them from a method name.
"""

from .trainer import Trainer, Callback
from .erm import ERMTrainer
from .sam import SAMTrainer
from .gradl1 import GradL1Trainer
from .hero import HEROTrainer
from .cure import CURETrainer
from .qat import QATTrainer
from .metrics import accuracy, correct_count, AverageMeter, History
from .early_stopping import EarlyStopping
from .callbacks import (
    HessianNormCallback,
    GeneralizationGapCallback,
    CheckpointCallback,
    LambdaCallback,
)
from .perturbation import (
    layer_adaptive_perturbation,
    global_perturbation,
    at_weights,
    PERTURBATIONS,
)

_TRAINERS = {
    "sgd": ERMTrainer,
    "grad_l1": GradL1Trainer,
    "first_order": SAMTrainer,
    "hero": HEROTrainer,
    "cure": CURETrainer,
    "qat": QATTrainer,
}


def available_methods():
    """Sorted list of trainer method names."""
    return sorted(_TRAINERS)


def make_trainer(method, model, loss_fn, optimizer, scheduler=None, callbacks=(), **kwargs):
    """Build the trainer for ``method`` with method-specific ``kwargs``.

    ``hero`` accepts ``h``, ``gamma``, ``penalty``, ``perturbation``;
    ``first_order`` accepts ``h``, ``perturbation``; ``grad_l1``
    accepts ``lambda_l1``; ``sgd`` accepts none.
    """
    if method not in _TRAINERS:
        raise KeyError(f"unknown method {method!r}; available: {available_methods()}")
    cls = _TRAINERS[method]
    return cls(model, loss_fn, optimizer, scheduler=scheduler, callbacks=callbacks, **kwargs)


__all__ = [
    "Trainer",
    "Callback",
    "ERMTrainer",
    "SAMTrainer",
    "GradL1Trainer",
    "HEROTrainer",
    "CURETrainer",
    "QATTrainer",
    "accuracy",
    "correct_count",
    "AverageMeter",
    "History",
    "HessianNormCallback",
    "GeneralizationGapCallback",
    "CheckpointCallback",
    "LambdaCallback",
    "EarlyStopping",
    "layer_adaptive_perturbation",
    "global_perturbation",
    "at_weights",
    "PERTURBATIONS",
    "available_methods",
    "make_trainer",
]
