"""Experiment configuration.

A :class:`TrainConfig` fully determines a training run (dataset, model,
method, hyperparameters, seed); its :meth:`cache_key` lets the runner
memoize trained models on disk so figure benches can reuse table runs.

Hyperparameters
---------------
The paper grid-searches the Hessian strength ``gamma`` per setting and
uses ``h`` of 0.5/1.0 at CIFAR/ImageNet scale.  At this reproduction's
CPU scale (models 100-1000x smaller, ~30 epochs) the same relative
perturbation is far too large — deep stacks of layer-adaptive probes
compound — so ``h``/``gamma``/``lambda_l1`` were re-gridded per
architecture following the paper's own protocol (grid search, keep the
best test accuracy).  The chosen values live in :data:`METHOD_HYPERS`
and the grid itself is regenerated by the ablation bench.

Validation
----------
A config is checked when it is built, so a bad sweep spec fails in the
process that loads it, before anything is enqueued.  Every field must
have its annotated type (a bool is not an int), ``method``/``penalty``
/``perturbation`` must name a registered choice, ``label_noise``
must lie in [0, 1) and ``train_size``/``test_size``, when given, must
be at least 1.  Failures raise the typed
:class:`repro.messages.FieldTypeError` naming the field.  An int given
for a float field is stored as a float, so ``lr: 1`` and ``lr: 1.0``
share one cache key.
"""

import hashlib
import json
from dataclasses import dataclass, asdict, replace
from dataclasses import fields as dataclasses_fields
from itertools import product

from ..core import PERTURBATIONS, available_methods
from ..core.hero import PENALTIES
from ..data.pipeline import resolve_spec
from ..messages import (
    FieldTypeError,
    UnknownFieldError,
    enum,
    is_bool,
    is_int,
    is_number,
    is_str,
    nullable,
)
from ..tensor import dtype_name


#: Per-architecture method hyperparameters (re-gridded; see module doc).
METHOD_HYPERS = {
    "resnet8": {"h": 0.01, "gamma": 0.1, "lambda_l1": 0.002},
    "resnet20": {"h": 0.005, "gamma": 0.05, "lambda_l1": 0.002},
    "resnet18": {"h": 0.005, "gamma": 0.02, "lambda_l1": 0.002},
    "mobilenetv2": {"h": 0.01, "gamma": 0.05, "lambda_l1": 0.002},
    "vgg8_bn": {"h": 0.005, "gamma": 0.02, "lambda_l1": 0.002},
    "vgg6_bn": {"h": 0.005, "gamma": 0.02, "lambda_l1": 0.002},
    "mlp": {"h": 0.002, "gamma": 0.02, "lambda_l1": 0.002},
}

#: Execution profiles.  ``smoke`` is for unit tests (seconds), ``fast``
#: for the benchmark suite (the default), ``full`` for longer runs.
PROFILES = {
    "smoke": {"epochs": 3, "train_size": 96, "test_size": 96, "scale_mult": 0.5},
    "fast": {"epochs": 30, "train_size": None, "test_size": None, "scale_mult": 1.0},
    "full": {"epochs": 60, "train_size": None, "test_size": None, "scale_mult": 1.0},
}

#: Paper-name -> (registry name, fast-profile width scale, epoch
#: multiplier).  The scaled widths keep every training run within a CPU
#: benchmark budget while preserving each family's architecture (see
#: DESIGN.md).  MobileNetV2's depthwise/BN-heavy stack converges slower
#: at this scale, so its rows train longer — equally for every method,
#: keeping the within-row comparison fair.
PAPER_MODELS = {
    "ResNet20": ("resnet20", 0.5, 1.0),
    "MobileNetV2": ("mobilenetv2", 0.5, 1.5),
    "VGG19BN": ("vgg8_bn", 1.0, 1.0),
    "ResNet18": ("resnet18", 0.35, 1.0),
    "ResNet20-fast": ("resnet8", 1.0, 1.0),
    "MobileNetV2-fast": ("mobilenetv2", 0.35, 1.5),
}


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to reproduce one training run."""

    dataset: str = "cifar10_like"
    model: str = "resnet8"
    method: str = "sgd"
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    model_scale: float = 1.0
    seed: int = 0
    augment: bool = False
    label_noise: float = 0.0
    train_size: int = None
    test_size: int = None
    # Method hyperparameters (ignored by methods that do not use them).
    h: float = 0.01
    gamma: float = 0.05
    penalty: str = "norm"
    perturbation: str = "layer_adaptive"
    lambda_l1: float = 0.002
    grad_clip: float = None
    # Engine precision for the run: "float32"/"float64", or None to
    # follow the ambient precision policy (REPRO_DTYPE / dtype_context).
    dtype: str = None

    def __post_init__(self):
        for field in dataclasses_fields(self):
            value = getattr(self, field.name)
            _FIELD_CHECKS[field.name].validate(value, f"TrainConfig.{field.name}")
            if field.type is float and isinstance(value, int):
                object.__setattr__(self, field.name, float(value))
        if not 0.0 <= self.label_noise < 1.0:
            raise FieldTypeError(
                f"TrainConfig.label_noise: must lie in [0, 1), got {self.label_noise!r}"
            )
        for name in ("train_size", "test_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise FieldTypeError(f"TrainConfig.{name}: must be at least 1, got {size!r}")

    def resolved_dtype(self):
        """The run's engine dtype name, resolving ``None`` to the policy."""
        return dtype_name(self.dtype)

    def cache_key(self):
        """Stable hash of the config for on-disk memoization.

        The key hashes the *resolved* dtype, so a float32 run and a
        float64 run of the same grid cell occupy distinct cache
        entries — no matter whether the precision came from the config
        field, ``REPRO_DTYPE`` or a ``dtype_context``.
        """
        payload = asdict(self)
        payload["dtype"] = self.resolved_dtype()
        return hashlib.md5(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs):
        """Functional update."""
        return replace(self, **kwargs)

    def to_dict(self):
        """Plain-dict form (JSON-safe; inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a config from :meth:`to_dict` output (e.g. a sweep spec).

        Unknown keys raise :class:`repro.messages.UnknownFieldError` so
        that a typo'd sweep spec fails loudly instead of silently
        training the default configuration; bad values fail the checks
        described in the module docstring.
        """
        if not isinstance(payload, dict):
            raise FieldTypeError(f"TrainConfig: expected an object, got {payload!r}")
        unknown = set(payload) - set(_FIELD_CHECKS)
        if unknown:
            raise UnknownFieldError(f"unknown TrainConfig fields: {sorted(unknown)}")
        return cls(**payload)


#: Names the enumerated fields accept.
_CHOICES = {
    "method": available_methods(),
    "penalty": PENALTIES,
    "perturbation": sorted(PERTURBATIONS),
}

_TYPE_CHECKS = {str: is_str, int: is_int, float: is_number, bool: is_bool}


def _field_check(field):
    """A field's check: its choices or its annotated type, nullable when
    the default is ``None``."""
    if field.name in _CHOICES:
        check = enum(*_CHOICES[field.name])
    else:
        check = _TYPE_CHECKS[field.type]
    return nullable(check) if field.default is None else check


_FIELD_CHECKS = {field.name: _field_check(field) for field in dataclasses_fields(TrainConfig)}


def make_config(paper_model, dataset, method, profile="fast", seed=0, **overrides):
    """Build a :class:`TrainConfig` from a paper-facing model name.

    Applies the profile's epochs/sizes, the model's fast-profile width
    scale and the per-architecture method hyperparameters.  An unknown
    model, dataset or profile name raises :class:`KeyError`.
    """
    if paper_model not in PAPER_MODELS:
        raise KeyError(f"unknown paper model {paper_model!r}; have {sorted(PAPER_MODELS)}")
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
    resolve_spec(dataset)
    registry_name, scale, epoch_mult = PAPER_MODELS[paper_model]
    prof = PROFILES[profile]
    hypers = METHOD_HYPERS.get(registry_name, METHOD_HYPERS["resnet8"])
    config = TrainConfig(
        dataset=dataset,
        model=registry_name,
        method=method,
        epochs=max(1, int(round(prof["epochs"] * epoch_mult))),
        model_scale=scale * prof["scale_mult"],
        train_size=prof["train_size"],
        test_size=prof["test_size"],
        seed=seed,
        h=hypers["h"],
        gamma=hypers["gamma"],
        lambda_l1=hypers["lambda_l1"],
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def make_grid(models, datasets, methods, seeds=(0,), profile="fast", **overrides):
    """Cross-product of paper models × datasets × methods × seeds.

    The workhorse behind sweep specs: returns one :func:`make_config`
    result per grid cell, in a deterministic (dataset-major) order.
    Extra keyword arguments are applied to every cell.
    """
    return [
        make_config(model, dataset, method, profile=profile, seed=seed, **overrides)
        for dataset, model, method, seed in product(datasets, models, methods, seeds)
    ]


def expand_grid(base, **axes):
    """Expand per-field value lists around a ``base`` config.

    ``expand_grid(cfg, gamma=[0.01, 0.1], seed=[0, 1])`` yields the
    four configs of the 2×2 grid, varying the named fields jointly via
    :meth:`TrainConfig.with_overrides`.  Axis order follows keyword
    order; values iterate odometer-style (last axis fastest).
    """
    if not axes:
        return [base]
    names = list(axes)
    return [
        base.with_overrides(**dict(zip(names, values)))
        for values in product(*(axes[name] for name in names))
    ]
