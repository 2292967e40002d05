"""Evaluating at shifted weights hands every weight back bitwise.

HERO and first_order take the gradient at ``W* = W + h z`` and apply
the update to ``W``; the ``||Hz||`` probe and finite-difference HVPs
measure a model without changing it; QAT runs its straight-through
pass at the quantized weights.  Shifting back by subtraction does
not return ``W`` in floating point (``(w + o) - o != w``), so each of
these runs inside :func:`repro.core.perturbation.at_weights`, which
puts each parameter's own array back.  float32 models and a large step
(``h = 0.5``) make any drift show: subtracting the offset back changed
1,220 of resnet8's 5,214 weights per step.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.core import make_trainer
from repro.hessian import hvp_finite_diff, hz_norm_on_batch
from repro.models import create_model
from repro.tensor import dtype_context

#: Case name -> (method, trainer kwargs): every step that shifts weights.
CASES = {
    "hero": ("hero", {"h": 0.5, "gamma": 0.05}),
    "hero-global": ("hero", {"h": 0.5, "gamma": 0.05, "perturbation": "global"}),
    "hero-exact_hvp": ("hero", {"h": 0.5, "gamma": 0.05, "regularizer": "exact_hvp"}),
    "first_order": ("first_order", {"h": 0.5}),
    "first_order-global": ("first_order", {"h": 0.5, "perturbation": "global"}),
    "qat": ("qat", {"bits": 4}),
}

MODELS = ("resnet8", "mobilenetv2")


@pytest.fixture
def float32():
    with dtype_context("float32"):
        yield


def make_setup(model_name):
    model = create_model(model_name, num_classes=10, scale=0.5, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 8, 8))
    y = rng.integers(0, 10, size=8)
    return model, x, y


def changed_weights(params, before):
    assert all(p.data.dtype == b.dtype for p, b in zip(params, before))
    return sum(int((p.data != b).sum()) for p, b in zip(params, before))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("model_name", MODELS)
def test_training_step_restores_every_weight(model_name, case, float32):
    model, x, y = make_setup(model_name)
    method, kwargs = CASES[case]
    opt = optim.SGD(model.parameters(), lr=0.05)
    trainer = make_trainer(method, model, nn.CrossEntropyLoss(), opt, **kwargs)
    before = [p.data.copy() for p in trainer.params]
    trainer.training_step(x, y)
    assert changed_weights(trainer.params, before) == 0


@pytest.mark.parametrize("model_name", MODELS)
def test_measuring_leaves_the_model_unchanged(model_name, float32):
    model, x, y = make_setup(model_name)
    loss_fn = nn.CrossEntropyLoss()
    params = list(model.parameters())
    before = [p.data.copy() for p in params]
    hz_norm_on_batch(model, loss_fn, x, y, h=0.5)
    assert changed_weights(params, before) == 0
    rng = np.random.default_rng(1)
    hvp_finite_diff(model, loss_fn, x, y, [rng.standard_normal(p.shape) for p in params])
    assert changed_weights(params, before) == 0
