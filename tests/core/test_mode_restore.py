"""Measuring a model hands back the caller's train/eval mode.

Every helper that evaluates in eval mode runs inside
:func:`repro.nn.eval_mode`, which puts each module's ``training`` flag
back, error or not: a training loop that probes its model goes on
training with batch statistics, and an eval-mode model stays in eval
mode.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.attacks import input_gradient, robust_accuracy
from repro.core import make_trainer
from repro.data import ArrayDataset
from repro.experiments import evaluate_accuracy
from repro.hessian import empirical_loss_increase
from repro.landscape import interpolation_path, loss_line, loss_surface
from repro.models import create_model
from repro.tensor import dtype_context


def directions(model, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(p.shape) for p in model.parameters()]


#: Helper name -> call on ``(model, loss_fn, x, y)``.
HELPERS = {
    "loss_surface": lambda model, loss_fn, x, y: loss_surface(
        model, loss_fn, [(x, y)], directions(model, 1), directions(model, 2), steps=(2, 2)
    ),
    "loss_line": lambda model, loss_fn, x, y: loss_line(
        model, loss_fn, [(x, y)], directions(model, 1), steps=2
    ),
    "interpolation_path": lambda model, loss_fn, x, y: interpolation_path(
        model, model.state_dict(), model.state_dict(), loss_fn, [(x, y)], steps=2
    ),
    "evaluate_accuracy": lambda model, loss_fn, x, y: evaluate_accuracy(
        model, ArrayDataset(x, y)
    ),
    "empirical_loss_increase": lambda model, loss_fn, x, y: empirical_loss_increase(
        model, loss_fn, x, y, radius=0.01, samples=2
    ),
    "robust_accuracy": lambda model, loss_fn, x, y: robust_accuracy(
        model, loss_fn, x, y, epsilon=0.01, attack="fgsm"
    ),
    "input_gradient": lambda model, loss_fn, x, y: input_gradient(model, loss_fn, x, y),
    "Trainer.evaluate": lambda model, loss_fn, x, y: make_trainer(
        "sgd", model, loss_fn, optim.SGD(model.parameters(), lr=0.1)
    ).evaluate([(x, y)]),
}


@pytest.fixture
def setup():
    with dtype_context("float32"):
        model = create_model("resnet8", num_classes=10, scale=0.5, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3, 8, 8))
        y = rng.integers(0, 10, size=8)
        yield model, x, y


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("helper", sorted(HELPERS))
def test_helper_restores_the_callers_mode(helper, training, setup):
    model, x, y = setup
    model.train(training)
    HELPERS[helper](model, nn.CrossEntropyLoss(), x, y)
    assert {m.training for m in model.modules()} == {training}


def test_eval_mode_restores_each_module_on_error(setup):
    model, _x, _y = setup
    next(m for m in model.modules() if isinstance(m, nn.BatchNorm2d)).eval()
    before = [m.training for m in model.modules()]
    with pytest.raises(RuntimeError):
        with nn.eval_mode(model):
            assert not any(m.training for m in model.modules())
            raise RuntimeError("mid-measurement failure")
    assert [m.training for m in model.modules()] == before
