"""Autograd nodes per training step: the graph must not re-fragment.

A step's cost at the sizes this reproduction trains is set by per-node
Python work, so the number of ``Function.apply`` calls per optimizer
step is pinned exactly for HERO, first_order, GRAD-L1 and SGD on
resnet8 and MobileNetV2.  The count depends on the graph's structure
only — not on batch size, width or dtype — so small models stand in for
the training configs.

first_order is HERO at ``gamma = 0``: two forwards and two plain
backwards, with no ``create_graph`` pass and no penalty.  When HERO ran
its full step at ``gamma = 0`` too, that step built 372 nodes on resnet8
and 690 on MobileNetV2.

Before conv and BatchNorm became one node each (a conv was 10-13
primitive nodes, a training-mode BatchNorm 18), the same steps built:

=========== ===== ======= ===
model       HERO  GRAD-L1 SGD
=========== ===== ======= ===
resnet8     1,235     833 286
MobileNetV2 2,493   1,685 572
=========== ===== ======= ===
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.core import make_trainer
from repro.models import create_model
from repro.tensor.function import Function

#: Case name -> (method, trainer kwargs).
CASES = {
    "hero": ("hero", {"h": 0.01, "gamma": 0.05}),
    "hero_gamma0": ("hero", {"h": 0.01, "gamma": 0.0}),
    "first_order": ("first_order", {"h": 0.01}),
    "grad_l1": ("grad_l1", {"lambda_l1": 0.002}),
    "sgd": ("sgd", {}),
}

NODES_PER_STEP = {
    ("resnet8", "hero"): 372,
    ("resnet8", "hero_gamma0"): 90,
    ("resnet8", "first_order"): 90,
    ("resnet8", "grad_l1"): 211,
    ("resnet8", "sgd"): 45,
    ("mobilenetv2", "hero"): 690,
    ("mobilenetv2", "hero_gamma0"): 142,
    ("mobilenetv2", "first_order"): 142,
    ("mobilenetv2", "grad_l1"): 383,
    ("mobilenetv2", "sgd"): 71,
}


@pytest.mark.parametrize("model_name, case", sorted(NODES_PER_STEP))
def test_function_apply_count_per_step(model_name, case, monkeypatch):
    model = create_model(model_name, num_classes=10, scale=0.5, seed=0)
    opt = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
    method, kwargs = CASES[case]
    trainer = make_trainer(method, model, nn.CrossEntropyLoss(), opt, **kwargs)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 8, 8))
    y = rng.integers(0, 10, size=8)

    def step():
        trainer.training_step(x, y)
        opt.step()

    step()
    calls = []
    apply = Function.__dict__["apply"].__func__

    def counting_apply(cls, *tensors, **kwargs):
        calls.append(cls.__name__)
        return apply(cls, *tensors, **kwargs)

    monkeypatch.setattr(Function, "apply", classmethod(counting_apply))
    step()
    assert len(calls) == NODES_PER_STEP[model_name, case]
