"""grad_clip plumbing through trainers and the experiment config."""

import numpy as np
import pytest

from repro import nn, optim
from repro.core import make_trainer
from repro.data import DataLoader, gaussian_blobs
from repro.experiments import make_config
from repro.experiments.runner import build_model, build_trainer, load_experiment_data
from repro.models import MLP


class TestTrainerGradClip:
    def test_clip_applied_in_fit(self):
        ds = gaussian_blobs(n=60, num_classes=3, spread=2.5, noise=0.4, seed=0)
        model = MLP(2, hidden=(8,), num_classes=3, rng=np.random.default_rng(0))
        opt = optim.SGD(model.parameters(), lr=0.2)
        trainer = make_trainer(
            "sgd", model, nn.CrossEntropyLoss(), opt, grad_clip=1e-6
        )
        trainer.fit(DataLoader(ds, batch_size=30, seed=0), epochs=1)
        total = np.sqrt(sum(np.sum(p.grad.data ** 2) for p in trainer.params))
        assert total <= 1e-6 + 1e-12

    def test_invalid_grad_clip(self):
        model = MLP(2, hidden=(4,), num_classes=2)
        opt = optim.SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            make_trainer("sgd", model, nn.CrossEntropyLoss(), opt, grad_clip=0.0)

    @pytest.mark.parametrize("method,kw", [
        ("hero", {"h": 0.01, "gamma": 0.05}),
        ("first_order", {"h": 0.01}),
        ("grad_l1", {"lambda_l1": 0.001}),
    ])
    def test_all_methods_accept_grad_clip(self, method, kw):
        model = MLP(2, hidden=(4,), num_classes=2, rng=np.random.default_rng(0))
        opt = optim.SGD(model.parameters(), lr=0.1)
        trainer = make_trainer(
            method, model, nn.CrossEntropyLoss(), opt, grad_clip=5.0, **kw
        )
        assert trainer.grad_clip == 5.0


class TestConfigGradClip:
    def test_config_field_reaches_trainer(self):
        config = make_config(
            "ResNet20-fast", "cifar10_like", "hero", profile="smoke", grad_clip=2.5
        )
        _train, _test, spec = load_experiment_data(config, None)
        model = build_model(config, spec)
        trainer = build_trainer(config, model)
        assert trainer.grad_clip == 2.5

    def test_default_is_none(self):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke")
        _train, _test, spec = load_experiment_data(config, None)
        trainer = build_trainer(config, build_model(config, spec))
        assert trainer.grad_clip is None

    def test_cache_key_includes_grad_clip(self):
        a = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke")
        b = a.with_overrides(grad_clip=1.0)
        assert a.cache_key() != b.cache_key()
