"""Experiment config and runner: determinism, caching, label noise."""

import numpy as np
import pytest

from repro.experiments import (
    METHOD_HYPERS,
    PAPER_MODELS,
    TrainConfig,
    evaluate_accuracy,
    load_experiment_data,
    make_config,
    run_training,
)


class TestConfig:
    def test_cache_key_stable(self):
        c1 = TrainConfig(dataset="cifar10_like", model="resnet8", method="hero")
        c2 = TrainConfig(dataset="cifar10_like", model="resnet8", method="hero")
        assert c1.cache_key() == c2.cache_key()

    def test_cache_key_sensitive_to_fields(self):
        base = TrainConfig()
        assert base.cache_key() != base.with_overrides(gamma=0.123).cache_key()
        assert base.cache_key() != base.with_overrides(seed=99).cache_key()

    def test_make_config_applies_hypers(self):
        config = make_config("MobileNetV2", "cifar10_like", "hero", profile="fast")
        assert config.model == "mobilenetv2"
        assert config.h == METHOD_HYPERS["mobilenetv2"]["h"]
        assert config.gamma == METHOD_HYPERS["mobilenetv2"]["gamma"]

    def test_make_config_profile_sizes(self):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke")
        assert config.epochs == 3
        assert config.train_size == 96

    def test_make_config_overrides(self):
        config = make_config(
            "ResNet20-fast", "cifar10_like", "sgd", profile="smoke", label_noise=0.4
        )
        assert config.label_noise == 0.4

    def test_int_for_float_field_shares_cache_key(self):
        one = TrainConfig.from_dict(dict(TrainConfig().to_dict(), lr=1))
        assert one.lr == 1.0 and isinstance(one.lr, float)
        assert one.cache_key() == TrainConfig(lr=1.0).cache_key()
        assert one.to_dict() == TrainConfig(lr=1.0).to_dict()

    def test_unknown_model_or_profile(self):
        with pytest.raises(KeyError):
            make_config("AlexNet", "cifar10_like", "sgd")
        with pytest.raises(KeyError):
            make_config("ResNet20", "cifar10_like", "sgd", profile="turbo")

    def test_paper_models_mapping_complete(self):
        for name in ("ResNet20", "MobileNetV2", "VGG19BN", "ResNet18"):
            assert name in PAPER_MODELS


class TestDataLoading:
    def test_label_noise_applied(self, tmp_run_cache):
        clean = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke")
        noisy = clean.with_overrides(label_noise=0.5)
        train_c, _t, _s = load_experiment_data(clean, tmp_run_cache)
        train_n, _t, _s = load_experiment_data(noisy, tmp_run_cache)
        assert not np.all(train_c.targets == train_n.targets)
        assert np.allclose(train_c.inputs, train_n.inputs)

    def test_data_deterministic_per_config(self, tmp_run_cache):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke")
        t1, _e1, _s1 = load_experiment_data(config, tmp_run_cache)
        t2, _e2, _s2 = load_experiment_data(config, tmp_run_cache)
        assert np.allclose(t1.inputs, t2.inputs)


class TestRunner:
    def test_run_deterministic(self, tmp_path):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=2)
        r1 = run_training(config, cache_dir=None)
        r2 = run_training(config, cache_dir=None)
        assert r1.test_acc == r2.test_acc
        s1, s2 = r1.model.state_dict(), r2.model.state_dict()
        for key in s1:
            assert np.allclose(s1[key], s2[key])

    def test_cache_roundtrip(self, tmp_path):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=2)
        fresh = run_training(config, cache_dir=str(tmp_path))
        cached = run_training(config, cache_dir=str(tmp_path))
        assert not fresh.from_cache
        assert cached.from_cache
        assert np.isclose(cached.test_acc, fresh.test_acc)
        s1, s2 = fresh.model.state_dict(), cached.model.state_dict()
        for key in s1:
            assert np.allclose(s1[key], s2[key]), key
        # history survives the roundtrip
        assert len(cached.history) == len(fresh.history)

    def test_force_retrains(self, tmp_path):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=1)
        run_training(config, cache_dir=str(tmp_path))
        forced = run_training(config, cache_dir=str(tmp_path), force=True)
        assert not forced.from_cache

    def test_uncached_run_generates_in_ram(self, tmp_path, monkeypatch):
        """``cache_dir=None`` writes no dataset into the default run cache."""
        default = tmp_path / "default"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=1)
        run_training(config, cache_dir=None)
        assert not (default / "datasets").exists()

    def test_generalization_gap_property(self):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=1)
        result = run_training(config, cache_dir=None)
        assert np.isclose(result.generalization_gap, result.train_acc - result.test_acc)

    def test_cure_trainer_gets_the_config_hyperparameters(self):
        from repro.experiments.runner import build_model, build_trainer

        config = make_config(
            "ResNet20-fast", "cifar10_like", "cure", profile="smoke",
            gamma=0.5, h=0.3, penalty="sq_norm",
        )
        _train, _test, spec = load_experiment_data(config, None)
        trainer = build_trainer(config, build_model(config, spec))
        assert (trainer.h, trainer.gamma, trainer.penalty) == (0.3, 0.5, "sq_norm")

    def test_cure_configs_train_different_weights(self):
        strong, weak = (
            make_config(
                "ResNet20-fast", "cifar10_like", "cure", profile="smoke", gamma=gamma, h=h
            )
            for gamma, h in ((0.5, 0.3), (0.01, 0.001))
        )
        s1 = run_training(strong, cache_dir=None).model.state_dict()
        s2 = run_training(weak, cache_dir=None).model.state_dict()
        assert any(not np.array_equal(s1[key], s2[key]) for key in s1)

    def test_evaluate_accuracy_range(self):
        config = make_config("ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=1)
        result = run_training(config, cache_dir=None)
        _train, test, _spec = load_experiment_data(config, None)
        acc = evaluate_accuracy(result.model, test)
        assert 0.0 <= acc <= 1.0
