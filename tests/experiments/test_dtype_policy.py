"""Precision policy at the experiments layer: cache keys, runner, dataset loads."""

import numpy as np
import pytest

from repro.experiments import TrainConfig, load_experiment_data, run_training
from repro.experiments.sweep import run_sweep
from repro.tensor import dtype_context, dtype_name, set_default_dtype


@pytest.fixture(autouse=True)
def _float32_policy():
    previous = set_default_dtype("float32")
    yield
    set_default_dtype(previous)


def smoke_config(**overrides):
    return TrainConfig(
        dataset="cifar10_like",
        model="mlp",
        method="sgd",
        epochs=2,
        train_size=64,
        test_size=32,
        **overrides,
    )


class TestCacheKeys:
    def test_dtype_separates_cache_keys(self):
        base = smoke_config()
        assert (
            base.with_overrides(dtype="float32").cache_key()
            != base.with_overrides(dtype="float64").cache_key()
        )

    def test_none_dtype_resolves_against_policy(self):
        base = smoke_config()
        assert base.cache_key() == base.with_overrides(dtype="float32").cache_key()
        with dtype_context("float64"):
            assert base.cache_key() == base.with_overrides(dtype="float64").cache_key()

    def test_resolved_dtype(self):
        assert smoke_config().resolved_dtype() == "float32"
        assert smoke_config(dtype="float64").resolved_dtype() == "float64"
        with dtype_context("float64"):
            assert smoke_config().resolved_dtype() == "float64"


class TestRunnerDtype:
    def test_run_executes_in_config_dtype(self):
        for name, expected in (("float32", np.float32), ("float64", np.float64)):
            result = run_training(smoke_config(dtype=name), cache_dir=None)
            for param in result.model.parameters():
                assert param.dtype == expected

    def test_float32_float64_parity_small_mlp(self):
        """The headline guarantee: dropping to float32 changes speed,
        not the science — train/test accuracy stay close on a small MLP."""
        r32 = run_training(smoke_config(dtype="float32"), cache_dir=None)
        r64 = run_training(smoke_config(dtype="float64"), cache_dir=None)
        assert abs(r32.train_acc - r64.train_acc) <= 0.1
        assert abs(r32.test_acc - r64.test_acc) <= 0.15
        losses32 = r32.history["train_loss"]
        losses64 = r64.history["train_loss"]
        assert np.allclose(losses32, losses64, rtol=0.05, atol=0.05)

    def test_cache_roundtrip_per_dtype(self, tmp_path):
        cache = str(tmp_path / "runs")
        first = run_training(smoke_config(dtype="float64"), cache_dir=cache)
        again = run_training(smoke_config(dtype="float64"), cache_dir=cache)
        assert not first.from_cache and again.from_cache
        # The float32 twin does not collide with the float64 entry.
        other = run_training(smoke_config(dtype="float32"), cache_dir=cache)
        assert not other.from_cache


class TestDatasetMemo:
    """Every ``load_experiment_data`` call loads afresh from the dataset
    cache: the arrays follow the config's dtype, and label noise
    changes only the targets."""

    def test_memo_is_dtype_keyed(self, tmp_run_cache):
        c = smoke_config()
        train32, _, _ = load_experiment_data(c, tmp_run_cache)
        with dtype_context("float64"):
            train64, _, _ = load_experiment_data(c, tmp_run_cache)
        assert train32.inputs.dtype == np.float32
        assert train64.inputs.dtype == np.float64

    def test_explicit_config_dtype_wins_over_ambient_policy(self, tmp_run_cache):
        # Regression: a driver evaluating a dtype='float64' run from a
        # float32 process must get the same arrays the run trained on.
        train64, test64, _ = load_experiment_data(smoke_config(dtype="float64"), tmp_run_cache)
        assert train64.inputs.dtype == np.float64
        assert test64.inputs.dtype == np.float64
        # ...the same arrays an in-context load gets.
        with dtype_context("float64"):
            train_ctx, _, _ = load_experiment_data(smoke_config(), tmp_run_cache)
        assert np.array_equal(train_ctx.inputs, train64.inputs)

    def test_label_noise_stays_outside_memo(self, tmp_run_cache):
        train_clean, _, _ = load_experiment_data(smoke_config(), tmp_run_cache)
        train_noisy, _, _ = load_experiment_data(smoke_config(label_noise=0.5), tmp_run_cache)
        assert np.array_equal(train_noisy.inputs, train_clean.inputs)
        assert not np.array_equal(train_noisy.targets, train_clean.targets)


class TestSweepDtype:
    def test_sweep_pins_ambient_dtype_onto_configs(self, tmp_path):
        report = run_sweep(
            [smoke_config()], workers=1, cache_dir=str(tmp_path / "runs")
        )
        assert report.records[0].config.dtype == dtype_name(None) == "float32"

    def test_sweep_respects_explicit_dtype(self, tmp_path):
        report = run_sweep(
            [smoke_config(dtype="float64")],
            workers=1,
            cache_dir=str(tmp_path / "runs"),
        )
        assert report.records[0].config.dtype == "float64"
        assert report.records[0].ok
