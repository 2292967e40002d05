"""Smoke tests of every table/figure module at the smoke profile.

These validate structure, formatting and check-function plumbing; the
paper-shape orderings themselves are exercised by the benchmark suite
at the fast profile (see benchmarks/).
"""

import numpy as np
import pytest

import repro.experiments as ex


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("runs"))


class TestTable1:
    @pytest.mark.slow
    def test_structure_and_format(self, cache_dir):
        result = ex.run_table1(
            profile="smoke",
            cache_dir=cache_dir,
            rows=[("cifar10_like", "ResNet20-fast")],
        )
        assert len(result["rows"]) == 1
        row = result["rows"][0]
        for method in ("hero", "grad_l1", "sgd"):
            assert 0.0 <= row[method] <= 1.0
        text = ex.format_table1(result)
        assert "HERO" in text and "SGD" in text
        assert isinstance(ex.check_table1(result), list)


class TestTable2:
    @pytest.mark.slow
    def test_structure(self, cache_dir):
        result = ex.run_table2(
            profile="smoke",
            cache_dir=cache_dir,
            models=("ResNet20-fast",),
            noise_ratios=(0.4,),
        )
        rows = result["panels"]["ResNet20-fast"]
        assert rows[0]["noise_ratio"] == 0.4
        text = ex.format_table2(result)
        assert "40%" in text
        assert isinstance(ex.check_table2(result), list)


class TestTable3:
    def test_structure(self, cache_dir):
        result = ex.run_table3(profile="smoke", cache_dir=cache_dir, model="ResNet20-fast")
        methods = [row["method"] for row in result["rows"]]
        assert methods == ["hero", "first_order", "sgd"]
        for row in result["rows"]:
            assert set(row) >= {"method", "full", "q4", "q6", "q8"}
        text = ex.format_table3(result)
        assert "First-order only" in text

    def test_analysis_reads_the_drivers_dataset_cache(self, cache_dir, tmp_path, monkeypatch):
        """The PTQ pass loads its data from the run cache the driver was
        given, not from a second entry in the default run cache."""
        import os

        default = tmp_path / "default"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        ex.run_table3(profile="smoke", cache_dir=cache_dir, model="ResNet20-fast", workers=1)
        assert not (default / "datasets").exists()
        assert os.listdir(os.path.join(cache_dir, "datasets"))


class TestFig1:
    def test_structure(self, cache_dir):
        result = ex.run_fig1(
            profile="smoke",
            cache_dir=cache_dir,
            panels=[("a", "cifar10_like", "ResNet20-fast")],
            bits=(4, 8),
        )
        panel = result["panels"]["a"]
        assert panel["curves"]["hero"]["bits"] == [4, 8]
        assert len(panel["curves"]["sgd"]["accuracy"]) == 2
        text = ex.format_fig1(result)
        assert "Figure 1(a)" in text
        assert isinstance(ex.check_fig1(result), list)

    def test_schemes_structure(self, cache_dir):
        result = ex.run_fig1_schemes(
            profile="smoke", cache_dir=cache_dir, model="ResNet20-fast", bits=4
        )
        assert len(result["rows"]) == 4
        schemes = {row["scheme"] for row in result["rows"]}
        assert "symmetric/per-tensor" in schemes
        text = ex.format_fig1_schemes(result)
        assert "scheme robustness" in text
        assert isinstance(ex.check_fig1_schemes(result), list)

    def test_reuses_cache(self, cache_dir):
        # models were trained by previous test; fig1 again must be fast
        import time

        start = time.time()
        ex.run_fig1(
            profile="smoke",
            cache_dir=cache_dir,
            panels=[("a", "cifar10_like", "ResNet20-fast")],
            bits=(4,),
        )
        assert time.time() - start < 30


class TestFig2:
    def test_structure(self, cache_dir):
        result = ex.run_fig2(profile="smoke", cache_dir=cache_dir, max_batches=1)
        for method in ("hero", "grad_l1", "sgd"):
            series = result["series"][method]
            values = [v for v in series["hessian_norm"] if v is not None]
            assert values and all(v >= 0 for v in values)
            gaps = [v for v in series["generalization_gap"] if v is not None]
            assert gaps
        text = ex.format_fig2(result)
        assert "||Hz||" in text
        assert isinstance(ex.check_fig2(result), list)

    def test_probe_reads_the_given_run_cache(self, tmp_path, monkeypatch):
        """The ``||Hz||`` probe loads its data from the run cache
        ``run_fig2`` was given, not from a second entry in the default
        run cache."""
        import os

        default = tmp_path / "default"
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        ex.run_fig2(profile="smoke", cache_dir=str(runs), max_batches=1, workers=1)
        assert not (default / "datasets").exists()
        assert os.listdir(runs / "datasets")

    @pytest.mark.parametrize("method", ["sgd", "hero"])
    def test_probe_does_not_change_training(self, method):
        """Measuring ``||Hz||`` each epoch leaves the trained weights
        exactly as a run without the probe trains them."""
        from repro.experiments.fig2 import fig2_callbacks
        from repro.experiments.runner import run_training

        config = ex.make_config("ResNet20-fast", "cifar10_like", method, profile="smoke", seed=0)
        plain = run_training(config, cache_dir=None).model.state_dict()
        probed = run_training(
            config, callbacks=fig2_callbacks(config, cache_dir=None), cache_dir=None
        ).model.state_dict()
        assert plain.keys() == probed.keys()
        for name in plain:
            assert np.array_equal(plain[name], probed[name]), name


class TestFig3:
    def test_structure(self, cache_dir):
        result = ex.run_fig3(profile="smoke", cache_dir=cache_dir, steps=3, max_batches=1)
        for method in ("hero", "sgd"):
            entry = result["surfaces"][method]
            assert entry["surface"]["loss"].shape == (3, 3)
            assert 0.0 <= entry["flat_area"] <= 1.0
        text = ex.format_fig3(result)
        assert "flat area" in text
        assert isinstance(ex.check_fig3(result), list)


class TestAblations:
    def test_perturbation_ablation(self, cache_dir):
        result = ex.run_perturbation_ablation(profile="smoke", cache_dir=cache_dir)
        variants = [row["variant"] for row in result["rows"]]
        assert variants == ["layer_adaptive", "global"]
        assert "Ablation" in ex.format_ablation(result)

    def test_gamma_grid(self, cache_dir):
        result = ex.run_gamma_grid(profile="smoke", cache_dir=cache_dir, gammas=(0.01, 0.1))
        assert len(result["rows"]) == 2

    def test_regularizer_reads_its_finite_diff_arm_from_cache(self, cache_dir, monkeypatch):
        """The finite_diff arm is the base config: with it cached, only
        exact_hvp trains, and its row is the layer-adaptive row."""
        from repro.core import Trainer

        perturbation = ex.run_perturbation_ablation(profile="smoke", cache_dir=cache_dir)
        fits = []
        real_fit = Trainer.fit

        def counting_fit(trainer, *args, **kwargs):
            fits.append(trainer.regularizer)
            return real_fit(trainer, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", counting_fit)
        result = ex.run_regularizer_ablation(profile="smoke", cache_dir=cache_dir)
        assert fits == ["exact_hvp"]
        finite_diff, exact_hvp = result["rows"]
        assert finite_diff["variant"] == "finite_diff" and exact_hvp["variant"] == "exact_hvp"
        (layer_adaptive,) = [r for r in perturbation["rows"] if r["variant"] == "layer_adaptive"]
        assert dict(finite_diff, variant="layer_adaptive") == layer_adaptive

    def test_inline_arm_trains_like_the_cached_run(self, cache_dir):
        """exact_hvp's inline loop, run with finite_diff, reproduces the
        cached base run bit for bit — so the two arms are like for like."""
        import numpy as np

        from repro.experiments.ablations import _train_with_regularizer

        config = ex.make_config("ResNet20-fast", "cifar10_like", "hero", profile="smoke")
        cached = ex.run_training(config, cache_dir=cache_dir)
        inline = _train_with_regularizer(config, "finite_diff", cache_dir)
        assert (inline.train_acc, inline.test_acc) == (cached.train_acc, cached.test_acc)
        expected = cached.model.state_dict()
        actual = inline.model.state_dict()
        assert list(actual) == list(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(actual[name], value, err_msg=name)


class TestQATMotivation:
    def test_structure(self, cache_dir):
        result = ex.run_qat_motivation(
            profile="smoke", cache_dir=cache_dir, bits=(4, 8), qat_bits=4
        )
        assert set(result["curves"]) == {"hero", "sgd", "qat@4bit"}
        for curve in result["curves"].values():
            assert len(curve["accuracy"]) == 2
        text = ex.format_qat_motivation(result)
        assert "QAT motivation" in text
        assert isinstance(ex.check_qat_motivation(result), list)


class TestReporting:
    def test_format_table_percent_rendering(self):
        text = ex.format_table(["a", "b"], [["x", 0.5], ["y", 1.5]])
        assert "50.00%" in text
        assert "1.5" in text

    def test_save_json(self, tmp_path):
        import json

        path = ex.save_json({"x": [1, 2]}, str(tmp_path / "out.json"))
        with open(path) as fh:
            assert json.load(fh) == {"x": [1, 2]}
