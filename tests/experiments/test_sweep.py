"""Sweep engine: parallel/serial equivalence, cache safety, crashes.

The multiprocessing tests use the ``fork`` start method where a
test-local function must cross the process boundary (picklable by
inheritance); the engine's own default stays ``spawn``.
"""

import glob
import io
import json
import os
from multiprocessing import get_context

import numpy as np
import pytest

from repro.experiments import (
    make_grid,
    resolve_workers,
    run_sweep,
    run_table3,
    run_training,
    format_sweep,
    train_runs,
)
from repro.experiments.cli import build_parser, run_sweep_command
from repro.experiments.runner import _cache_complete, default_cache_dir
from repro.io import file_lock


class TestWorkersResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_var_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestCacheDirResolution:
    def test_env_var_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == str(tmp_path / "elsewhere")

    def test_default_is_absolute(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = default_cache_dir()
        assert os.path.isabs(path)
        assert path.endswith(os.path.join(".cache", "runs"))


class TestSerialParallelEquivalence:
    def test_bit_identical_results(self, tmp_path, tiny_grid):
        configs = tiny_grid(4)
        serial_dir, parallel_dir = str(tmp_path / "serial"), str(tmp_path / "parallel")

        serial = run_sweep(configs, workers=1, cache_dir=serial_dir)
        parallel = run_sweep(configs, workers=2, cache_dir=parallel_dir, mp_context="fork")

        assert [r.key for r in serial.records] == [r.key for r in parallel.records]
        assert all(r.ok and not r.from_cache for r in serial.records + parallel.records)
        for s, p in zip(serial.records, parallel.records):
            assert s.test_acc == p.test_acc
            assert s.train_acc == p.train_acc
        # the trained weights themselves are bit-identical
        for record in serial.records:
            with np.load(os.path.join(serial_dir, record.key, "state.npz")) as a, np.load(
                os.path.join(parallel_dir, record.key, "state.npz")
            ) as b:
                assert set(a.files) == set(b.files)
                for name in a.files:
                    assert np.array_equal(a[name], b[name]), (record.key, name)

    def test_spawn_context_also_works(self, tmp_path, tiny_grid):
        configs = tiny_grid(2)
        report = run_sweep(configs, workers=2, cache_dir=str(tmp_path), mp_context="spawn")
        assert report.n_ok == 2 and report.n_errors == 0


class TestCacheAccounting:
    def test_second_sweep_is_all_hits(self, tmp_path, tiny_grid):
        configs = tiny_grid(4)
        first = run_sweep(configs, workers=2, cache_dir=str(tmp_path), mp_context="fork")
        second = run_sweep(configs, workers=2, cache_dir=str(tmp_path), mp_context="fork")
        assert first.cache_hits == 0
        assert second.cache_hits == 4
        assert second.cache_hit_rate == 1.0
        assert [r.test_acc for r in first.records] == [r.test_acc for r in second.records]

    def test_duplicate_configs_deduplicated(self, tmp_path, tiny_grid):
        configs = tiny_grid(2)
        report = run_sweep(configs + configs, workers=1, cache_dir=str(tmp_path))
        assert len(report.records) == 2
        assert report.deduped == 2

    def test_report_dict_and_format(self, tmp_path, tiny_grid):
        report = run_sweep(tiny_grid(2), workers=1, cache_dir=str(tmp_path))
        payload = report.to_dict()
        assert payload["n_ok"] == 2 and len(payload["runs"]) == 2
        json.dumps(payload)  # JSON-safe
        text = format_sweep(report)
        assert "2 runs" in text and "0 error(s)" in text


class TestWorkerCrash:
    def test_crash_contained_and_cache_uncorrupted(self, tmp_path, tiny_grid):
        good = tiny_grid(2)
        bad = good[0].with_overrides(dataset="no_such_dataset")
        report = run_sweep(
            good + [bad], workers=2, cache_dir=str(tmp_path), mp_context="fork"
        )
        assert report.n_ok == 2
        assert report.n_errors == 1
        (failed,) = [r for r in report.records if not r.ok]
        assert failed.key == bad.cache_key()
        assert "no_such_dataset" in failed.error
        # healthy entries are complete, the failed key left nothing behind,
        # and no temp dirs leaked
        for record in report.records:
            assert _cache_complete(os.path.join(str(tmp_path), record.key)) == record.ok
        assert glob.glob(os.path.join(str(tmp_path), "*.tmp.*")) == []
        # the cache still serves the healthy runs
        again = run_sweep(good, workers=1, cache_dir=str(tmp_path))
        assert again.cache_hits == 2

    def test_partial_entry_is_retrained(self, tmp_path, tiny_grid):
        config = tiny_grid(1)[0]
        partial = tmp_path / config.cache_key()
        partial.mkdir()
        (partial / "state.npz").write_bytes(b"torn write")
        result = run_training(config, cache_dir=str(tmp_path))
        assert not result.from_cache
        assert _cache_complete(str(partial))
        # the replacement entry is fully readable
        reloaded = run_training(config, cache_dir=str(tmp_path))
        assert reloaded.from_cache
        assert reloaded.test_acc == result.test_acc


def _locked_increment(path, lock_path, repeats):
    for _ in range(repeats):
        with file_lock(lock_path):
            value = int(open(path).read())
            open(path, "w").write(str(value + 1))


class TestFileLock:
    def test_mutual_exclusion_across_processes(self, tmp_path):
        counter, lock = str(tmp_path / "counter"), str(tmp_path / "counter.lock")
        open(counter, "w").write("0")
        ctx = get_context("fork")
        repeats = 50
        procs = [
            ctx.Process(target=_locked_increment, args=(counter, lock, repeats))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert int(open(counter).read()) == 4 * repeats

    def test_parallel_without_cache_rejected(self, tiny_grid):
        with pytest.raises(ValueError):
            run_sweep(tiny_grid(2), workers=2, cache_dir=None)


def _published_at(cache_dir, configs):
    return [
        os.stat(os.path.join(cache_dir, config.cache_key(), "metrics.json")).st_mtime_ns
        for config in configs
    ]


class TestTrainRuns:
    def test_serial_trains_in_process_in_order(self, tmp_path, tiny_grid, monkeypatch):
        from repro.experiments import sweep

        trained = []

        def recording(config, **kwargs):
            trained.append((config.cache_key(), os.getpid()))
            return run_training(config, **kwargs)

        monkeypatch.setattr(sweep, "run_training", recording)
        configs = tiny_grid(2)
        runs = train_runs(configs, workers=1, cache_dir=str(tmp_path))
        first = next(runs)
        # results come on demand: the second config has not trained yet
        assert trained == [(configs[0].cache_key(), os.getpid())]
        results = [first, *runs]
        assert trained == [(config.cache_key(), os.getpid()) for config in configs]
        assert [r.config for r in results] == configs
        assert not any(r.from_cache for r in results)
        assert not os.path.exists(tmp_path / "queue")

    def test_serial_propagates_a_run_exception(self, tmp_path, tiny_grid):
        good = tiny_grid(1)
        bad = good[0].with_overrides(dataset="no_such_dataset")
        with pytest.raises(Exception, match="no_such_dataset"):
            list(train_runs(good + [bad], workers=1, cache_dir=str(tmp_path)))
        assert _cache_complete(os.path.join(str(tmp_path), good[0].cache_key()))
        assert not os.path.exists(tmp_path / "queue")

    def test_parallel_fills_cache_and_reads_back(self, tmp_path, tiny_grid):
        configs = tiny_grid(2)
        results = list(train_runs(configs, workers=2, cache_dir=str(tmp_path / "queued")))
        assert [r.config for r in results] == configs
        assert all(r.from_cache for r in results)
        for config in configs:
            assert _cache_complete(os.path.join(str(tmp_path / "queued"), config.cache_key()))
        # sweep-spawned workers exit on idle and beat no heartbeat
        assert not os.path.exists(tmp_path / "queued" / "service")
        serial = list(train_runs(configs, workers=1, cache_dir=str(tmp_path / "serial")))
        assert [r.test_acc for r in results] == [r.test_acc for r in serial]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_force_retrains_each_config_once(self, tmp_path, tiny_grid, workers):
        configs = tiny_grid(2)
        cache = str(tmp_path)
        list(train_runs(configs, workers=1, cache_dir=cache))
        before = _published_at(cache, configs)
        results = list(
            train_runs(configs + configs[:1], workers=workers, cache_dir=cache, force=True)
        )
        assert all(b > a for a, b in zip(before, _published_at(cache, configs)))
        # only the pass that trains is forced: a repeat, or the
        # parallel path's read-back, loads what that pass published
        expected = [False, False, True] if workers == 1 else [True, True, True]
        assert [r.from_cache for r in results] == expected


class TestDatasetWarmup:
    def test_parallel_sweep_warms_dataset_cache(self, tmp_path, tiny_grid):
        from repro.data import dataset_cache_dir

        configs = tiny_grid(4)
        first = run_sweep(configs, workers=2, cache_dir=str(tmp_path), mp_context="fork")
        dataset_dir = dataset_cache_dir(str(tmp_path))
        assert first.datasets_warmed == 1  # one unique (profile, sizes, dtype)
        assert first.dataset_cache_hits == 0
        entries = [n for n in os.listdir(dataset_dir) if not n.endswith(".lock")]
        assert len(entries) == 1
        # a repeat sweep performs zero dataset-generation work
        second = run_sweep(configs, workers=2, cache_dir=str(tmp_path), mp_context="fork")
        assert second.datasets_warmed == 0
        assert second.dataset_cache_hits == 1
        assert second.cache_hits == 4

    def test_warm_datasets_skips_broken_profiles(self, tmp_path, tiny_grid):
        from repro.experiments.sweep import warm_datasets

        good = tiny_grid(1)
        bad = [good[0].with_overrides(dataset="no_such_dataset")]
        warmed, hits = warm_datasets(good + bad, str(tmp_path))
        assert (warmed, hits) == (1, 0)

    def test_serial_sweep_skips_warm_pass(self, tmp_path, tiny_grid):
        report = run_sweep(tiny_grid(2), workers=1, cache_dir=str(tmp_path))
        assert report.datasets_warmed == 0
        assert report.dataset_cache_hits == 0


class TestDriversParallel:
    @pytest.mark.slow
    def test_table3_parallel_matches_serial(self, tmp_path):
        serial = run_table3(profile="smoke", cache_dir=str(tmp_path / "a"), workers=1)
        parallel = run_table3(profile="smoke", cache_dir=str(tmp_path / "b"), workers=2)
        assert serial["rows"] == parallel["rows"]

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig2_parallel_retrains_stale_cache_entries(self, tmp_path, workers):
        # Another experiment caches the same configs without callbacks…
        from repro.experiments import fig2_configs, run_fig2

        for config in fig2_configs(profile="smoke"):
            run_training(config, cache_dir=str(tmp_path))
        # …fig2 must still end up with ||Hz|| columns, serial or parallel.
        result = run_fig2(profile="smoke", cache_dir=str(tmp_path), workers=workers)
        for method, data in result["series"].items():
            assert any(v is not None for v in data["hessian_norm"]), method


class TestSweepCLI:
    def test_sweep_verb_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--profile", "smoke", "--workers", "2", "--seeds", "0,1"]
        )
        assert args.artifact == "sweep"
        assert args.workers == 2
        assert args.seeds == "0,1"

    def test_sweep_command_runs_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = build_parser().parse_args(
            [
                "sweep",
                "--profile",
                "smoke",
                "--workers",
                "2",
                "--models",
                "ResNet20-fast",
                "--methods",
                "sgd",
                "--seeds",
                "0,1,2,3",
                "--json",
                str(tmp_path / "report.json"),
            ]
        )
        out = io.StringIO()
        errors = run_sweep_command(args, out=out)
        assert errors == 0
        assert "4 runs on 2 worker(s)" in out.getvalue()
        payload = json.load(open(tmp_path / "report.json"))
        assert payload["n_ok"] == 4

    def test_sweep_spec_file(self, tmp_path, monkeypatch, tiny_grid):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = [config.to_dict() for config in tiny_grid(2)]
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(spec))
        args = build_parser().parse_args(
            ["sweep", "--spec", str(spec_path), "--workers", "1"]
        )
        out = io.StringIO()
        assert run_sweep_command(args, out=out) == 0
        assert "2 runs" in out.getvalue()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", "3"),
            ("epochs", True),  # a bool is not an int
            ("augment", "yes"),
            ("lr", "0.1"),
            ("train_size", 96.0),
            ("method", "heroo"),
            ("penalty", "nrm"),
            ("perturbation", "layerwise"),
            ("label_noise", 1.7),
            ("label_noise", -0.1),
            ("label_nosie", 0.2),  # unknown field
        ],
    )
    def test_invalid_spec_rejected_before_enqueue(self, tmp_path, monkeypatch, tiny_grid,
                                                   field, value):
        from repro.experiments import TrainConfig
        from repro.experiments.cli import main
        from repro.messages import SchemaError

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        good = tiny_grid(1)[0].to_dict()
        bad = dict(good, **{field: value})
        with pytest.raises(SchemaError, match=field):
            TrainConfig.from_dict(bad)
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps([good, bad]))
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--spec", str(spec_path), "--workers", "2"])
        assert exited.value.code not in (0, None)
        assert field in str(exited.value.code)
        assert not cache.exists()  # no queue, no run, no dataset

    def test_grid_helper_cross_product(self):
        configs = make_grid(
            ["ResNet20-fast"], ["cifar10_like"], ["sgd", "hero"], seeds=(0, 1), profile="smoke"
        )
        assert len(configs) == 4
        assert len({c.cache_key() for c in configs}) == 4
