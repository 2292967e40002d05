"""CLI entry point for the experiment harness."""

import io
import os

import pytest

from repro.experiments.cli import (
    ARTIFACTS,
    build_parser,
    run_artifact,
    run_datagen_command,
)


class TestParser:
    def test_artifact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--profile", "smoke"])
        assert args.artifact == "table1"
        assert args.profile == "smoke"

    def test_all_choice(self):
        args = build_parser().parse_args(["all"])
        assert args.artifact == "all"

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_every_paper_artifact_registered(self):
        for name in ("table1", "table2", "table3", "fig1", "fig2", "fig3"):
            assert name in ARTIFACTS

    def test_datagen_stream_flags(self):
        # there is one serial dataset writer, so there is nothing to
        # choose and no in-flight shard memory to cap
        for removed in (["--stream"], ["--no-stream"], ["--max-resident-mb", "256"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["datagen", *removed])

    @pytest.mark.parametrize("flag", ["--train-size", "--test-size", "--shard-size"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_datagen_sizes_must_be_positive(self, tmp_path, monkeypatch, capsys, flag, value):
        """A size below 1 is an argparse error, raised before any cache
        directory exists."""
        from repro.experiments.cli import main

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        with pytest.raises(SystemExit) as exited:
            main(["datagen", "--datasets", "cifar10_like", flag, value])
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err
        assert not cache.exists()


class TestQueueAndFleetValues:
    """Intervals and caps no queue, fleet or server can run with are
    parse errors (exit 2) raised before any directory exists."""

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["sweep", "--lease-timeout", "0"], "--lease-timeout", "greater than 0"),
            (["sweep", "--lease-timeout", "-5"], "--lease-timeout", "greater than 0"),
            (["worker", "--lease-timeout", "nan"], "--lease-timeout", "greater than 0"),
            (["serve-model", "--artifact", "feedfacefeedface", "--lease-timeout", "0"],
             "--lease-timeout", "greater than 0"),
            (["worker", "--max-tasks", "0"], "--max-tasks", "at least 1"),
            (["serve", "--poll", "-1"], "--poll", "greater than 0"),
            (["serve", "--poll", "inf"], "--poll", "finite"),
            (["serve", "--heartbeat-interval", "0"], "--heartbeat-interval", "greater than 0"),
            (["serve", "--max-seconds", "-1"], "--max-seconds", "at least 0"),
        ],
    )
    def test_exit_2_before_any_directory(
        self, argv, flag, message, tmp_run_cache, monkeypatch, capsys
    ):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--profile", "smoke"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and message in err
        assert not os.path.exists(tmp_run_cache)

    def test_valid_values_parse(self):
        args = build_parser().parse_args(
            ["serve", "--poll", "0.2", "--heartbeat-interval", "2", "--max-seconds", "0",
             "--lease-timeout", "5", "--max-tasks", "1"]
        )
        assert (args.poll, args.heartbeat_interval, args.max_seconds) == (0.2, 2.0, 0.0)
        assert (args.lease_timeout, args.max_tasks) == (5.0, 1)
        # serve-model falls back to its 5 s lease when the flag is absent
        assert build_parser().parse_args(["serve-model"]).lease_timeout is None


class TestUnknownNames:
    """An unknown ``--models``/``--datasets`` name exits 1 before any
    queue, worker, run or dataset-cache entry exists."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sweep", "--models", "Nope"], "'Nope'"),
            (["sweep", "--datasets", "nope_like", "--workers", "2"], "'nope_like'"),
        ],
        ids=["models", "datasets"],
    )
    def test_sweep_is_an_invalid_spec(self, argv, name, tmp_run_cache, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--profile", "smoke"])
        message = exited.value.code
        assert message.startswith("invalid sweep spec: ") and name in message
        assert not os.path.exists(tmp_run_cache)

    def test_datagen_writes_nothing(self, tmp_run_cache, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        with pytest.raises(SystemExit) as exited:
            main(["datagen", "--datasets", "cifar10_like,nope_like",
                  "--train-size", "64", "--test-size", "16"])
        assert "'nope_like'" in exited.value.code
        assert not os.path.exists(tmp_run_cache)


class TestDatagenCommand:
    def _args(self, extra=()):
        return build_parser().parse_args(
            [
                "datagen",
                "--datasets",
                "cifar10_like",
                "--train-size",
                "600",
                "--test-size",
                "64",
                "--shard-size",
                "256",
                *extra,
            ]
        )

    def test_reports_per_shard_then_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        out = io.StringIO()
        assert run_datagen_command(self._args(), out=out) == 0
        text = out.getvalue()
        assert "train: 3 shard(s) — 3 generated" in text
        assert "test: 1 shard(s) — 1 generated" in text

        again = io.StringIO()
        assert run_datagen_command(self._args(), out=again) == 0
        text = again.getvalue()
        assert "(cached)" in text
        assert "train: 3 shard(s) — 3 cached" in text
        assert "test: 1 shard(s) — 1 cached" in text

    def test_interrupted_before_commit_reports_resumed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        from repro.data import resolve_spec, stream_dataset
        from repro.data.pipeline import dataset_cache_dir

        spec = resolve_spec("cifar10_like", train_size=600, test_size=64)
        seen = []

        def die_before_commit(split, index, state):
            seen.append(index)
            if len(seen) == 4:  # every shard journaled done, commit pending
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            stream_dataset(
                spec,
                dataset_cache_dir(str(tmp_path)),
                shard_size=256,
                progress=die_before_commit,
            )
        out = io.StringIO()
        assert run_datagen_command(self._args(), out=out) == 0
        text = out.getvalue()
        assert "resumed in" in text  # committed this run, zero generation
        assert "train: 3 shard(s) — 3 cached" in text

    def test_json_report_carries_split_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        args = self._args(["--json", str(tmp_path / "report.json")])
        assert run_datagen_command(args, out=io.StringIO()) == 0
        import json

        with open(tmp_path / "report.json") as fh:
            payload = json.load(fh)
        (dataset,) = payload["datasets"]
        by_split = {s["split"]: s for s in dataset["splits"]}
        assert by_split["train"]["shards"] == 3
        assert by_split["train"]["generated"] == [0, 1, 2]


class TestRunArtifact:
    def test_table3_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        out = io.StringIO()
        json_path = str(tmp_path / "t3.json")
        violations = run_artifact(
            "table3", "smoke", seed=0, json_path=json_path, out=out
        )
        text = out.getvalue()
        assert "Table 3" in text
        assert isinstance(violations, int)
        import json

        with open(json_path) as fh:
            payload = json.load(fh)
        assert "rows" in payload

    def test_ablations_honour_seed(self, tmp_path, monkeypatch):
        """``ablations`` takes --seed (and --no-cache) like every artifact."""
        import os

        from repro.experiments import ablation_configs
        from repro.experiments.runner import _cache_complete

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_artifact("ablations", "smoke", seed=3, out=io.StringIO())
        for seed, cached in ((3, True), (0, False)):
            for config in ablation_configs(profile="smoke", seed=seed):
                assert _cache_complete(os.path.join(str(tmp_path), config.cache_key())) is cached

    @pytest.mark.slow
    def test_fig3_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        out = io.StringIO()
        run_artifact("fig3", "smoke", seed=0, out=out)
        assert "flat area" in out.getvalue()
