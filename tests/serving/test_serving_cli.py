"""CLI serving verbs: publish-artifact, list-artifacts, serve-model."""

import io
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.experiments.cli import (
    build_parser,
    main,
    run_list_artifacts_command,
    run_serve_model_command,
)
from repro.models import create_model
from repro.serving import (
    InferenceServer,
    ServingClient,
    load_artifact,
    model_spec,
    publish_artifact,
    server_root,
)
from repro.tensor import Tensor, no_grad


class TestParser:
    def test_publish_artifact_flags(self):
        args = build_parser().parse_args(
            ["publish-artifact", "--paper-model", "ResNet20-fast",
             "--weight-bits", "8", "--act-bits", "8", "--bn-fold"]
        )
        assert args.artifact == "publish-artifact"
        assert args.weight_bits == 8 and args.act_bits == 8 and args.bn_fold

    def test_serve_model_flags(self):
        args = build_parser().parse_args(
            ["serve-model", "--artifact", "abc123", "--max-batch", "4",
             "--max-delay-ms", "2.5", "--server-name", "edge"]
        )
        assert args.artifact == "serve-model"
        assert args.artifact_key == "abc123"
        assert args.max_batch == 4 and args.max_delay_ms == 2.5
        assert args.server_name == "edge"


class TestListArtifacts:
    def test_empty_store(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        out = io.StringIO()
        args = build_parser().parse_args(["list-artifacts"])
        assert run_list_artifacts_command(args, out=out) == 0
        assert "no artifacts" in out.getvalue()

    def test_lists_published_manifests(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=1)
        model.eval()
        manifest = publish_artifact(
            model, model_spec("mlp", num_classes=3, in_channels=6, scale=0.25)
        )
        out = io.StringIO()
        args = build_parser().parse_args(["list-artifacts"])
        assert run_list_artifacts_command(args, out=out) == 0
        listing = out.getvalue()
        assert manifest.key in listing
        assert "mlp x0.25" in listing


class TestPublishArtifact:
    def test_publish_quantized_smoke_run(self, tmp_run_cache, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        json_path = str(tmp_path / "manifest.json")
        code = main(
            ["publish-artifact", "--profile", "smoke", "--bn-fold",
             "--weight-bits", "8", "--act-bits", "8", "--json", json_path]
        )
        assert code == 0
        with open(json_path) as fh:
            payload = json.load(fh)
        artifact = load_artifact(payload["key"])
        assert artifact.manifest.bn_folded is True
        assert artifact.manifest.weight_quant.bits == 8
        assert artifact.manifest.activation_quant.bits == 8
        assert artifact.manifest.source.startswith("run:")
        model = artifact.build_model()  # the manifest recipe reconstructs
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        with no_grad():
            assert model(Tensor(x)).data.shape == (1, 10)

    def test_act_bits_requires_weight_bits(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit, match="--act-bits requires"):
            main(["publish-artifact", "--profile", "smoke", "--act-bits", "8"])


class TestServeModel:
    def test_serves_requests_until_deadline(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=1)
        model.eval()
        manifest = publish_artifact(
            model, model_spec("mlp", num_classes=3, in_channels=6, scale=0.25)
        )
        x = np.ones((1, 6), dtype=np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        root = server_root("cli-serve", tmp_run_cache)
        collected = {}

        def drive():
            collected["response"] = ServingClient(root).request(x, timeout=20.0)

        driver = threading.Thread(target=drive)
        driver.start()
        out = io.StringIO()
        args = build_parser().parse_args(
            ["serve-model", "--artifact", manifest.key, "--server-name", "cli-serve",
             "--max-seconds", "1.5", "--workers", "1", "--max-delay-ms", "2"]
        )
        started = time.monotonic()
        assert run_serve_model_command(args, out=out) == 0
        assert time.monotonic() - started < 20.0
        driver.join(timeout=20.0)
        assert np.array_equal(collected["response"], reference)
        assert "served 1 request(s)" in out.getvalue()

    def test_requires_artifact_key(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit, match="requires --artifact"):
            main(["serve-model"])

    def test_unknown_key_is_a_clean_error(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit, match="no artifact"):
            main(["serve-model", "--artifact", "feedfacefeedface"])


class TestServingValues:
    """Values no server can run with are parse errors (exit 2) raised
    before any server or fleet directory exists."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-model", "--artifact", "feedfacefeedface", "--workers", "0"],
            ["serve-model", "--artifact", "feedfacefeedface", "--workers", "-2"],
            ["serve-model", "--artifact", "feedfacefeedface", "--max-batch", "0"],
            ["serve-model", "--artifact", "feedfacefeedface", "--max-delay-ms", "-1"],
            ["serve", "--workers", "0", "--until-drained"],
        ],
    )
    def test_exit_2_before_any_directory(self, argv, tmp_run_cache, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-seconds", "1"])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
        assert not os.path.exists(tmp_run_cache)

    @pytest.mark.parametrize(
        "argv",
        [["--weight-bits", "1"], ["--weight-bits", "8", "--act-bits", "40"]],
        ids=["weight-bits", "act-bits"],
    )
    def test_bit_width_exits_2_before_training(self, argv, tmp_run_cache, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit) as exc:
            main(["publish-artifact", "--profile", "smoke"] + argv)
        assert exc.value.code == 2
        assert "must be in [2, 16]" in capsys.readouterr().err
        assert not os.path.exists(tmp_run_cache)

    def test_server_without_workers_raises(self, tmp_run_cache):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            InferenceServer("feedfacefeedface", cache_dir=tmp_run_cache, workers=0)
        assert not os.path.exists(tmp_run_cache)
