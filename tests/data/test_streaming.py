"""Streaming shard writer + out-of-core loader: parity, resume, residency."""

import hashlib
import io
import os
import time
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    generate_dataset,
    load_or_generate,
    make_dataset,
    stream_dataset,
)
from repro.data.pipeline import DATASET_MANIFEST, dataset_cache, dataset_cache_key
from repro.data.streaming import (
    SHARD_DONE,
    _resident_cap,
    evict,
    shard_journal,
    shard_key,
    shard_nbytes,
)
from repro.data.synthetic import PROFILES

#: The v2 golden hash from tests/test_golden.py — the streamed writer
#: must land byte-for-byte on the same stream.
GOLDEN_TRAIN_SHA = "df3ca4b85768e3205746e4d92bb1b5ddccc25825555ae6f242bd09bfc9e597da"


def small_spec(**overrides):
    base = replace(PROFILES["cifar10_like"], train_size=600, test_size=64)
    return replace(base, **overrides) if overrides else base


def entry_digest(cache_dir, spec, shard_size=256):
    train, _ = load_or_generate(spec, cache_dir=cache_dir, shard_size=shard_size)
    return hashlib.sha256(np.ascontiguousarray(train.inputs).tobytes()).hexdigest()


class TestStreamedParity:
    def test_streamed_entry_is_bit_identical_and_golden(self, tmp_path):
        spec = small_spec()
        report = stream_dataset(spec, str(tmp_path), shard_size=256)
        assert not report.hit
        assert report.n_generated == 4 and report.n_resumed == 0  # 3 train + 1 test
        entry = os.path.join(str(tmp_path), report.key)
        for name in DATASET_MANIFEST:
            assert os.path.exists(os.path.join(entry, name)), name
        # no staging bookkeeping leaks into the live entry
        assert not os.path.exists(os.path.join(entry, ".shards"))
        assert not os.path.exists(os.path.join(entry, ".staging-meta.json"))

        train, test = load_or_generate(spec, cache_dir=str(tmp_path), shard_size=256)
        in_ram_train, in_ram_test = generate_dataset(spec, shard_size=256)
        assert np.array_equal(train.inputs, in_ram_train.inputs)
        assert np.array_equal(train.targets, in_ram_train.targets)
        assert np.array_equal(test.inputs, in_ram_test.inputs)
        assert np.array_equal(test.targets, in_ram_test.targets)
        assert entry_digest(str(tmp_path), spec) == GOLDEN_TRAIN_SHA

    def test_single_shard_entry_files_are_in_ram_bytes(self, tmp_path):
        """A one-shard split is the v1 stream written into its memmap:
        each cached ``.npy`` holds exactly what ``np.save`` writes for
        the in-RAM arrays."""
        spec = small_spec(train_size=96, test_size=96)
        report = stream_dataset(spec, str(tmp_path))
        assert report.total_shards == 2  # one per split at the default shard size
        train, test = generate_dataset(spec)
        entry = os.path.join(str(tmp_path), report.key)
        arrays = {
            "train_inputs.npy": train.inputs,
            "train_targets.npy": train.targets,
            "test_inputs.npy": test.inputs,
            "test_targets.npy": test.targets,
        }
        for name, array in arrays.items():
            expected = io.BytesIO()
            np.save(expected, array)
            with open(os.path.join(entry, name), "rb") as fh:
                assert fh.read() == expected.getvalue(), name

    def test_streamed_pool_matches_serial(self, tmp_path):
        spec = small_spec()
        stream_dataset(spec, str(tmp_path / "pool"), shard_size=256, workers=3,
                       mp_context="fork")
        stream_dataset(spec, str(tmp_path / "serial"), shard_size=256, workers=1)
        assert entry_digest(str(tmp_path / "pool"), spec) == entry_digest(
            str(tmp_path / "serial"), spec
        )

    def test_second_call_is_a_hit(self, tmp_path):
        spec = small_spec()
        stream_dataset(spec, str(tmp_path), shard_size=256)
        again = stream_dataset(spec, str(tmp_path), shard_size=256)
        assert again.hit and again.n_generated == 0
        assert sum(split.cached for split in again.splits) == 4

    def test_stream_requires_cache_dir(self):
        with pytest.raises(ValueError):
            stream_dataset(small_spec(), None)

    def test_load_or_generate_auto_routes_to_streaming(self, tmp_path, monkeypatch):
        import repro.data.pipeline as pipeline

        def boom(*args, **kwargs):
            raise AssertionError("a cold cache entry must stream, not generate in RAM")

        monkeypatch.setattr(pipeline, "generate_dataset", boom)
        spec = small_spec()
        train, _ = load_or_generate(spec, cache_dir=str(tmp_path), shard_size=256)
        assert len(train) == spec.train_size

    def test_make_dataset_threads_stream(self, tmp_path):
        train, _test, spec = make_dataset(
            "cifar10_like",
            train_size=600,
            test_size=64,
            cache_dir=str(tmp_path),
            shard_size=256,
            max_resident_mb=64,
        )
        assert dataset_cache(str(tmp_path)).complete(dataset_cache_key(spec, shard_size=256))
        assert np.array_equal(train.inputs, generate_dataset(spec, shard_size=256)[0].inputs)


class TestResume:
    def test_interrupt_resumes_only_missing_shards(self, tmp_path):
        spec = small_spec()
        generated = []

        def hook(split, index, state):
            if state == "generated":
                generated.append((split, index))
                if len(generated) == 2:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            stream_dataset(spec, str(tmp_path), shard_size=256, progress=hook)
        # entry not live yet, staging (with its journal) left behind
        cache = dataset_cache(str(tmp_path))
        key = dataset_cache_key(spec, shard_size=256)
        assert not cache.complete(key)
        journal = shard_journal(cache.staging_path(key))
        done = [k for k, e in journal.snapshot().items() if e["status"] == SHARD_DONE]
        assert len(done) == 2

        report = stream_dataset(spec, str(tmp_path), shard_size=256)
        assert not report.hit
        assert report.n_resumed == 2 and report.n_generated == 2
        assert entry_digest(str(tmp_path), spec) == GOLDEN_TRAIN_SHA

    def test_sigkill_resumes_only_missing_shards(self, tmp_path):
        spec = small_spec()
        cache = dataset_cache(str(tmp_path))
        key = dataset_cache_key(spec, shard_size=256)
        journal = shard_journal(cache.staging_path(key))

        ctx = get_context("fork")
        proc = ctx.Process(
            target=_slow_stream, args=(str(tmp_path),), daemon=True
        )
        proc.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done = [
                k
                for k, e in journal.snapshot().items()
                if e.get("status") == SHARD_DONE
            ]
            if done:
                break
            time.sleep(0.02)
        assert done, "worker never finished a shard before the kill window"
        proc.kill()
        proc.join()
        assert not cache.complete(key)

        report = stream_dataset(spec, str(tmp_path), shard_size=256)
        assert report.n_resumed >= 1
        assert report.n_resumed + report.n_generated == 4
        assert entry_digest(str(tmp_path), spec) == GOLDEN_TRAIN_SHA

    def test_stale_staging_for_other_layout_is_wiped(self, tmp_path):
        spec = small_spec()
        cache = dataset_cache(str(tmp_path))
        key = dataset_cache_key(spec, shard_size=256)
        staging = cache.staging_path(key)
        os.makedirs(staging)
        with open(os.path.join(staging, ".staging-meta.json"), "w") as fh:
            fh.write('{"version": 0}')
        report = stream_dataset(spec, str(tmp_path), shard_size=256)
        assert report.n_resumed == 0 and report.n_generated == 4
        assert entry_digest(str(tmp_path), spec) == GOLDEN_TRAIN_SHA


def _slow_stream(cache_dir):
    """Fork target: stream with a per-shard stall so a kill lands mid-run."""
    spec = small_spec()
    stream_dataset(
        spec,
        cache_dir,
        shard_size=256,
        progress=lambda *a: time.sleep(0.25),
    )


class TestShardJournal:
    def test_journal_records_shard_coordinates(self, tmp_path):
        spec = small_spec()

        def hook(split, index, state):
            if (split, index) == ("train", 1):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            stream_dataset(spec, str(tmp_path), shard_size=256, progress=hook)
        cache = dataset_cache(str(tmp_path))
        key = dataset_cache_key(spec, shard_size=256)
        entry = shard_journal(cache.staging_path(key)).read(shard_key("train", 1))
        assert entry["status"] == SHARD_DONE
        assert entry["split"] == "train" and entry["index"] == 1
        assert entry["start"] == 256 and entry["stop"] == 512

    def test_resident_cap_counts_whole_shards(self):
        spec = small_spec()
        per_shard = shard_nbytes(spec, 256)
        assert per_shard == 256 * 3 * 8 * 8 * 4
        assert _resident_cap(spec, 256, None) is None
        assert _resident_cap(spec, 256, per_shard / 2**20) == 1
        assert _resident_cap(spec, 256, 5 * per_shard / 2**20) == 5
        assert _resident_cap(spec, 256, 0.0) == 1  # floor: one shard in flight


class TestOutOfCoreLoader:
    def test_sequential_batches_match_eager_loader_bitwise(self, tmp_path):
        spec = small_spec()
        stream_dataset(spec, str(tmp_path), shard_size=256)
        mapped, _ = load_or_generate(spec, cache_dir=str(tmp_path), shard_size=256)
        eager, _ = generate_dataset(spec, shard_size=256)
        ooc = DataLoader(mapped, batch_size=50, shuffle=False, window=120)
        ref = DataLoader(eager, batch_size=50, shuffle=False)
        batches = list(zip(ref, ooc, strict=True))
        assert len(batches) == 12
        for (rx, ry), (ox, oy) in batches:
            assert np.array_equal(rx, ox)
            assert np.array_equal(ry, oy)

    def test_windowed_epoch_is_a_window_local_permutation(self):
        eager, _ = generate_dataset(small_spec(), shard_size=256)
        loader = DataLoader(eager, batch_size=32, shuffle=True, window=150, seed=3)
        order = loader.epoch_order()
        assert np.array_equal(np.sort(order), np.arange(600))
        # windows are visited contiguously: the window-id sequence has
        # exactly one run per window, so residency stays window-local
        blocks = order // 150
        runs = 1 + int(np.sum(blocks[1:] != blocks[:-1]))
        assert runs == 4
        # and it is genuinely shuffled, not sequential
        assert not np.array_equal(order, np.arange(600))

    def test_windowed_epoch_yields_every_sample_once(self):
        eager, _ = generate_dataset(small_spec(), shard_size=256)
        loader = DataLoader(eager, batch_size=32, shuffle=True, window=150, seed=3)
        targets = np.concatenate([y for _x, y in loader])
        assert np.array_equal(np.sort(targets), np.sort(np.asarray(eager.targets)))

    def test_max_resident_mb_derives_window(self):
        eager, _ = generate_dataset(small_spec(), shard_size=256)
        loader = DataLoader(eager, batch_size=32, shuffle=True, max_resident_mb=0.15)
        assert loader.window == int(0.15 * 2**20) // (3 * 8 * 8 * 4)
        floor = DataLoader(eager, batch_size=32, shuffle=True, max_resident_mb=1e-6)
        assert floor.window == 32  # never below one batch

    def test_default_loader_stream_is_unchanged(self):
        eager, _ = generate_dataset(small_spec(), shard_size=256)
        legacy = np.arange(600)
        np.random.default_rng(7).shuffle(legacy)
        loader = DataLoader(eager, batch_size=32, shuffle=True, seed=7)
        assert np.array_equal(loader.epoch_order(), legacy)

    def test_window_validation(self):
        eager, _ = generate_dataset(small_spec(), shard_size=256)
        with pytest.raises(ValueError):
            DataLoader(eager, window=0)
        with pytest.raises(ValueError):
            DataLoader(eager, max_resident_mb=0)
        with pytest.raises(ValueError):
            DataLoader(eager, max_resident_mb=-64)


class TestEvict:
    def test_evict_memmap_and_plain_array(self, tmp_path):
        path = str(tmp_path / "x.npy")
        arr = np.lib.format.open_memmap(path, mode="w+", dtype=np.float32, shape=(64, 8))
        arr[:] = 1.0
        assert evict(arr) is True
        assert np.array_equal(np.load(path), np.ones((64, 8), dtype=np.float32))
        assert evict(np.ones(4)) is False
        assert evict(None) is False
        # views reach through to the mapping
        assert evict(arr[3:5]) is True
