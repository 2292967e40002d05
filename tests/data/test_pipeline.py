"""Dataset pipeline: sampler parity, sharding determinism, dataset cache."""

import hashlib
import json
import os
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from repro.data import (
    dataset_cache_dir,
    dataset_cache_key,
    generate_dataset,
    load_or_generate,
    make_dataset,
    plan_shards,
    resolve_spec,
    stream_dataset,
)
from repro.data.pipeline import DATASET_MANIFEST, dataset_cache, split_generator_id
from repro.data.synthetic import (
    PROFILES,
    SyntheticSpec,
    _class_prototypes,
    _sample_images,
    _sample_images_loop,
    _split_labels,
)
from repro.tensor import dtype_context


def small_spec(**overrides):
    base = replace(PROFILES["cifar10_like"], train_size=600, test_size=64)
    return replace(base, **overrides) if overrides else base


class TestVectorizedParity:
    """The vectorized sampler must reproduce the seed loop bit for bit."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bit_identical_to_loop(self, profile, dtype):
        spec = PROFILES[profile]
        with dtype_context(dtype):
            prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
            labels = np.random.default_rng(3).integers(0, spec.num_classes, 150)
            loop = _sample_images_loop(spec, prototypes, labels, np.random.default_rng(9))
            fast = _sample_images(spec, prototypes, labels, np.random.default_rng(9))
        assert loop.dtype == fast.dtype
        assert np.array_equal(loop, fast)

    def test_parity_with_zero_shift(self):
        spec = SyntheticSpec(name="t", num_classes=4, image_size=6, max_shift=0)
        prototypes = _class_prototypes(spec, np.random.default_rng(0))
        labels = np.random.default_rng(1).integers(0, 4, 64)
        loop = _sample_images_loop(spec, prototypes, labels, np.random.default_rng(2))
        fast = _sample_images(spec, prototypes, labels, np.random.default_rng(2))
        assert np.array_equal(loop, fast)

    def test_single_shard_matches_legacy_generator(self):
        """One-shard datasets keep the exact seed-generator stream (v1):
        the seed's per-image loop on the ``seed + 1``/``seed + 2`` split
        streams, with prototypes drawn from ``seed``."""
        spec = small_spec()
        prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
        train, test = generate_dataset(spec)  # 600 < shard size -> v1
        for split, offset in ((train, 1), (test, 2)):
            rng = np.random.default_rng(spec.seed + offset)
            labels = _split_labels(spec, len(split), rng)
            assert np.array_equal(split.targets, labels)
            assert np.array_equal(split.inputs, _sample_images_loop(spec, prototypes, labels, rng))


class TestShardedGeneration:
    def test_plan_shards_covers_total(self):
        assert plan_shards(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert plan_shards(4, 4) == [(0, 4)]
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_generator_id_versioning(self):
        assert split_generator_id(100, 8192) == "v1"
        assert split_generator_id(10_000, 8192) == "v2.s8192"
        assert split_generator_id(10_000, 4096) == "v2.s4096"

    def test_sharded_labels_match_legacy(self):
        """Sharding changes the image streams, never the label split."""
        spec = small_spec()
        legacy_train, _ = generate_dataset(spec)  # one shard: v1
        train, _ = generate_dataset(spec, shard_size=256)
        assert np.array_equal(legacy_train.targets, train.targets)

    # The golden hashes pinning the v2 stream live in
    # tests/test_golden.py, next to the journal-schema pin.

    def test_sharded_distribution_is_separable(self):
        """v2 data keeps the class structure experiments rely on."""
        spec = small_spec()
        train, _ = generate_dataset(spec, shard_size=256)
        prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
        scores = train.inputs.reshape(len(train), -1) @ prototypes.reshape(
            spec.num_classes, -1
        ).T.astype(train.inputs.dtype)
        accuracy = (scores.argmax(axis=1) == train.targets).mean()
        assert accuracy > 0.3  # chance is 0.1


class TestCacheKeys:
    def test_key_sensitive_to_spec_dtype_and_generator(self):
        spec = small_spec()
        base = dataset_cache_key(spec)
        assert dataset_cache_key(replace(spec, seed=5)) != base
        assert dataset_cache_key(spec, dtype="float64") != base
        assert dataset_cache_key(spec, shard_size=256) != base
        assert dataset_cache_key(spec) == base  # stable

    def test_key_ignores_equivalent_shard_sizes(self):
        """Two shard sizes that both leave the spec on v1 share an entry."""
        spec = small_spec()
        assert dataset_cache_key(spec, shard_size=1024) == dataset_cache_key(
            spec, shard_size=2048
        )

    def test_cache_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
        assert dataset_cache_dir(None) is None
        assert dataset_cache_dir(str(tmp_path)) == os.path.join(str(tmp_path), "datasets")
        monkeypatch.setenv("REPRO_DATASET_CACHE", "off")
        assert dataset_cache_dir(str(tmp_path)) is None
        monkeypatch.setenv("REPRO_DATASET_CACHE", str(tmp_path / "elsewhere"))
        assert dataset_cache_dir(None) == str(tmp_path / "elsewhere")


class TestDatasetCache:
    def test_miss_generates_then_hit_memory_maps(self, tmp_path):
        spec = small_spec()
        cold_train, cold_test = load_or_generate(spec, cache_dir=str(tmp_path))
        key = dataset_cache_key(spec)
        entry = os.path.join(str(tmp_path), key)
        for name in DATASET_MANIFEST:
            assert os.path.exists(os.path.join(entry, name)), name
        warm_train, warm_test = load_or_generate(spec, cache_dir=str(tmp_path))
        # the warm arrays are memory-mapped, not copied into RAM
        # (ArrayDataset's asarray turns the memmap into a zero-copy view)
        backing = warm_train.inputs
        while not isinstance(backing, np.memmap):
            assert backing.base is not None, "warm load copied the arrays"
            backing = backing.base
        assert isinstance(backing, np.memmap)
        assert np.array_equal(cold_train.inputs, warm_train.inputs)
        assert np.array_equal(cold_train.targets, warm_train.targets)
        assert np.array_equal(cold_test.inputs, warm_test.inputs)
        with open(os.path.join(entry, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["dtype"] == "float32"
        assert meta["train_generator"] == "v1"

    def test_warm_hit_performs_no_generation(self, tmp_path, monkeypatch):
        spec = small_spec()
        load_or_generate(spec, cache_dir=str(tmp_path))

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not regenerate")

        import repro.data.pipeline as pipeline

        monkeypatch.setattr(pipeline, "generate_dataset", boom)
        train, _test = pipeline.load_or_generate(spec, cache_dir=str(tmp_path))
        assert len(train) == spec.train_size

    def test_dtype_isolation(self, tmp_path):
        spec = small_spec()
        train32, _ = load_or_generate(spec, cache_dir=str(tmp_path))
        with dtype_context("float64"):
            train64, _ = load_or_generate(spec, cache_dir=str(tmp_path))
        assert train32.inputs.dtype == np.float32
        assert train64.inputs.dtype == np.float64
        assert len(os.listdir(str(tmp_path))) >= 2

    def test_warm_dataset_reports_hit(self, tmp_path):
        spec = small_spec()
        cold = stream_dataset(spec, str(tmp_path))
        assert not cold.hit and cold.key == dataset_cache_key(spec)
        warm = stream_dataset(spec, str(tmp_path))
        assert warm.hit and warm.key == cold.key

    def test_make_dataset_cache_roundtrip(self, tmp_path):
        fresh_train, _t, spec = make_dataset(
            "cifar10_like", train_size=50, test_size=20, cache_dir=str(tmp_path)
        )
        cached_train, _t2, _s2 = make_dataset(
            "cifar10_like", train_size=50, test_size=20, cache_dir=str(tmp_path)
        )
        assert np.array_equal(fresh_train.inputs, cached_train.inputs)
        # and identical to the uncached generation
        pure_train, _t3, _s3 = make_dataset("cifar10_like", train_size=50, test_size=20)
        assert np.array_equal(fresh_train.inputs, pure_train.inputs)


def _race_generate(task):
    """Process entry point for the concurrent-writer race below."""
    cache_dir, train_size = task
    spec = replace(PROFILES["cifar10_like"], train_size=train_size, test_size=32)
    train, _test = load_or_generate(spec, cache_dir=cache_dir)
    return hashlib.sha256(np.ascontiguousarray(train.inputs).tobytes()).hexdigest()


class TestConcurrentWriters:
    def test_racing_processes_agree_and_leave_one_clean_entry(self, tmp_path):
        cache_dir = str(tmp_path)
        ctx = get_context("fork")
        with ctx.Pool(4) as pool:
            digests = pool.map(_race_generate, [(cache_dir, 300)] * 4)
        assert len(set(digests)) == 1
        spec = replace(PROFILES["cifar10_like"], train_size=300, test_size=32)
        entry = os.path.join(cache_dir, dataset_cache_key(spec))
        cache = dataset_cache(cache_dir)
        assert cache.complete(dataset_cache_key(spec))
        # no leaked temp dirs
        leftovers = [n for n in os.listdir(cache_dir) if ".tmp." in n]
        assert leftovers == []
        # the published entry serves the same bits
        train, _ = load_or_generate(spec, cache_dir=cache_dir)
        digest = hashlib.sha256(np.ascontiguousarray(train.inputs).tobytes()).hexdigest()
        assert digest == digests[0]
        assert os.path.isdir(entry)


class TestResolveSpec:
    def test_resolve_spec_uses_dataclass_replace(self):
        spec = resolve_spec("cifar10_like", train_size=40)
        assert spec == replace(PROFILES["cifar10_like"], train_size=40)
        assert resolve_spec("cifar10_like") is PROFILES["cifar10_like"]

    def test_make_dataset_spec_matches_replace(self):
        _tr, _te, spec = make_dataset("cifar100_like", seed=9, train_size=30, test_size=10)
        assert spec == replace(PROFILES["cifar100_like"], seed=9, train_size=30, test_size=10)

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            resolve_spec("mnist_like")

    @pytest.mark.parametrize("field, size", [("train_size", 0), ("test_size", 0), ("test_size", -3)])
    def test_nonpositive_size_raises_naming_the_field(self, field, size):
        with pytest.raises(ValueError, match=field):
            resolve_spec("cifar10_like", **{field: size})
