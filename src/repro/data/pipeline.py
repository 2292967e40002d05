"""Sharded, vectorized dataset generation over an on-disk dataset cache.

This module is the scale path for synthetic data.  Three layers, each
usable on its own:

1. **Vectorized sampling** — :func:`repro.data.synthetic._sample_images`
   draws a whole split in batched numpy ops, bit-identical to the seed
   per-image loop (same RNG stream, same float64 arithmetic, same cast).
2. **Sharded generation** — :func:`generate_dataset` splits large
   datasets into fixed-size shards, each drawn from its own
   ``np.random.SeedSequence``-spawned stream, and optionally fans the
   shards out over a ``multiprocessing`` pool.  Shard layout is a pure
   function of the spec and ``shard_size`` — **worker count never
   changes the data**, so parallel generation is bit-identical to
   serial sharded generation.
3. **On-disk dataset cache** — :func:`load_or_generate` memoizes whole
   generated datasets under a content-addressed directory cache
   (:class:`repro.io.DirectoryCache`: atomic rename, per-key
   inter-process locks).  Every cold entry is written by the streaming
   shard writer (:mod:`repro.data.streaming`) straight into a staged
   entry: pre-allocated memmaps, a per-shard completion journal
   (interrupted generation resumes only missing shards), peak RSS near
   one shard per writer.  A one-shard split is the v1 stream written
   into its memmap, so the bytes match in-RAM :func:`generate_dataset`
   exactly.  A warm entry is **memory-mapped**, so many sweep workers
   share one copy of the arrays instead of each regenerating them.
   See ``docs/memory-model.md``.

Generator versions
------------------
Datasets that fit in a single shard (``total <= shard_size``, the case
for every paper experiment) keep the **legacy single-stream generator**
(``v1``) — bit-identical to the seed code, so nothing downstream moves.
Larger datasets use the **sharded streams** (``v2.s<shard_size>``).
The per-split generator id is hashed into the cache key, so v1 and v2
entries (or different shard layouts) can never be confused.

Examples
--------
Generate a million-sample dataset across 8 processes, cached on disk::

    from repro.data import PROFILES, load_or_generate
    from dataclasses import replace

    spec = replace(PROFILES["cifar10_like"], train_size=1_000_000)
    train, test = load_or_generate(spec, cache_dir=".cache/runs/datasets",
                                   workers=8)   # second call: mmap, no work

Let the environment drive it (the same knobs the sweep engine uses)::

    REPRO_WORKERS=8 REPRO_DTYPE=float32 REPRO_CACHE_DIR=/tmp/repro \\
        python -m repro.experiments datagen --train-size 1000000

Pre-warm the cache the sweep workers will memory-map::

    python -m repro.experiments datagen --datasets cifar10_like,cifar100_like

Environment variables: ``REPRO_WORKERS`` (default generation
parallelism), ``REPRO_DTYPE`` (engine dtype — part of the cache key),
``REPRO_CACHE_DIR`` (run-cache root; the dataset cache lives in its
``datasets/`` subdirectory), ``REPRO_DATASET_CACHE`` (override the
dataset-cache location, or ``off`` to disable disk caching).
"""

import hashlib
import json
import os
import re
from dataclasses import asdict, replace
from multiprocessing import get_context

import numpy as np

from ..io import DirectoryCache
from ..tensor import default_dtype, dtype_context, dtype_name
from .dataset import ArrayDataset
from .synthetic import (
    PROFILES,
    _class_prototypes,
    _generate_split,
    _sample_params,
    _split_labels,
)

#: Samples per shard.  Fixed by default so the sharded stream is a pure
#: function of the spec: every paper-scale dataset (<= 8192 samples)
#: stays on the legacy v1 stream, anything larger shards deterministically.
DEFAULT_SHARD_SIZE = 8192

#: Version tag of the sharded generator's stream (v1 is the seed loop's).
GENERATOR_VERSION = 2

#: Environment variable overriding the dataset-cache location
#: (a path, or ``0``/``off``/``none`` to disable disk caching).
DATASET_CACHE_ENV = "REPRO_DATASET_CACHE"

#: Environment variable naming the default generation parallelism
#: (shared with the sweep engine).
WORKERS_ENV = "REPRO_WORKERS"

#: Per-split seed offsets — match the legacy generator's
#: ``default_rng(seed + 1)`` / ``default_rng(seed + 2)`` split streams.
TRAIN_SPLIT, TEST_SPLIT = 1, 2

#: Files making up one complete dataset-cache entry.
DATASET_MANIFEST = (
    "train_inputs.npy",
    "train_targets.npy",
    "test_inputs.npy",
    "test_targets.npy",
    "meta.json",
)


def resolve_workers(workers=None):
    """Resolve a worker count: explicit arg > ``REPRO_WORKERS`` > serial (1).

    The single implementation behind both dataset generation and the
    sweep engine (:mod:`repro.experiments.sweep` re-exports it), so the
    two layers can never disagree about what ``REPRO_WORKERS`` means.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, int(workers))


def resolve_spec(profile, seed=None, train_size=None, test_size=None):
    """The :class:`SyntheticSpec` a profile + overrides resolves to."""
    if profile not in PROFILES:
        raise KeyError(f"unknown dataset profile {profile!r}; have {sorted(PROFILES)}")
    spec = PROFILES[profile]
    overrides = {
        key: value
        for key, value in (
            ("seed", seed),
            ("train_size", train_size),
            ("test_size", test_size),
        )
        if value is not None
    }
    return replace(spec, **overrides) if overrides else spec


def dataset_cache_dir(run_cache_dir=None):
    """Resolve the dataset-cache directory (or ``None`` for no caching).

    ``REPRO_DATASET_CACHE`` wins when set (a path, or ``off``/``0`` to
    disable).  Otherwise the dataset cache lives in the ``datasets/``
    subdirectory of the given run-cache directory, so one
    ``REPRO_CACHE_DIR`` knob relocates both caches together.  With no
    run cache and no env var there is no disk cache.
    """
    env = os.environ.get(DATASET_CACHE_ENV)
    if env:
        if env.strip().lower() in ("0", "off", "none", "disabled"):
            return None
        return os.path.abspath(os.path.expanduser(env))
    if run_cache_dir:
        return os.path.join(os.path.abspath(run_cache_dir), "datasets")
    return None


# ----------------------------------------------------------------------
# Sharded generation
# ----------------------------------------------------------------------
def _resolve_shard_size(shard_size):
    shard_size = DEFAULT_SHARD_SIZE if shard_size is None else int(shard_size)
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return shard_size


def plan_shards(total, shard_size=None):
    """Contiguous ``(start, stop)`` shard bounds covering ``total`` samples."""
    shard_size = _resolve_shard_size(shard_size)
    return [(start, min(start + shard_size, total)) for start in range(0, total, shard_size)]


def split_generator_id(total, shard_size=None):
    """Generator version tag for one split: ``"v1"`` or ``"v2.s<size>"``."""
    shard_size = _resolve_shard_size(shard_size)
    if total <= shard_size:
        return "v1"
    return f"v{GENERATOR_VERSION}.s{shard_size}"


def _split_labels_for(spec, split_offset):
    """The deterministic label array of one sharded (v2) split."""
    total = spec.train_size if split_offset == TRAIN_SPLIT else spec.test_size
    return _split_labels(spec, total, np.random.default_rng(spec.seed + split_offset))


#: Samples per in-shard processing block.  Sized so one block's working
#: set (output, gathered prototypes, noise) stays cache-resident.  The
#: sampled values are block-size invariant (``standard_normal(out=...)``
#: consumes the stream per value), so this is purely a speed knob.
_BLOCK = 2048


def _shard_rng(spec, split_offset, shard_index):
    """The spawned generator stream owned by one shard of one split.

    ``SeedSequence(spec.seed, spawn_key=(split, shard))`` gives every
    shard a statistically independent stream that depends only on the
    spec seed and the shard's coordinates — never on worker count or
    execution order.  The sharded generator rides ``SFC64`` (the
    fastest numpy bit generator at bulk normal draws); this choice is
    part of the v2 stream definition.
    """
    seq = np.random.SeedSequence(spec.seed, spawn_key=(split_offset, shard_index))
    return np.random.Generator(np.random.SFC64(seq))


def _prototype_table(spec, prototypes):
    """Rolled-prototype lookup table in the engine dtype.

    Row ``(c * k + dy) * k + dx`` holds class ``c``'s prototype
    circularly shifted by ``(dy - max_shift, dx - max_shift)`` and
    flattened — there are only ``num_classes * (2 * max_shift + 1)²``
    distinct (class, shift) combinations, so the whole table is a few
    hundred KB and every per-sample "mix + roll" becomes one gather.
    """
    k = 2 * spec.max_shift + 1
    features = spec.channels * spec.image_size * spec.image_size
    table = np.empty((spec.num_classes * k * k, features), dtype=default_dtype())
    for c in range(spec.num_classes):
        for dy in range(k):
            for dx in range(k):
                rolled = np.roll(
                    prototypes[c],
                    (dy - spec.max_shift, dx - spec.max_shift),
                    axis=(1, 2),
                )
                table[(c * k + dy) * k + dx] = rolled.ravel()
    return table


def _sample_images_fast(spec, table, labels, rng, out=None):
    """Engine-dtype-native sampler behind the sharded (v2) generator.

    Consumes the same parameter draws as the legacy sampler
    (:func:`repro.data.synthetic._sample_params`), then materializes
    each sample as ``noise + amps * table[label, shift] + mix *
    table[other, shift]`` in cache-resident blocks: the noise is drawn
    straight into the output buffer, and the two prototype gathers
    collapse into one ``np.take`` plus an einsum contraction.  All
    arithmetic runs in the engine dtype — this is what buys the bulk of
    the datagen speedup, and it is why v2 carries its own generator
    version instead of claiming stream parity with the seed loop.
    """
    count = len(labels)
    size = spec.image_size
    k = 2 * spec.max_shift + 1
    features = spec.channels * size * size
    dtype = default_dtype()
    if out is None:
        out = np.empty((count, spec.channels, size, size), dtype=dtype)
    flat = out.reshape(count, features)

    other, amps, mix, shifts_y, shifts_x = _sample_params(spec, labels, rng)
    shift_index = (shifts_y + spec.max_shift) * k + (shifts_x + spec.max_shift)
    pair_index = np.empty((count, 2), dtype=np.intp)
    pair_index[:, 0] = labels * (k * k) + shift_index
    pair_index[:, 1] = other * (k * k) + shift_index
    coef = np.empty((count, 2), dtype=dtype)
    coef[:, 0] = amps
    coef[:, 1] = mix
    sigma = dtype.type(spec.noise)

    gathered = np.empty((2 * _BLOCK, features), dtype=dtype)
    mixture = np.empty((_BLOCK, features), dtype=dtype)
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        m = stop - start
        block = flat[start:stop]
        rng.standard_normal(out=block, dtype=dtype)
        block *= sigma
        # mode="clip" skips np.take's slow bounds-checking path; the
        # indices are in range by construction (class < num_classes,
        # shift index < k*k), so clipping can never actually trigger.
        np.take(
            table,
            pair_index[start:stop].ravel(),
            axis=0,
            out=gathered[: 2 * m],
            mode="clip",
        )
        np.einsum(
            "nkf,nk->nf",
            gathered[: 2 * m].reshape(m, 2, features),
            coef[start:stop],
            out=mixture[:m],
        )
        block += mixture[:m]
    return out


def _shard_task(task):
    """Pool entry point: draw one shard's images in a worker process.

    Module-level so it pickles under ``spawn``.  The prototype table is
    recomputed from the spec seed inside the worker (milliseconds) so
    only the spec and the shard's label slice cross the process
    boundary.
    """
    spec, labels, split_offset, shard_index, dtype = task
    with dtype_context(dtype):
        prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
        table = _prototype_table(spec, prototypes)
        rng = _shard_rng(spec, split_offset, shard_index)
        images = _sample_images_fast(spec, table, labels, rng)
    return split_offset, shard_index, images


def generate_dataset(spec, workers=None, shard_size=None, mp_context="spawn"):
    """Generate ``(train_dataset, test_dataset)``, sharded when large.

    Splits small enough for one shard use the legacy single-stream
    generator (bit-identical to :func:`repro.data.synthetic.generate_synthetic`);
    larger splits are drawn shard-by-shard from per-shard spawned
    streams, optionally across a ``workers``-process pool.  The output
    depends only on ``(spec, shard_size)`` and the engine dtype —
    never on ``workers``.
    """
    workers = resolve_workers(workers)
    shard_size = _resolve_shard_size(shard_size)
    prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
    size = spec.image_size

    splits = {}  # split_offset -> (images, labels)
    tasks = []  # (split_offset, shard_index, start, stop)
    for split_offset, total in ((TRAIN_SPLIT, spec.train_size), (TEST_SPLIT, spec.test_size)):
        shards = plan_shards(total, shard_size)
        if len(shards) <= 1:
            split_rng = np.random.default_rng(spec.seed + split_offset)
            images, labels = _generate_split(spec, prototypes, total, split_rng)
            splits[split_offset] = (images, labels)
            continue
        labels = _split_labels_for(spec, split_offset)
        images = np.empty((total, spec.channels, size, size), dtype=default_dtype())
        splits[split_offset] = (images, labels)
        for index, (start, stop) in enumerate(shards):
            tasks.append((split_offset, index, start, stop))

    if tasks:
        dtype = dtype_name(None)
        if workers > 1 and len(tasks) > 1:
            payloads = [
                (spec, splits[off][1][start:stop], off, index, dtype)
                for off, index, start, stop in tasks
            ]
            ctx = get_context(mp_context)
            with ctx.Pool(processes=min(workers, len(tasks))) as pool:
                for off, index, images in pool.imap_unordered(_shard_task, payloads):
                    start = index * shard_size
                    splits[off][0][start : start + len(images)] = images
        else:
            table = _prototype_table(spec, prototypes)
            for off, index, start, stop in tasks:
                rng = _shard_rng(spec, off, index)
                _sample_images_fast(
                    spec,
                    table,
                    splits[off][1][start:stop],
                    rng,
                    out=splits[off][0][start:stop],
                )

    train = ArrayDataset(*splits[TRAIN_SPLIT])
    test = ArrayDataset(*splits[TEST_SPLIT])
    return train, test


# ----------------------------------------------------------------------
# On-disk dataset cache
# ----------------------------------------------------------------------
def dataset_cache_key(spec, dtype=None, shard_size=None):
    """Content address of one generated dataset.

    Hashes the full spec, the engine dtype the arrays are materialized
    in, and each split's generator id (so a legacy-stream entry and a
    sharded entry of the same spec never collide).  The key is prefixed
    with a human-readable ``name-trainxtest-dtype`` slug for cache
    spelunking.
    """
    dtype = dtype_name(dtype)
    payload = {
        "spec": asdict(spec),
        "dtype": dtype,
        "train_generator": split_generator_id(spec.train_size, shard_size),
        "test_generator": split_generator_id(spec.test_size, shard_size),
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", spec.name)
    return f"{slug}-{spec.train_size}x{spec.test_size}-{dtype}-{digest}"


def dataset_cache(cache_dir):
    """The :class:`~repro.io.DirectoryCache` over ``cache_dir``."""
    return DirectoryCache(cache_dir, DATASET_MANIFEST)


def _load_entry(path):
    """Memory-map one cache entry back into ``(train, test)`` datasets."""

    def load(name):
        return np.load(os.path.join(path, name), mmap_mode="r")

    train = ArrayDataset(load("train_inputs.npy"), load("train_targets.npy"))
    test = ArrayDataset(load("test_inputs.npy"), load("test_targets.npy"))
    return train, test


def load_or_generate(
    spec,
    cache_dir=None,
    workers=None,
    shard_size=None,
    mp_context="spawn",
    max_resident_mb=None,
):
    """Datasets for ``spec`` under the ambient engine dtype, cached on disk.

    With a ``cache_dir``, a warm entry is returned as memory-mapped
    arrays (zero generation work — the acceptance path for repeated
    sweeps); a cold one is streamed shard-by-shard into the cache
    (:func:`repro.data.streaming.stream_dataset`: resumable, ~one shard
    resident per writer, ``max_resident_mb`` bounding the shards in
    flight) and returned memory-mapped, like a warm hit.  Without a
    ``cache_dir`` this is pure in-RAM generation, exactly as the seed
    code behaved.
    """
    if not cache_dir:
        return generate_dataset(spec, workers=workers, shard_size=shard_size, mp_context=mp_context)
    key, _hit = warm_dataset(
        spec,
        cache_dir,
        workers=workers,
        shard_size=shard_size,
        mp_context=mp_context,
        max_resident_mb=max_resident_mb,
    )
    # A complete entry is never committed again, so it is read unlocked.
    return _load_entry(dataset_cache(cache_dir).entry_path(key))


def warm_dataset(
    spec,
    cache_dir,
    workers=None,
    shard_size=None,
    mp_context="spawn",
    max_resident_mb=None,
):
    """Ensure the cache entry for ``spec`` exists; returns ``(key, hit)``.

    ``hit`` is True when the entry was already complete (no generation
    performed).  The sweep engine calls this for every unique dataset
    signature in a grid *before* its workers start, so they
    memory-map shared arrays instead of regenerating them.  Cold
    entries stream shard-by-shard (``max_resident_mb`` bounds the
    shards in flight), so warming a million-sample grid never
    materializes a dataset in RAM; for per-shard accounting use
    :func:`repro.data.streaming.stream_dataset` directly.
    """
    from .streaming import stream_dataset  # streaming builds on this module

    report = stream_dataset(
        spec,
        cache_dir,
        workers=workers,
        shard_size=shard_size,
        max_resident_mb=max_resident_mb,
        mp_context=mp_context,
    )
    return report.key, report.hit
