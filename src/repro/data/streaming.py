"""Streaming shard writer: the one writer of the on-disk dataset cache.

Every cold dataset-cache entry is generated here and flows to disk
without a whole-dataset copy in RAM (in-RAM
:func:`repro.data.pipeline.generate_dataset` remains for callers with
no cache directory):

* **Pre-allocated memmaps** — the staged cache entry's ``.npy`` files
  are created up front (sparse, full final size) inside the
  :class:`~repro.io.DirectoryCache` staging directory, and generation
  workers write their **disjoint shard slices** directly into them.
  The dataset is never whole in any process's memory.
* **A per-shard completion journal** — one :class:`~repro.io.JsonJournal`
  record per shard (``pending → writing → done``) lives next to the
  staged arrays.  An interrupted ``datagen`` (Ctrl-C, SIGKILL, machine
  loss) resumes by regenerating **only the shards not journaled
  ``done``; shard streams are pure functions of ``(spec, split,
  shard)``, so a resumed entry is bit-identical to an uninterrupted
  one.
* **Atomic commit** — once every shard is ``done`` the bookkeeping is
  stripped and the staging directory is renamed over the live entry
  under the cache's per-key lock.  Readers only ever see a missing
  entry or a complete one.
* **Bounded residency** — after each shard the writer flushes and
  drops its mapped pages (:func:`evict`), so peak RSS stays near one
  shard per concurrent writer regardless of dataset size;
  ``max_resident_mb`` additionally caps how many writers may hold a
  shard in flight at once.

The written bytes are **bit-identical to in-RAM generation**: a
one-shard split is the legacy v1 stream written into its memmap, and
multi-shard splits use the same per-shard generator streams, pinned by
the generator golden hashes.  See ``docs/memory-model.md`` for the full
memory model, including the read side (the out-of-core
:class:`~repro.data.dataset.DataLoader` mode).
"""

import contextlib
import json
import mmap
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context

import numpy as np
from numpy.lib.format import open_memmap

from ..io import JsonJournal, atomic_write_json, file_lock
from ..messages import MessageError, ShardRecordV1
from ..messages import parse as parse_message
from ..tensor import default_dtype, dtype_context, dtype_name
from .pipeline import (
    TEST_SPLIT,
    TRAIN_SPLIT,
    _prototype_table,
    _resolve_shard_size,
    _sample_images_fast,
    _shard_rng,
    _split_labels_for,
    dataset_cache,
    dataset_cache_key,
    plan_shards,
    resolve_workers,
    split_generator_id,
)
from .synthetic import _class_prototypes, _generate_split

#: Shard journal states (the durable-task vocabulary shared with the
#: sweep scheduler's queue journal — see ``docs/memory-model.md``).
SHARD_PENDING, SHARD_WRITING, SHARD_DONE = "pending", "writing", "done"

#: Journal directory and staging descriptor inside a staged entry.
#: Dot-named so they can never collide with manifest files.
SHARD_JOURNAL_DIR = ".shards"
STAGING_META = ".staging-meta.json"

#: Version of the staging layout; a mismatch wipes the staging dir.
STAGING_VERSION = 1

#: ``(file prefix, per-split RNG offset)`` for the two splits.
SPLITS = (("train", TRAIN_SPLIT), ("test", TEST_SPLIT))


def shard_nbytes(spec, shard_size=None):
    """Bytes one full input shard occupies in the engine dtype."""
    shard_size = _resolve_shard_size(shard_size)
    features = spec.channels * spec.image_size * spec.image_size
    return shard_size * features * default_dtype().itemsize


def evict(array):
    """Flush and drop the resident pages behind a memmap-backed array.

    Walks ``array``'s base chain to the underlying :class:`numpy.memmap`
    (if any), ``msync``\\ s dirty pages to disk and advises the kernel
    the mapping is no longer needed (``MADV_DONTNEED``), so the pages
    stop counting against this process's RSS.  The data stays valid —
    a later access simply rereads from the page cache or disk.  Returns
    True when a mapping was evicted, False for plain in-RAM arrays.
    """
    base = array
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    if base is None:
        return False
    base.flush()
    mapping = getattr(base, "_mmap", None)
    if mapping is not None and hasattr(mapping, "madvise"):
        with contextlib.suppress(OSError, ValueError):
            mapping.madvise(mmap.MADV_DONTNEED)
    return True


def shard_key(split, index):
    """Journal key of one shard (``train-00003``)."""
    return f"{split}-{index:05d}"


def shard_journal(staging):
    """The per-shard :class:`~repro.io.JsonJournal` of a staged entry."""
    return JsonJournal(os.path.join(staging, SHARD_JOURNAL_DIR))


@dataclass
class SplitShards:
    """Per-split shard accounting of one :func:`stream_dataset` call."""

    split: str
    shards: int  #: total shards in the split's layout
    generated: list = field(default_factory=list)  #: indices written this call
    resumed: list = field(default_factory=list)  #: indices already journaled done

    @property
    def cached(self):
        """Shards served without generation (resumed or whole-entry hit)."""
        return self.shards - len(self.generated)


@dataclass
class StreamReport:
    """What :func:`stream_dataset` did, at shard granularity."""

    key: str
    path: str
    shard_size: int
    hit: bool = False  #: entry was already complete; nothing was staged
    splits: list = field(default_factory=list)
    seconds: float = 0.0
    workers: int = 1

    @property
    def total_shards(self):
        return sum(split.shards for split in self.splits)

    @property
    def n_generated(self):
        return sum(len(split.generated) for split in self.splits)

    @property
    def n_resumed(self):
        return sum(len(split.resumed) for split in self.splits)

    def to_dict(self):
        """JSON-safe summary (what the ``datagen`` CLI dumps)."""
        return {
            "key": self.key,
            "path": self.path,
            "shard_size": self.shard_size,
            "hit": self.hit,
            "seconds": self.seconds,
            "workers": self.workers,
            "splits": [
                {
                    "split": split.split,
                    "shards": split.shards,
                    "generated": list(split.generated),
                    "resumed": list(split.resumed),
                    "cached": split.cached,
                }
                for split in self.splits
            ],
        }


# ----------------------------------------------------------------------
# Staging layout
# ----------------------------------------------------------------------
def _staging_descriptor(spec, shard_size):
    """The descriptor a resumable staging dir must match exactly."""
    return {
        "version": STAGING_VERSION,
        "spec": asdict(spec),
        "dtype": dtype_name(None),
        "shard_size": shard_size,
        "generators": {
            name: split_generator_id(total, shard_size)
            for name, total in (("train", spec.train_size), ("test", spec.test_size))
        },
    }


def _read_staging_descriptor(staging):
    try:
        with open(os.path.join(staging, STAGING_META)) as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _split_totals(spec):
    return {"train": spec.train_size, "test": spec.test_size}


def _allocate_staging(cache, key, spec, shard_size):
    """Create (or validate and reuse) the staged memmap layout for ``key``.

    The descriptor is written *after* the arrays are allocated, so its
    presence certifies a complete layout: a process killed mid-allocation
    leaves no descriptor and the next attempt wipes and restarts.  A
    descriptor for a different spec/dtype/shard layout also wipes — the
    staging dir can never be resumed into the wrong entry.
    """
    staging = cache.staging_path(key)
    descriptor = _staging_descriptor(spec, shard_size)
    if _read_staging_descriptor(staging) == descriptor:
        return staging, True
    cache.discard_staging(key)
    os.makedirs(staging)
    size = spec.image_size
    for name, total in _split_totals(spec).items():
        inputs = open_memmap(
            os.path.join(staging, f"{name}_inputs.npy"),
            mode="w+",
            dtype=default_dtype(),
            shape=(total, spec.channels, size, size),
        )
        del inputs  # header written, file sized; pages stay untouched
        targets = open_memmap(
            os.path.join(staging, f"{name}_targets.npy"),
            mode="w+",
            dtype=np.int64,
            shape=(total,),
        )
        del targets
    atomic_write_json(os.path.join(staging, STAGING_META), descriptor)
    return staging, False


def _open_inputs(staging, split, mode="r+"):
    return open_memmap(os.path.join(staging, f"{split}_inputs.npy"), mode=mode)


def _open_targets(staging, split, mode="r+"):
    return open_memmap(os.path.join(staging, f"{split}_targets.npy"), mode=mode)


def _journal_transition(journal, key, status, *, split, index, start=None, stop=None):
    """Write one shard's state as a validated :class:`ShardRecordV1`.

    Every transition rewrites the full record (the previous state
    contributes nothing a caller doesn't re-supply), so an invalid
    shard record can never be journaled.
    """
    record = ShardRecordV1(
        shard=key,
        status=status,
        updated_at=time.time(),
        pid=os.getpid(),
        split=split,
        index=index,
        start=start,
        stop=stop,
    )
    return journal.update(key, lambda current: record.to_dict())


def _parse_shard_state(journal, staging):
    """The shard journal's snapshot, validated at the read boundary.

    A record the message layer rejects — foreign fields, a missing
    status, bytes from some future layout — aborts the resume with a
    typed error naming the shard, instead of silently regenerating (or
    worse, silently *skipping*) work.
    """
    state = {}
    for key, payload in journal.snapshot().items():
        try:
            state[key] = parse_message("data.shard_record", payload).to_dict()
        except MessageError as exc:
            raise type(exc)(f"shard record {key!r} in {staging}: {exc}") from exc
    return state


def _write_shard(staging, spec, split, offset, index, start, stop, table):
    """Draw one v2 shard straight into its memmap slice, then evict it.

    The journal transition to ``writing`` happens before the first
    byte lands and ``done`` only after the slice is flushed, so a kill
    at any instant leaves the journal conservative: a shard is either
    provably complete or it will be regenerated.
    """
    journal = shard_journal(staging)
    key = shard_key(split, index)
    _journal_transition(journal, key, SHARD_WRITING, split=split, index=index,
                        start=start, stop=stop)
    inputs = _open_inputs(staging, split)
    labels = np.asarray(_open_targets(staging, split, mode="r")[start:stop])
    rng = _shard_rng(spec, offset, index)
    _sample_images_fast(spec, table, labels, rng, out=np.asarray(inputs[start:stop]))
    evict(inputs)
    _journal_transition(journal, key, SHARD_DONE, split=split, index=index,
                        start=start, stop=stop)


def _stream_shard_task(task):
    """Pool entry point: stream one shard in a worker process.

    Module-level so it pickles under ``spawn``.  Only the spec and the
    shard coordinates cross the process boundary — labels are read back
    from the staged targets memmap, and the sampled images never leave
    the worker except through the shared file.
    """
    staging, spec, split, offset, index, start, stop, dtype = task
    with dtype_context(dtype):
        prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
        table = _prototype_table(spec, prototypes)
        _write_shard(staging, spec, split, offset, index, start, stop, table)
    return split, index


def _write_v1_split(staging, spec, split, offset):
    """Write a single-shard split with the legacy (v1) generator stream."""
    prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
    split_rng = np.random.default_rng(spec.seed + offset)
    images, labels = _generate_split(
        spec, prototypes, _split_totals(spec)[split], split_rng
    )
    inputs = _open_inputs(staging, split)
    targets = _open_targets(staging, split)
    inputs[:] = images
    targets[:] = labels
    evict(inputs)
    evict(targets)


def _resident_cap(spec, shard_size, max_resident_mb):
    """How many shards may be in flight inside ``max_resident_mb``."""
    if max_resident_mb is None:
        return None
    budget = int(max_resident_mb * 2**20)
    return max(1, budget // max(1, shard_nbytes(spec, shard_size)))


# ----------------------------------------------------------------------
# The streaming writer
# ----------------------------------------------------------------------
def stream_dataset(
    spec,
    cache_dir,
    workers=None,
    shard_size=None,
    max_resident_mb=None,
    mp_context="spawn",
    progress=None,
):
    """Generate ``spec``'s cache entry by streaming shards to disk.

    Resumable and bit-identical to in-RAM generation: shards already
    journaled ``done`` in the staging directory are skipped, the rest
    are drawn from their per-shard streams directly into the staged
    memmaps (``workers``-parallel, capped so at most
    ``max_resident_mb`` worth of shards is in flight), and the entry is
    committed atomically once the journal is fully ``done``.  Returns a
    :class:`StreamReport`; ``progress`` (optional) is called as
    ``progress(split, index, state)`` after each shard with ``state``
    in ``("generated", "resumed")``.

    Concurrent streamers of the same key serialize on a staging lock;
    the loser wakes up to a complete entry and reports a hit.  A
    crashed streamer's ``flock`` dies with it, so the staging area is
    never wedged.
    """
    if not cache_dir:
        raise ValueError(
            "stream_dataset writes through the dataset cache; cache_dir is required"
        )
    workers = resolve_workers(workers)
    shard_size = _resolve_shard_size(shard_size)
    cache = dataset_cache(cache_dir)
    key = dataset_cache_key(spec, dtype=None, shard_size=shard_size)
    start_time = time.perf_counter()

    def hit_report():
        splits = [
            SplitShards(split=name, shards=len(plan_shards(total, shard_size)))
            for name, total in _split_totals(spec).items()
        ]
        return StreamReport(
            key=key,
            path=cache.entry_path(key),
            shard_size=shard_size,
            hit=True,
            splits=splits,
            seconds=time.perf_counter() - start_time,
            workers=workers,
        )

    if cache.complete(key):
        return hit_report()

    os.makedirs(cache.root, exist_ok=True)
    with file_lock(cache.staging_path(key) + ".lock"):
        if cache.complete(key):  # a concurrent streamer committed while we waited
            return hit_report()
        staging, _resumed_layout = _allocate_staging(cache, key, spec, shard_size)
        journal = shard_journal(staging)
        state = _parse_shard_state(journal, staging)

        splits, tasks = [], []
        for name, offset in SPLITS:
            total = _split_totals(spec)[name]
            shards = plan_shards(total, shard_size)
            split_report = SplitShards(split=name, shards=len(shards))
            splits.append(split_report)
            done = {
                entry["index"]
                for entry in state.values()
                if entry["split"] == name and entry["status"] == SHARD_DONE
            }
            if len(shards) <= 1:
                if 0 in done:
                    split_report.resumed.append(0)
                else:
                    tasks.append((name, offset, 0, None, None))
                continue
            # v2 split: the label shuffle is deterministic and cheap, so
            # (re)write the targets whenever any shard still needs work —
            # workers read their label slices back from this memmap.
            missing = [i for i in range(len(shards)) if i not in done]
            split_report.resumed.extend(sorted(done))
            if missing:
                targets = _open_targets(staging, name)
                targets[:] = _split_labels_for(spec, offset)
                evict(targets)
            for index in missing:
                lo, hi = shards[index]
                tasks.append((name, offset, index, lo, hi))

        for split_report in splits:
            for index in split_report.resumed:
                if progress is not None:
                    progress(split_report.split, index, "resumed")

        v1_tasks = [t for t in tasks if t[3] is None]
        v2_tasks = [t for t in tasks if t[3] is not None]
        by_split = {split_report.split: split_report for split_report in splits}

        for name, offset, index, _lo, _hi in v1_tasks:
            jkey = shard_key(name, index)
            _journal_transition(journal, jkey, SHARD_WRITING, split=name, index=index)
            _write_v1_split(staging, spec, name, offset)
            _journal_transition(journal, jkey, SHARD_DONE, split=name, index=index)
            by_split[name].generated.append(index)
            if progress is not None:
                progress(name, index, "generated")

        if v2_tasks:
            cap = _resident_cap(spec, shard_size, max_resident_mb)
            pool_size = min(workers, len(v2_tasks))
            if cap is not None:
                pool_size = min(pool_size, cap)
            dtype = dtype_name(None)
            if pool_size > 1:
                payloads = [
                    (staging, spec, name, offset, index, lo, hi, dtype)
                    for name, offset, index, lo, hi in v2_tasks
                ]
                ctx = get_context(mp_context)
                with ctx.Pool(processes=pool_size) as pool:
                    for name, index in pool.imap_unordered(_stream_shard_task, payloads):
                        by_split[name].generated.append(index)
                        if progress is not None:
                            progress(name, index, "generated")
            else:
                prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
                table = _prototype_table(spec, prototypes)
                for name, offset, index, lo, hi in v2_tasks:
                    _write_shard(staging, spec, name, offset, index, lo, hi, table)
                    by_split[name].generated.append(index)
                    if progress is not None:
                        progress(name, index, "generated")

        for split_report in splits:
            split_report.generated.sort()
        _commit_staged(cache, key, staging, spec, shard_size, splits)

    return StreamReport(
        key=key,
        path=cache.entry_path(key),
        shard_size=shard_size,
        splits=splits,
        seconds=time.perf_counter() - start_time,
        workers=workers,
    )


def _commit_staged(cache, key, staging, spec, shard_size, splits):
    """Verify the journal, strip bookkeeping, publish the entry.

    The commit sequence is crash-ordered: the journal and descriptor
    are removed only immediately before the rename, so a kill anywhere
    earlier leaves a staging dir the next attempt resumes (or, past
    the descriptor removal, wipes and rebuilds) — never a half-live
    entry.
    """
    journal = shard_journal(staging)
    state = _parse_shard_state(journal, staging)
    missing = [
        shard_key(split.split, index)
        for split in splits
        for index in range(split.shards)
        if state.get(shard_key(split.split, index), {}).get("status") != SHARD_DONE
    ]
    if missing:
        raise RuntimeError(
            f"streamed entry {key!r} cannot commit; shards not done: {missing}"
        )
    meta = {
        "spec": asdict(spec),
        "dtype": dtype_name(None),
        "shard_size": shard_size,
        "train_generator": split_generator_id(spec.train_size, shard_size),
        "test_generator": split_generator_id(spec.test_size, shard_size),
    }
    with open(os.path.join(staging, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    shutil.rmtree(os.path.join(staging, SHARD_JOURNAL_DIR), ignore_errors=True)
    os.remove(os.path.join(staging, STAGING_META))
    cache.commit_staging(key)
