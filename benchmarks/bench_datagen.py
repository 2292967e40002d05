"""Dataset-generation pipeline benchmark: loop vs vectorized vs sharded.

The seed generator built every image in a per-sample Python loop; the
pipeline (``repro.data.pipeline``) vectorizes the sampler, shards large
datasets across processes, and memoizes whole datasets under an on-disk
cache that sweep workers memory-map.  This bench quantifies each stage
on the default profile:

* ``loop`` — the seed per-image sampler (kept as the parity reference).
* ``vectorized`` — the batched sampler, bit-identical stream to the loop.
* ``sharded`` — the v2 sharded generator (engine-dtype native, per-shard
  spawned streams), serial and with a worker pool.
* ``cache_store`` / ``cache_load`` — cold streamed write and warm
  memory-map of the dataset cache (a warm sweep performs zero
  generation work).
* ``rss`` — the **peak-RSS axis**, each side measured in a fresh
  subprocess: in-RAM ``generate_dataset`` (the whole dataset resident)
  vs the streamed cache write (shards written straight into the staged
  memmap entry, pages evicted per shard).  The acceptance number is
  ``rss.streamed.shard_ratio`` — streamed peak growth in units of one
  shard, which must stay near 1 (< ~1.5) however large the dataset is,
  while the in-RAM ratio grows with the dataset.  See
  ``docs/memory-model.md``.

Standalone smoke mode (no pytest-benchmark needed — used by CI)::

    PYTHONPATH=src python benchmarks/bench_datagen.py --train-size 50000 \
        --json results/datagen.json
"""

import argparse
import gc
import json
import os
import shutil
import tempfile
import time
from multiprocessing import get_context

import numpy as np

from repro.data import (
    generate_dataset,
    generate_synthetic,
    load_or_generate,
    resolve_spec,
    stream_dataset,
)
from repro.data.synthetic import _class_prototypes, _sample_images, _sample_images_loop, _split_labels

PROFILE = "cifar10_like"


def _setup(train_size):
    spec = resolve_spec(PROFILE, train_size=train_size)
    prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
    labels = _split_labels(spec, spec.train_size, np.random.default_rng(spec.seed + 1))
    return spec, prototypes, labels


def generate_dataset_loop(spec):
    """Full dataset generation exactly as the seed code did it.

    Prototypes plus both splits drawn with the per-image loop sampler
    on the legacy streams — the like-for-like baseline for every
    pipeline variant below (same work, same outputs as the v1 path).
    """
    prototypes = _class_prototypes(spec, np.random.default_rng(spec.seed))
    splits = []
    for offset, total in ((1, spec.train_size), (2, spec.test_size)):
        rng = np.random.default_rng(spec.seed + offset)
        labels = _split_labels(spec, total, rng)
        splits.append((_sample_images_loop(spec, prototypes, labels, rng), labels))
    return splits


# ----------------------------------------------------------------------
# Peak-RSS axis (streamed cold cache write vs in-RAM generation)
# ----------------------------------------------------------------------
def _proc_status_kb(field):
    """A ``VmHWM``/``VmRSS``-style field from ``/proc/self/status`` (KiB)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _reset_peak_rss():
    """Reset this process's RSS high-water mark (Linux ``clear_refs``).

    Needed because the kernel can carry the parent's high-water mark
    across fork+exec, which would swamp the probe's own peak; after the
    reset, ``VmHWM`` tracks only what the probe itself touches.
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _rss_probe(mode, train_size, shard_size, cache_dir, conn):
    """Subprocess entry point: one generation, peak RSS reported.

    ``mode`` is ``"in_ram"`` (``generate_dataset``, no cache) or
    ``"streamed"`` (a cold write into the dataset cache).  Runs in its
    own interpreter with the peak-RSS counter reset after imports, so
    the reported delta isolates the generator's working set from both
    the interpreter+numpy baseline and anything inherited from the
    bench parent.
    """
    spec = resolve_spec(PROFILE, train_size=train_size)
    _reset_peak_rss()
    before = _proc_status_kb("VmRSS")
    if mode == "streamed":
        stream_dataset(spec, cache_dir, workers=1, shard_size=shard_size)
    else:
        generate_dataset(spec, workers=1, shard_size=shard_size)
    peak = _proc_status_kb("VmHWM")
    conn.send({"before_kb": before, "peak_kb": peak})
    conn.close()


def run_rss_axis(shards=4, shard_size=65_536, out=print):
    """Measure peak RSS, in-RAM vs streamed; returns a dict.

    Generates a ``shards``-shard training split (``shards * shard_size``
    samples) twice — in RAM, then streamed into a throwaway cache —
    each in its own spawned subprocess.  Reported per mode: absolute peak, the delta over the
    post-import baseline, and that delta in units of one shard
    (``shard_ratio``) — the streamed writer's acceptance bound is
    staying below ~1.5 shards regardless of dataset size.
    """
    from repro.data.streaming import shard_nbytes

    spec = resolve_spec(PROFILE, train_size=shards * shard_size)
    shard_bytes = shard_nbytes(spec, shard_size)
    dataset_bytes = shard_bytes * shards
    results = {
        "train_size": spec.train_size,
        "shards": shards,
        "shard_size": shard_size,
        "shard_mb": shard_bytes / 2**20,
        "dataset_mb": dataset_bytes / 2**20,
    }
    ctx = get_context("spawn")
    for mode in ("in_ram", "streamed"):
        cache_dir = tempfile.mkdtemp(prefix=f"bench-datagen-rss-{mode}.")
        try:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_rss_probe,
                args=(mode, spec.train_size, shard_size, cache_dir, child_conn),
            )
            proc.start()
            child_conn.close()
            try:
                payload = parent_conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"rss probe subprocess ({mode}) died with exit code "
                    f"{proc.exitcode} before reporting"
                ) from None
            proc.join()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # /proc/self/status values are KiB; the axis targets Linux (CI).
        delta = max(0, payload["peak_kb"] - payload["before_kb"]) * 1024
        results[mode] = {
            "peak_kb": payload["peak_kb"],
            "delta_mb": delta / 2**20,
            "shard_ratio": delta / shard_bytes,
        }
        out(
            f"rss {mode:9s}:  {delta / 2**20:8.1f} MB over baseline "
            f"({results[mode]['shard_ratio']:.2f} shards of {shard_bytes / 2**20:.0f} MB; "
            f"dataset {dataset_bytes / 2**20:.0f} MB)"
        )
    ratio = results["streamed"]["shard_ratio"]
    if ratio > 1.5:
        out(f"WARNING: streamed peak RSS is {ratio:.2f} shards (expected < ~1.5)")
    return results


# The pytest-benchmark datagen axis lives in benchmarks/bench_engine.py;
# this module is the standalone smoke tool CI runs.
def _best_of(fn, rounds=3, warmup=1):
    """Minimum wall-clock of ``rounds`` runs (after ``warmup`` unmeasured ones).

    Dataset generation is deterministic, so the minimum is the right
    statistic: every run does identical work and anything above the
    minimum is scheduler/cache interference.
    """
    result = None
    for _ in range(warmup):
        result = fn()
    times = []
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def run_smoke(
    train_size=50_000,
    workers=None,
    rounds=3,
    rss=True,
    rss_shards=4,
    rss_shard_size=65_536,
    out=print,
):
    """Time every pipeline stage (best of ``rounds``); returns a JSON dict.

    ``speedups`` are ratios of the seed loop's sampling time to each
    pipeline variant's time for the same work (the acceptance number is
    ``speedups["sharded"]``); cache timings are absolute seconds.  The
    peak-RSS axis (``rss`` key, see :func:`run_rss_axis`) compares the
    in-RAM and streamed working sets.
    """
    workers = workers or (os.cpu_count() or 1)
    spec, prototypes, labels = _setup(train_size)
    results = {
        "profile": PROFILE,
        "train_size": spec.train_size,
        "workers": workers,
        "rounds": rounds,
    }

    t_shard, _ = _best_of(lambda: generate_dataset(spec, workers=1), rounds)
    t_pool = None
    if workers > 1:
        t_pool, _ = _best_of(lambda: generate_dataset(spec, workers=workers), rounds)

    # Sampler-level parity check (cheap: one small draw, exact equality).
    small = labels[:2048]
    reference = _sample_images_loop(spec, prototypes, small, np.random.default_rng(1))
    vectorized = _sample_images(spec, prototypes, small, np.random.default_rng(1))
    assert np.array_equal(reference, vectorized), "vectorized sampler lost stream parity"
    del reference, vectorized

    # Every timed variant does the same full-dataset work (prototypes,
    # label shuffles, both splits) and gets the same warmup treatment,
    # so the reported ratios compare like with like.
    t_vec, _ = _best_of(lambda: generate_synthetic(spec), rounds)
    t_loop, _ = _best_of(lambda: generate_dataset_loop(spec), rounds)

    out(f"seed loop:            {t_loop:8.3f}s  ({spec.train_size}+{spec.test_size} samples)")
    out(f"vectorized (parity):  {t_vec:8.3f}s  -> {t_loop / t_vec:.1f}x")
    out(f"sharded, serial:      {t_shard:8.3f}s  -> {t_loop / t_shard:.1f}x")
    if t_pool is not None:
        out(f"sharded, {workers} workers:  {t_pool:8.3f}s  -> {t_loop / t_pool:.1f}x")

    cache_dir = tempfile.mkdtemp(prefix="bench-datagen-cache.")
    try:
        start = time.perf_counter()
        load_or_generate(spec, cache_dir=cache_dir, workers=workers)
        t_store = time.perf_counter() - start
        start = time.perf_counter()
        load_or_generate(spec, cache_dir=cache_dir, workers=workers)
        t_load = time.perf_counter() - start
        out(f"cache cold streamed:  {t_store:8.3f}s")
        out(f"cache warm mmap load: {t_load:8.3f}s  (zero generation work)")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    best_sharded = min(t_shard, t_pool) if t_pool is not None else t_shard
    results["runs"] = {
        "loop_seconds": t_loop,
        "vectorized_seconds": t_vec,
        "sharded_serial_seconds": t_shard,
        "sharded_pool_seconds": t_pool,
        "cache_store_seconds": t_store,
        "cache_load_seconds": t_load,
    }
    results["speedups"] = {
        "vectorized": t_loop / t_vec,
        "sharded": t_loop / best_sharded,
    }
    if rss:
        try:
            results["rss"] = run_rss_axis(
                shards=rss_shards, shard_size=rss_shard_size, out=out
            )
        except Exception as exc:  # non-Linux host, /proc unavailable, ...
            out(f"rss axis skipped: {type(exc).__name__}: {exc}")
            results["rss"] = {"error": f"{type(exc).__name__}: {exc}"}
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--train-size", type=int, default=50_000, help="samples to generate (default: 50k)"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="pool size for the sharded pass"
    )
    parser.add_argument(
        "--no-rss",
        action="store_true",
        help="skip the peak-RSS axis (streamed cache write vs in-RAM generation)",
    )
    parser.add_argument(
        "--rss-shards",
        type=int,
        default=4,
        help="shards in the RSS axis's training split (default: 4)",
    )
    parser.add_argument(
        "--rss-shard-size",
        type=int,
        default=65_536,
        help="samples per shard for the RSS axis (default: 65536, ~48 MB)",
    )
    parser.add_argument("--json", default=None, help="write timings to this JSON path")
    args = parser.parse_args(argv)
    results = run_smoke(
        train_size=args.train_size,
        workers=args.workers,
        rss=not args.no_rss,
        rss_shards=args.rss_shards,
        rss_shard_size=args.rss_shard_size,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"timings -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
