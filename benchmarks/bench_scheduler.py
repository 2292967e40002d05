"""Sweep scheduler benchmark: serial vs queue vs resume, and journal overhead.

Two questions, measured separately:

* **Journal overhead** — enqueue/claim/resolve throughput with no-op
  tasks.  Every queue transition is a locked read-modify-write of a
  JSON file, so this bounds how fine-grained queued tasks can be;
  training runs are seconds-to-hours, so thousands of ops/sec means
  the journal is invisible in practice.
* **End-to-end** — one smoke grid through the serial loop and through
  the queue (``workers`` local worker processes), plus a queue *resume*
  pass (everything served from the journal — the number that should be
  near zero).

Standalone smoke mode (no pytest-benchmark needed — used by CI)::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --runs 4 \
        --workers 2 --json results/scheduler.json
"""

import argparse
import json
import os
import shutil
import tempfile
import time

from repro.experiments import (
    RunRecord,
    TaskQueue,
    expand_grid,
    make_config,
    run_sweep,
)
from repro.tensor import dtype_name


def smoke_grid(n):
    base = make_config(
        "ResNet20-fast", "cifar10_like", "sgd", profile="smoke", epochs=1
    )
    base = base.with_overrides(dtype=dtype_name(None))
    return expand_grid(base, seed=list(range(n)))


def bench_journal_ops(ops):
    """Ops/sec for the three journal transitions, no training attached."""
    configs = smoke_grid(ops)
    tmp = tempfile.mkdtemp(prefix="bench-queue-")
    try:
        queue = TaskQueue.create(tmp, "bench")
        start = time.perf_counter()
        queue.enqueue(configs)
        enqueue_s = time.perf_counter() - start

        start = time.perf_counter()
        claimed = []
        while True:
            entry = queue.claim("bench-worker")
            if entry is None:
                break
            claimed.append(entry)
        claim_s = time.perf_counter() - start

        start = time.perf_counter()
        for entry, config in zip(claimed, configs):
            record = RunRecord(
                key=entry["key"], config=config, status="ok", seconds=0.0
            )
            queue.resolve(entry["key"], "bench-worker", record)
        resolve_s = time.perf_counter() - start
        assert queue.drained()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "tasks": ops,
        "enqueue_per_s": ops / enqueue_s if enqueue_s else float("inf"),
        "claim_per_s": ops / claim_s if claim_s else float("inf"),
        "resolve_per_s": ops / resolve_s if resolve_s else float("inf"),
    }


def bench_end_to_end(runs, workers):
    """Wall-clock of the same grid serially and on the queue (fresh caches)."""
    configs = smoke_grid(runs)
    results = {}
    tmp = tempfile.mkdtemp(prefix="bench-sched-")
    try:
        for name, count in (("serial", 1), ("queue", workers)):
            cache = os.path.join(tmp, name)
            start = time.perf_counter()
            report = run_sweep(configs, workers=count, cache_dir=cache, mp_context="fork")
            results[name] = time.perf_counter() - start
            assert report.n_errors == 0, f"{name} sweep reported errors"
        # resume: the whole grid is served from the queue journal
        start = time.perf_counter()
        report = run_sweep(configs, workers=workers, cache_dir=os.path.join(tmp, "queue"))
        results["queue_resume"] = time.perf_counter() - start
        assert report.resumed == len(configs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=4, help="grid size (default: 4)")
    parser.add_argument("--workers", type=int, default=2, help="parallel workers")
    parser.add_argument("--ops", type=int, default=200, help="journal-op count")
    parser.add_argument("--json", help="dump raw timings to this path")
    args = parser.parse_args(argv)

    ops = bench_journal_ops(args.ops)
    print(
        f"journal ops ({ops['tasks']} tasks): "
        f"enqueue {ops['enqueue_per_s']:.0f}/s, claim {ops['claim_per_s']:.0f}/s, "
        f"resolve {ops['resolve_per_s']:.0f}/s"
    )
    e2e = bench_end_to_end(args.runs, args.workers)
    print(
        f"grid of {args.runs} ({args.workers} workers): "
        + ", ".join(f"{name} {seconds:.2f}s" for name, seconds in e2e.items())
    )
    payload = {"journal_ops": ops, "end_to_end": e2e,
               "runs": args.runs, "workers": args.workers}
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"raw timings -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
