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

``--history N[,N...]`` adds the history axis: for each N, a fresh
queue gets N ``done`` tasks (entries written through the queue's
journal, as a drained sweep leaves them) and nothing open.  It then
times an idle ``TaskQueue.claim`` and the ``drained()`` check a worker
runs after it ``HISTORY_CALLS`` times each, alternating between the
queues after ``HISTORY_WARMUP`` untimed rounds, and reports the median
and interquartile range plus the journal entries read per idle claim.
All should stay flat from N=0 to N=10,000.

Standalone smoke mode (no pytest-benchmark needed — used by CI)::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --runs 4 \
        --workers 2 --history 0,2000 --json results/scheduler.json
"""

import argparse
import json
import os
import shutil
import tempfile
import time

import numpy as np

from repro.experiments import (
    RunRecord,
    TaskQueue,
    expand_grid,
    make_config,
    run_sweep,
)
from repro.experiments.reporting import record_to_dict
from repro.experiments.scheduler import DONE, new_entry
from repro.io import JsonJournal
from repro.tensor import dtype_name

HISTORY_CALLS = 200
HISTORY_WARMUP = 20


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


def finished_entry(config, at):
    """The journal entry a task that ran cleanly leaves behind."""
    entry = new_entry(config, now=at)
    record = RunRecord(key=entry["key"], config=config, status="ok", seconds=0.0)
    return dict(
        entry,
        status=DONE,
        attempts=1,
        started_at=at,
        finished_at=at,
        record=record_to_dict(record, include_config=False),
    )


def history_queue(base, finished):
    """A queue holding ``finished`` done tasks and no open work."""
    queue = TaskQueue.create(base, f"history-{finished}")
    configs = smoke_grid(finished)
    now = time.time()
    for config in configs:
        entry = finished_entry(config, now)
        queue.journal.update(entry["key"], lambda _current, entry=entry: entry)
    queue._extend_manifest([config.cache_key() for config in configs])
    if queue.claim("warmup") is not None:  # builds the (empty) open index
        raise RuntimeError("history bench: a drained queue had a claimable task")
    return queue


def quartiles_ms(samples):
    q1, median, q3 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1)}


def bench_history(base, sizes, calls=HISTORY_CALLS):
    """Idle-claim and ``drained()`` latency at each done-task count.

    Every queue is built before any timing, and the timed calls
    alternate between them, so all sizes see the same machine state.
    Journal reads are counted over the timed idle claims.
    """
    reads = [0]
    original = JsonJournal.read

    def counted(journal, key):
        reads[0] += 1
        return original(journal, key)

    queues = [history_queue(base, finished) for finished in sizes]
    samples = [([], [], []) for _ in sizes]
    for index in range(HISTORY_WARMUP + calls):
        for queue, (claims, drains, claim_reads) in zip(queues, samples):
            reads[0] = 0
            JsonJournal.read = counted
            try:
                started = time.perf_counter()
                entry = queue.claim("idle")
                claim = time.perf_counter() - started
            finally:
                JsonJournal.read = original
            if entry is not None:
                raise RuntimeError("history bench: an idle claim found work")
            started = time.perf_counter()
            queue.drained()
            drained = time.perf_counter() - started
            if index >= HISTORY_WARMUP:
                claims.append(claim)
                drains.append(drained)
                claim_reads.append(reads[0])
    return [
        {
            "done_tasks": finished,
            "calls": calls,
            "claim_idle_ms": quartiles_ms(claims),
            "drained_ms": quartiles_ms(drains),
            "reads_per_idle_claim": sum(claim_reads) / len(claim_reads),
        }
        for finished, (claims, drains, claim_reads) in zip(sizes, samples)
    ]


def history_sizes(text):
    sizes = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sizes or sizes[0] < 0:
        raise argparse.ArgumentTypeError("--history takes non-negative counts, e.g. 0,2000,10000")
    return sizes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=4, help="grid size (default: 4)")
    parser.add_argument("--workers", type=int, default=2, help="parallel workers")
    parser.add_argument("--ops", type=int, default=200, help="journal-op count")
    parser.add_argument(
        "--history",
        type=history_sizes,
        help="also time idle claims and drained() at these done-task counts",
    )
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
    history = []
    if args.history:
        tmp = tempfile.mkdtemp(prefix="bench-history-")
        try:
            history = bench_history(tmp, args.history)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    for row in history:
        claim, drained = row["claim_idle_ms"], row["drained_ms"]
        print(
            f"history {row['done_tasks']:6d}  idle claim {claim['median']:.3f}ms "
            f"(IQR {claim['iqr']:.3f})  drained {drained['median']:.3f}ms "
            f"(IQR {drained['iqr']:.3f})  reads/claim {row['reads_per_idle_claim']:.1f}  "
            f"n={row['calls']}"
        )
    payload = {"journal_ops": ops, "end_to_end": e2e, "history": history,
               "runs": args.runs, "workers": args.workers}
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"raw timings -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
