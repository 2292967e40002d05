"""Serving benchmark: open-loop load against published model artifacts.

Drives the micro-batched inference server with an **open-loop** Poisson
arrival process (submissions follow the schedule regardless of how the
server keeps up — the arrival pattern a public endpoint actually sees)
and reports, per artifact precision:

* **p50 / p99 latency** — submit-to-response wall clock per request;
* **throughput** — served requests over the span from first submission
  to last response;
* **bit_identical** — every served response compared byte-for-byte
  against an offline forward pass of the same model the artifact was
  published from (the serving layer's determinism contract: for the
  PTQ artifact that offline model is the
  ``quantize_weights_and_activations`` output itself).

Three artifacts are exercised: float32, uniform w8/a8 PTQ, and a
mixed-precision (8/4-bit alternating) weight assignment.

``--history N[,N...]`` adds the history axis: for each N, a fresh
server directory gets N finished batch records (written through the
batch journal, with their inputs already in ``served/``, the state
serving leaves), one batch leased by another worker and three requests
waiting in the batcher.  It then times an idle ``BatchJournal.claim``
and a ``MicroBatcher.poll`` ``HISTORY_CALLS`` times each, alternating
between the directories after ``HISTORY_WARMUP`` untimed rounds, and
reports the median and interquartile range.  Both should stay flat
from N=0 to N=10,000.

Standalone smoke mode (no pytest-benchmark needed — used by CI)::

    PYTHONPATH=src python benchmarks/bench_serving.py --requests 24 \
        --rate 300 --history 0,2000 --json results/serving.json
"""

import argparse
import json
import math
import os
import shutil
import tempfile
import threading
import time

import numpy as np

from repro import nn
from repro.messages import BatchRecordV1
from repro.models import create_model
from repro.quant import quantize_weights_and_activations
from repro.quant.sensitivity import apply_mixed_precision
from repro.serving import (
    BatchJournal,
    InferenceServer,
    MicroBatcher,
    RequestStore,
    mixed_weight_quant,
    model_spec,
    publish_artifact,
    uniform_weight_quant,
)
from repro.tensor import Tensor, no_grad

MODEL = dict(name="resnet8", num_classes=10, in_channels=3, scale=0.5, image_size=8)
HISTORY_CALLS = 200
HISTORY_WARMUP = 20


def build_artifacts(cache_dir, seed):
    """Publish float32 / PTQ / mixed artifacts; return (label, key, offline)."""
    rng = np.random.default_rng(seed)
    model = create_model(
        MODEL["name"],
        num_classes=MODEL["num_classes"],
        in_channels=MODEL["in_channels"],
        scale=MODEL["scale"],
        seed=seed,
        image_size=MODEL["image_size"],
    )
    model.eval()
    spec = model_spec(**MODEL)
    calibration = [
        (
            rng.standard_normal(
                (16, MODEL["in_channels"], MODEL["image_size"], MODEL["image_size"])
            ).astype(np.float32),
            None,
        )
    ]

    ptq = quantize_weights_and_activations(
        model, weight_bits=8, act_bits=8, batches=calibration
    )
    layer_names = [
        name
        for name, module in model.named_modules()
        if isinstance(module, (nn.Conv2d, nn.Linear))
    ]
    assignment = {
        name: (8 if index % 2 == 0 else 4) for index, name in enumerate(layer_names)
    }
    mixed, _report = apply_mixed_precision(model, assignment)
    mixed.eval()

    artifacts = [
        ("float32", publish_artifact(model, spec, cache_dir=cache_dir), model),
        (
            "ptq_w8a8",
            publish_artifact(
                ptq, spec, cache_dir=cache_dir, weight_quant=uniform_weight_quant(8)
            ),
            ptq,
        ),
        (
            "mixed_w8_4",
            publish_artifact(
                mixed,
                spec,
                cache_dir=cache_dir,
                weight_quant=mixed_weight_quant(assignment),
            ),
            mixed,
        ),
    ]
    return [(label, manifest.key, offline) for label, manifest, offline in artifacts]


def percentile(values, q):
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[index]


def drive_open_loop(server, xs, rate, seed):
    """Submit ``xs`` on a Poisson schedule; collect per-request latency.

    A collector thread polls outstanding responses while submission is
    still in flight, so early responses are timestamped when they land,
    not when the driver gets around to waiting on them.
    """
    client = server.client()
    rng = np.random.default_rng(seed)
    schedule = np.cumsum(rng.exponential(1.0 / rate, size=len(xs)))
    submitted = []  # (request_id, submit_wall)
    latencies = {}
    responses = {}
    lock = threading.Lock()
    done = threading.Event()

    def collect():
        outstanding = {}
        ingested = 0
        while True:
            with lock:
                while ingested < len(submitted):
                    request_id, at = submitted[ingested]
                    ingested += 1
                    outstanding[request_id] = at
            finished = []
            for request_id, at in outstanding.items():
                response = client.store.try_response(request_id)
                if response is not None:
                    latencies[request_id] = time.perf_counter() - at
                    responses[request_id] = response
                    finished.append(request_id)
            for request_id in finished:
                del outstanding[request_id]
            if done.is_set() and not outstanding and len(latencies) == len(xs):
                return
            time.sleep(0.0005)

    collector = threading.Thread(target=collect)
    collector.start()
    start = time.perf_counter()
    order = []
    for index, x in enumerate(xs):
        now = time.perf_counter() - start
        if schedule[index] > now:
            time.sleep(schedule[index] - now)
        at = time.perf_counter()
        request_id = client.submit(x)
        order.append(request_id)
        with lock:
            submitted.append((request_id, at))
    done.set()
    collector.join(timeout=60.0)
    if len(latencies) != len(xs):
        raise TimeoutError(f"only {len(latencies)}/{len(xs)} requests served")
    span = max(
        at + latencies[request_id] for request_id, at in submitted
    ) - submitted[0][1]
    return (
        [latencies[request_id] for request_id in order],
        [responses[request_id] for request_id in order],
        span,
    )


def bench_artifact(label, key, offline, cache_dir, args):
    """One artifact's open-loop run; returns the report row."""
    xs = [
        np.random.default_rng(args.seed + 1000 + i)
        .standard_normal((1, MODEL["in_channels"], MODEL["image_size"], MODEL["image_size"]))
        .astype(np.float32)
        for i in range(args.requests)
    ]
    offline.eval()
    with no_grad():
        references = [offline(Tensor(x)).data for x in xs]
    server = InferenceServer(
        key,
        cache_dir=cache_dir,
        name=f"bench-{label}",
        workers=args.workers,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
    )
    with server:
        latencies, responses, span = drive_open_loop(server, xs, args.rate, args.seed)
    stats = server.write_stats()
    identical = all(
        np.array_equal(response, reference)
        for response, reference in zip(responses, references)
    )
    return {
        "artifact": label,
        "key": key,
        "requests": args.requests,
        "rate_per_s": args.rate,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "throughput_per_s": args.requests / span if span > 0 else float("inf"),
        "batches": stats.batches_total,
        "mean_batch_fill": stats.served_total / stats.batches_total
        if stats.batches_total
        else 0.0,
        "bit_identical": identical,
    }


def finished_record(key, request_ids, at):
    """The record a cleanly served batch leaves behind."""
    return BatchRecordV1(
        key=key,
        status="done",
        requests=list(request_ids),
        attempts=1,
        worker=None,
        leased_at=None,
        lease_expires=None,
        created_at=at,
        finished_at=at,
        error=None,
    ).to_dict()


def quartiles_ms(samples):
    q1, median, q3 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1)}


def timed(call):
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def history_server(base, finished):
    """``(journal, batcher)`` over ``finished`` served batches plus in-flight work."""
    root = os.path.join(base, "serving", f"history-{finished}")
    journal = BatchJournal(root, lease_timeout=3600.0)
    store = RequestStore(root)
    x = np.zeros((1, MODEL["in_channels"], MODEL["image_size"], MODEL["image_size"]), np.float32)
    for seq in range(finished):
        key, request_id = f"batch-{seq:08d}", f"old-{seq:08d}"
        store.submit(x, request_id)
        record = finished_record(key, [request_id], store.clock())
        journal.journal.update(key, lambda _current, record=record: record)
        store.retire([request_id])
    # In-flight work: one batch leased by a busy worker, three requests
    # admitted and waiting for a deadline that never comes.  The leased
    # batch keeps them held, so every timed poll also lists the open index.
    batcher = MicroBatcher(root, journal, max_delay=3600.0)
    for index in range(2):
        store.submit(x, f"live-{index}")
    batcher.poll(force=True)
    if journal.claim("busy") is None:
        raise RuntimeError("history bench: the in-flight batch was not claimable")
    for index in range(3):
        store.submit(x, f"wait-{index}")
    batcher.poll()
    return journal, batcher


def bench_history(base, sizes, calls=HISTORY_CALLS):
    """Idle-claim and batcher-poll latency at each finished-batch count.

    Every directory is built before any timing, and the timed calls
    alternate between them, so all sizes see the same machine state
    (building 10,000 records leaves writeback behind it).
    """
    def idle_claim(journal):
        if journal.claim("idle") is not None:
            raise RuntimeError("history bench: an idle claim found work")

    servers = [history_server(base, finished) for finished in sizes]
    samples = [([], []) for _ in sizes]
    for index in range(HISTORY_WARMUP + calls):
        for (journal, batcher), (claims, polls) in zip(servers, samples):
            claim = timed(lambda: idle_claim(journal))
            poll = timed(batcher.poll)
            if index >= HISTORY_WARMUP:
                claims.append(claim)
                polls.append(poll)
    return [
        {
            "finished_batches": finished,
            "calls": calls,
            "claim_idle_ms": quartiles_ms(claims),
            "batcher_poll_ms": quartiles_ms(polls),
        }
        for finished, (claims, polls) in zip(sizes, samples)
    ]


def history_sizes(text):
    sizes = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sizes or sizes[0] < 0:
        raise argparse.ArgumentTypeError("--history takes non-negative counts, e.g. 0,1000,10000")
    return sizes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=48, help="requests per artifact")
    parser.add_argument("--rate", type=float, default=400.0, help="arrival rate (req/s)")
    parser.add_argument("--workers", type=int, default=2, help="server worker threads")
    parser.add_argument("--max-batch", type=int, default=8, help="micro-batch ceiling")
    parser.add_argument(
        "--max-delay-ms", type=float, default=5.0,
        help="longest a request waits while a batch is open",
    )
    parser.add_argument("--seed", type=int, default=0, help="load + weights seed")
    parser.add_argument(
        "--history",
        type=history_sizes,
        help="also time idle claims and batcher polls at these finished-batch counts",
    )
    parser.add_argument("--json", help="dump raw results to this path")
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="bench-serving-")
    rows = []
    try:
        artifacts = build_artifacts(tmp, args.seed)
        for label, key, offline in artifacts:
            rows.append(bench_artifact(label, key, offline, tmp, args))
            row = rows[-1]
            check = "bit-identical" if row["bit_identical"] else "MISMATCH"
            print(
                f"{label:12s} p50 {row['p50_ms']:6.2f}ms  p99 {row['p99_ms']:6.2f}ms  "
                f"{row['throughput_per_s']:7.1f} req/s  "
                f"fill {row['mean_batch_fill']:.2f}  {check}"
            )
        history = bench_history(tmp, args.history) if args.history else []
        for row in history:
            claim, poll = row["claim_idle_ms"], row["batcher_poll_ms"]
            print(
                f"history {row['finished_batches']:6d}  idle claim {claim['median']:.3f}ms "
                f"(IQR {claim['iqr']:.3f})  batcher poll {poll['median']:.3f}ms "
                f"(IQR {poll['iqr']:.3f})  n={row['calls']}"
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    payload = {
        "model": MODEL,
        "workers": args.workers,
        "max_batch": args.max_batch,
        "max_delay_ms": args.max_delay_ms,
        "results": rows,
        "history": history,
    }
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"raw results -> {args.json}")
    return 0 if all(row["bit_identical"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
