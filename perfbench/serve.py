"""Workload ``serve-w8a8-20rps``: open-loop serving of a w8a8 PTQ artifact.

The artifact is the ``benchmarks/bench_serving.py`` model — resnet8 x0.5
on 8x8 inputs with seeded weights and activation ranges calibrated on
seeded inputs — published as a w8a8 PTQ artifact.  The server is the
real ``serve-model`` CLI in its own process with its defaults (2
workers, ``max_batch`` 8, 10 ms deadline), so the client threads never
share its interpreter lock.  This process is the load generator: one
thread submits 300 requests on a Poisson schedule at 20 req/s, one
thread collects responses.  One op is one request, timed from when it
was due until the collector sees its response.

Every batch record stays in the server's journal and each idle claim
re-reads them all, so latency grows with the number of batches served:
the request count is part of the workload.

All timestamps use ``time.time()``, the clock the server stamps its
request and batch records with, so the breakdown below telescopes:
``late + batch_wait + serve + seen`` is exactly the request latency.
"""

import os
import signal
import statistics
import sys
import threading
import time

import numpy as np

import common
from tracing import Trace

NAME = "serve-w8a8-20rps"
MODEL = dict(name="resnet8", num_classes=10, in_channels=3, scale=0.5, image_size=8)
RATE = 20.0
REQUESTS = 300
BLOCK = 30  # requests per stratum of the arrival schedule
SETUP_PROBES = 3
RESPONSE_TIMEOUT = 30.0
POLL = 0.001
SERVER_MAX_SECONDS = "150"
STOP_TIMEOUT = 20.0


def publish(cache_dir, seed):
    """Publish the w8a8 artifact; returns its key."""
    from repro.models import create_model
    from repro.quant import quantize_weights_and_activations
    from repro.serving import model_spec, publish_artifact, uniform_weight_quant

    model = create_model(
        MODEL["name"],
        num_classes=MODEL["num_classes"],
        in_channels=MODEL["in_channels"],
        scale=MODEL["scale"],
        seed=seed,
        image_size=MODEL["image_size"],
    )
    model.eval()
    shape = (16, MODEL["in_channels"], MODEL["image_size"], MODEL["image_size"])
    calibration = [(np.random.default_rng(seed).standard_normal(shape).astype(np.float32), None)]
    ptq = quantize_weights_and_activations(model, weight_bits=8, act_bits=8, batches=calibration)
    manifest = publish_artifact(
        ptq, model_spec(**MODEL), cache_dir=cache_dir, weight_quant=uniform_weight_quant(8)
    )
    return manifest.key


def inputs(seed, count):
    shape = (1, MODEL["in_channels"], MODEL["image_size"], MODEL["image_size"])
    return [np.random.default_rng([seed, i]).standard_normal(shape).astype(np.float32) for i in range(count)]


def warmup_input(seed):
    return inputs(seed + 1, 1)[0]


def offline_outputs(key, cache_dir, xs):
    """The reference: a forward of the published artifact per input."""
    from repro.serving import load_artifact
    from repro.tensor import Tensor, no_grad

    model = load_artifact(key, cache_dir).build_model()
    model.eval()
    with no_grad():
        return [model(Tensor(x)).data for x in xs]


def check_responses(responses, references):
    """Per request: ``None`` when bit-identical, else the reason it failed."""
    verdicts = []
    for response, reference in zip(responses, references):
        if isinstance(response, str):
            verdicts.append(response)
        elif response.dtype != reference.dtype or not np.array_equal(response, reference):
            verdicts.append("response differs from the offline forward")
        else:
            verdicts.append(None)
    return verdicts


class Server:
    """One ``serve-model`` process over a fresh server directory."""

    def __init__(self, key, env, log_dir, name, trace_path=None):
        from repro.serving import RequestStore, server_root

        entry = ["-m", "repro.experiments"]
        if trace_path is not None:
            entry = [os.path.join(common.BENCH_DIR, "serve_launcher.py"), trace_path]
        argv = [sys.executable, "-X", "faulthandler", *entry, "serve-model", "--artifact", key,
                "--server-name", name, "--max-seconds", SERVER_MAX_SECONDS]
        self.root = server_root(name, env["REPRO_CACHE_DIR"])
        self.store = RequestStore(self.root)
        self.child = common.Child(argv, env, log_dir)

    def first_response(self, x):
        """Seconds from launch until the response to ``x`` (the cold start)."""
        request_id = self.store.submit(x, request_id="warmup")
        deadline = time.time() + 60.0
        while self.store.try_response(request_id) is None:
            if time.time() > deadline or self.child.proc.poll() is not None:
                raise RuntimeError(f"server did not answer its warm-up request:\n{self.child.tail()}")
            time.sleep(POLL)
        return time.time() - self.child.launched

    def stop(self):
        """Stop the server with SIGINT, the verb's own stop signal.

        A server still up after ``STOP_TIMEOUT`` gets SIGABRT, so
        faulthandler dumps every thread's stack into its log before the
        run fails.
        """
        self.child.interrupt()
        code, rusage = self.child.wait(STOP_TIMEOUT, signal.SIGABRT)
        if code != 0:
            raise RuntimeError(f"server exited {code}:\n{self.child.tail(60)}")
        return rusage


def drive(store, xs, schedule):
    """Open-loop load; returns ``(due, seen, responses)`` per request."""
    from repro.serving import ServingError

    n = len(xs)
    due = [0.0] * n
    seen = [None] * n
    responses = ["no response within the timeout"] * n
    submitted = []
    lock = threading.Lock()
    done = threading.Event()
    deadline = []  # set with ``done``: when the collector gives up

    def collect():
        outstanding = {}
        taken = 0
        while True:
            with lock:
                fresh, taken = submitted[taken:], len(submitted)
            outstanding.update(fresh)
            for index, request_id in list(outstanding.items()):
                try:
                    response = store.try_response(request_id)
                except ServingError as exc:
                    response = str(exc)
                if response is not None:
                    seen[index] = time.time()
                    responses[index] = response
                    del outstanding[index]
            if done.is_set() and (not outstanding or time.time() > deadline[0]):
                return
            time.sleep(POLL)

    collector = threading.Thread(target=collect, name="collector")
    collector.start()
    start = time.time() + 0.05
    for index, x in enumerate(xs):
        due[index] = start + schedule[index]
        delay = due[index] - time.time()
        if delay > 0:
            time.sleep(delay)
        request_id = store.submit(x, request_id=f"r{index:05d}")
        with lock:
            submitted.append((index, request_id))
    deadline.append(time.time() + RESPONSE_TIMEOUT)
    done.set()
    collector.join()
    return due, seen, responses


def breakdown(root, due, seen):
    """Record-derived stages per request, from the files the server left."""
    from repro.serving import BatchJournal, RequestStore

    store = RequestStore(root)
    records = BatchJournal(root).snapshot()
    created = {}
    fills = []
    for record in records.values():
        load = [r for r in record.requests if r != "warmup"]
        if load:
            fills.append(len(load))
        for request_id in record.requests:
            created[request_id] = record.created_at
    stages = {"late": [], "batch_wait": [], "serve": [], "seen": [], "latency": []}
    for index, (due_at, seen_at) in enumerate(zip(due, seen)):
        request_id = f"r{index:05d}"
        response = os.path.join(store.responses_dir, request_id + ".npy")
        if seen_at is None or request_id not in created or not os.path.exists(response):
            continue
        _x, submitted_at = store.load(request_id)
        written = os.stat(response).st_mtime
        stages["late"].append(submitted_at - due_at)
        stages["batch_wait"].append(created[request_id] - submitted_at)
        stages["serve"].append(written - created[request_id])
        stages["seen"].append(seen_at - written)
        stages["latency"].append(seen_at - due_at)
    return stages, fills, len(records)


def arrivals(seed):
    """Arrival offsets of a Poisson process at ``RATE``, stratified.

    Every block of ``BLOCK`` requests gets the same gaps — the ``BLOCK``
    evenly spaced quantiles of the exponential distribution — in an
    order the seed shuffles, and the offsets are rescaled to span exactly
    ``REQUESTS / RATE``.  Each 1.5 s of the run thus offers the same
    bursts of independent users at exactly 20 req/s, and only where they
    fall within a block depends on the seed.  Drawing the gaps afresh
    spread ``wall_s`` by ~6% and the p50 by ~25% from seed to seed, and
    a single shuffle of all 300 gaps still moved the tail by ~25%
    depending on whether the bursts landed late, when the journal is
    longest.
    """
    gaps = -np.log1p(-(np.arange(BLOCK) + 0.5) / BLOCK)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(gaps) for _ in range(REQUESTS // BLOCK)])
    return np.cumsum(order) * (REQUESTS / RATE / order.sum())


def unit(key, cache_dir, run_dir, seed, trace_path=None):
    """One server lifetime under the 300-request load."""
    xs = inputs(seed, REQUESTS)
    schedule = arrivals(seed)
    path, env = run_dir.env("server")
    env["REPRO_CACHE_DIR"] = cache_dir
    server = Server(key, env, path, os.path.basename(path), trace_path)
    try:
        setup = server.first_response(warmup_input(seed))
        cpu = time.process_time()
        due, seen, responses = drive(server.store, xs, schedule)
        client_cpu = time.process_time() - cpu
        rusage = server.stop()
    finally:
        server.child.kill()
    answered = [t for t in seen if t is not None]
    return {
        "setup_s": setup,
        "due": due,
        "seen": seen,
        "responses": responses,
        "latencies": [s - d for s, d in zip(seen, due) if s is not None],
        "wall_s": max(answered) - due[0] if answered else float("nan"),
        "answered": len(answered),
        "cpu_s": common.cpu_seconds(rusage) + client_cpu,
        "client_cpu_s": client_cpu,
        "rss_mb": common.rss_mb(rusage),
        "root": server.root,
        "xs": xs,
    }


def setup_probe(key, cache_dir, run_dir, x):
    path, env = run_dir.env("probe")
    env["REPRO_CACHE_DIR"] = cache_dir
    server = Server(key, env, path, os.path.basename(path))
    try:
        setup = server.first_response(x)
        server.stop()
    finally:
        server.child.kill()
    return setup


def _prepare(run_dir, seed):
    cache_dir = run_dir.fresh("artifacts")
    return cache_dir, publish(cache_dir, seed)


def _stage_metrics(stages, fills, history):
    ms = {name: [v * 1e3 for v in values] for name, values in stages.items()}
    n = len(ms["latency"])
    parts = sum(common.mean(ms[name]) for name in ("late", "batch_wait", "serve", "seen"))
    return {
        "serving.batch_wait_ms": (common.mean(ms["batch_wait"]), "ms", n),
        "serving.serve_ms": (common.mean(ms["serve"]), "ms", n),
        "serving.seen_ms": (common.mean(ms["seen"]), "ms", n),
        "serving.batch_fill": (common.mean(fills), "req/batch", len(fills)),
        "serving.history_batches": (history, "count", 1),
        "loadgen.late_ms": (statistics.median(ms["late"]), "ms", n),
        "loadgen.late_max_ms": (max(ms["late"]), "ms", n),
        "serve-w8a8-20rps.request_mean_ms": (common.mean(ms["latency"]), "ms", n),
        "serve-w8a8-20rps.request_accounted_frac": (parts / common.mean(ms["latency"]), "ratio", n),
    }


def _verdicts(result, key, cache_dir, corrupt=False):
    references = offline_outputs(key, cache_dir, result["xs"])
    responses = list(result["responses"])
    if corrupt and not isinstance(responses[0], str):
        flipped = responses[0].copy()
        flipped.view(np.uint32).flat[0] ^= 1
        responses[0] = flipped
    return check_responses(responses, references)


def measure(run_dir, seed, seconds, corrupt=False):
    """End-to-end report plus the record-derived stage breakdown."""
    cache_dir, key = _prepare(run_dir, seed)
    setups = [setup_probe(key, cache_dir, run_dir, warmup_input(seed)) for _ in range(SETUP_PROBES)]

    def one_unit(index):
        result = unit(key, cache_dir, run_dir, seed)
        result["verdicts"] = _verdicts(result, key, cache_dir, corrupt and index == 0)
        result["problems"] = [v for v in result["verdicts"] if v is not None]
        return result

    units = common.repeat(one_unit, seconds)
    setups += [u["setup_s"] for u in units]
    # Unanswered requests have no latency; they count as failed ops.
    latencies = [v for u in units for v in u["latencies"]]
    verdicts = [v for u in units for v in u["verdicts"]]
    failures = [v for v in verdicts if v is not None]
    stages = _stage_metrics(*breakdown(units[0]["root"], units[0]["due"], units[0]["seen"]))
    report = common.summarize(
        setups,
        units,
        latencies,
        ops_per_s=sum(u["answered"] for u in units) / sum(u["wall_s"] for u in units),
        failed=len(failures),
        problems=sorted(set(failures)),
        client_cpu_s=[round(u["client_cpu_s"], 3) for u in units],
        stages={name: [round(v[0], 4), v[1], v[2]] for name, v in stages.items()},
    )
    report["attempted"] = len(verdicts)
    report["metrics"]["ok_frac"] = common.metric((len(verdicts) - len(failures)) / len(verdicts), "ratio")
    return report


def traced(run_dir, seed):
    """Per-layer rows: the record breakdown of an untraced unit plus a traced server."""
    cache_dir, key = _prepare(run_dir, seed)
    plain = unit(key, cache_dir, run_dir, seed)
    trace_path = os.path.join(run_dir.fresh("serve-trace"), "server.json")
    result = unit(key, cache_dir, run_dir, seed, trace_path=trace_path)
    verdicts = _verdicts(plain, key, cache_dir) + _verdicts(result, key, cache_dir)
    rows = _stage_metrics(*breakdown(plain["root"], plain["due"], plain["seen"]))
    trace = Trace([trace_path])
    idle = trace.total("serving.claim_idle", field="count")
    hits = trace.total("serving.claim_hit", field="count")
    writes = trace.total("io.atomic_write", field="count")
    reads = trace.total("io.journal_read", root="serving.claim", field="count")

    def per_call(name, root=None):
        value, count = trace.per_call_ms(name, root=root)
        return value, "ms", count

    rows.update({
        "serving.claim_idle_ms": per_call("serving.claim_idle"),
        "serving.claim_hit_ms": per_call("serving.claim_hit"),
        "serving.claims_per_batch": ((idle + hits) / hits, "ratio", hits),
        "io.reads_per_claim": (reads / (idle + hits), "count", idle + hits),
        "io.atomic_write_ms": per_call("io.atomic_write"),
        "io.atomic_writes_per_batch": (writes / hits, "count", hits),
        "serving.forward_ms": per_call("nn.forward", root="serving.serve_batch"),
        "serving.load_ms": per_call("serving.load", root="serving.serve_batch"),
        "serving.respond_ms": per_call("serving.respond", root="serving.serve_batch"),
        "serving.batcher_poll_ms": per_call("serving.batcher_poll"),
        "serve-w8a8-20rps.trace_overhead_pct": (
            (statistics.median(result["latencies"]) / statistics.median(plain["latencies"]) - 1.0) * 100.0,
            "%",
            len(result["latencies"]),
        ),
    })
    failures = [v for v in verdicts if v is not None]
    return rows, sorted(set(failures)), len(verdicts), len(failures)
