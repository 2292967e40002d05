"""Workload ``sweep-smoke``: a sweep of many short runs.

Run as a script, this file is the workload process::

    python perfbench/sweep_smoke.py --seed 3 --out result.json [--setup-only] [--trace DIR]

It calls ``run_sweep`` on the ``sweep`` verb's default grid
(ResNet20-fast and MobileNetV2-fast x hero, grad_l1 and sgd on
cifar10_like) at the ``smoke`` profile over four seeds derived from
``--seed`` — 24 runs — with ``workers=2``, into the fresh cache the
parent gives it, and no ``scheduler`` argument, so it follows the
default executor.  One op is one run; its latency is the run record's
``seconds``.

``--trace DIR`` passes :class:`SweepProbe` as ``callback_factory``: it
installs span wrappers inside each pool worker and flushes them after
every run's cache publish, because pool workers are terminated rather
than exited.  The sweep process itself traces the dataset warm pass and
marks the ``run_sweep`` call and return.

Imported, it provides the parent side: :func:`measure` and :func:`traced`.
"""

import time

START = time.time()  # process start, before repro is imported

import argparse  # noqa: E402
import glob  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
from tracing import Trace, Tracer  # noqa: E402

NAME = "sweep-smoke"
SEEDS_PER_GRID = 4
WORKERS = 2
SETUP_PROBES = 3
#: At least two sweeps, so the tail has ten samples beyond it; at most
#: four, so it stays the p75 (120 runs would move it to the p90).
MIN_UNITS = 2
MAX_UNITS = 4
UNIT_TIMEOUT = 120.0


def grid(seed):
    from repro.experiments.cli import (
        SWEEP_DEFAULT_DATASETS,
        SWEEP_DEFAULT_METHODS,
        SWEEP_DEFAULT_MODELS,
    )
    from repro.experiments.config import make_grid

    def csv(value):
        return [item for item in value.split(",") if item]

    seeds = [seed * SEEDS_PER_GRID + i for i in range(SEEDS_PER_GRID)]
    return make_grid(
        csv(SWEEP_DEFAULT_MODELS),
        csv(SWEEP_DEFAULT_DATASETS),
        csv(SWEEP_DEFAULT_METHODS),
        seeds=seeds,
        profile="smoke",
    )


def check_sweep(configs, records, cache_dir):
    """Reasons the sweep's output is wrong (empty = ok).

    Every record must be ``ok`` and the run cache must hold exactly one
    complete entry per config.
    """
    from repro.experiments.runner import _cache_complete

    problems = [f"run {r['key']} is {r['status']}: {r['error']}" for r in records if r["status"] != "ok"]
    keys = {config.cache_key() for config in configs}
    if {r["key"] for r in records} != keys:
        problems.append("records do not match the grid")
    # Run keys are 16 hex digits; the cache also holds datasets/ and locks.
    entries = {
        name
        for name in os.listdir(cache_dir)
        if len(name) == 16 and os.path.isdir(os.path.join(cache_dir, name))
    }
    if entries != keys:
        problems.append(f"{len(entries)} run-cache entries for {len(keys)} configs")
    problems += [
        f"cache entry {key} incomplete"
        for key in sorted(keys)
        if not _cache_complete(os.path.join(cache_dir, key))
    ]
    return problems


# ----------------------------------------------------------------------
# Traced sweep workers
# ----------------------------------------------------------------------
#: One tracer per worker process.  The factory is unpickled afresh for
#: every task, so the process-wide tracer cannot live on it.
_TRACERS = {}


def _worker_tracer(trace_dir):
    tracer = _TRACERS.get(trace_dir)
    if tracer is not None:
        return tracer
    from repro.core import Trainer
    from repro.core.erm import ERMTrainer
    from repro.core.gradl1 import GradL1Trainer
    from repro.core.hero import HEROTrainer
    from repro.io import DirectoryCache

    tracer = _TRACERS[trace_dir] = Tracer(keep=("experiments.train_begin", "experiments.train_end"))
    tracer.wrap(Trainer, "fit", "core.fit")
    for cls in (ERMTrainer, GradL1Trainer, HEROTrainer):
        tracer.wrap(cls, "training_step", f"core.step.{cls.method_name}")
    publish = DirectoryCache.__dict__["publish"]
    flushes = iter(range(1 << 30))

    def traced_publish(cache, key, build):
        tracer.begin("io.cache_publish")
        try:
            return publish(cache, key, build)
        finally:
            tracer.end()
            tracer.flush(os.path.join(trace_dir, f"worker-{os.getpid()}-{next(flushes)}.json"))

    tracer.replace(DirectoryCache, "publish", traced_publish)
    return tracer


class SweepProbe:
    """``callback_factory`` of the traced sweep (picklable)."""

    def __init__(self, trace_dir):
        self.trace_dir = trace_dir

    def __call__(self, config):
        from repro.core.trainer import Callback

        tracer = _worker_tracer(self.trace_dir)
        tracer.op = config.cache_key()

        class RunMarks(Callback):
            def on_train_begin(self, trainer):
                tracer.mark("experiments.train_begin")

            def on_train_end(self, trainer):
                tracer.mark("experiments.train_end")

        return [RunMarks()]


def workload(argv=None):
    parser = argparse.ArgumentParser(description="sweep-smoke workload process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="directory for the span files")
    parser.add_argument("--corrupt", action="store_true", help="drop one cache entry before the check")
    args = parser.parse_args(argv)

    from repro.experiments import sweep
    from repro.experiments.runner import default_cache_dir
    from repro.experiments.sweep import run_sweep

    configs = grid(args.seed)
    kwargs = {}
    tracer = None
    if args.trace:
        tracer = Tracer(keep=("experiments.sweep_call", "experiments.sweep_return"))
        tracer.wrap(sweep, "warm_datasets", "data.warm")
        kwargs["callback_factory"] = SweepProbe(args.trace)
    called = time.time()
    if args.setup_only:
        common.write_json(args.out, {"setup_s": called - START})
        return 0
    if tracer is not None:
        tracer.mark("experiments.sweep_call")
    begin = time.perf_counter()
    report = run_sweep(configs, workers=WORKERS, **kwargs)
    wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.mark("experiments.sweep_return")
        tracer.uninstall()
        tracer.flush(os.path.join(args.trace, "parent.json"))
    if args.corrupt:
        shutil.rmtree(os.path.join(default_cache_dir(), configs[0].cache_key()))
    records = [
        {
            "key": r.key,
            "method": r.config.method,
            "status": r.status,
            "seconds": r.seconds,
            "error": r.error,
        }
        for r in report.records
    ]
    common.write_json(
        args.out,
        {
            "setup_s": called - START,
            "wall_s": wall,
            "workers": report.workers,
            "records": records,
            "problems": check_sweep(configs, records, default_cache_dir()),
        },
    )
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _launch(run_dir, seed, extra=()):
    path, env = run_dir.env("sweep")
    out = os.path.join(path, "out.json")
    script = os.path.join(common.BENCH_DIR, "sweep_smoke.py")
    argv = [sys.executable, script, "--seed", str(seed), "--out", out, *extra]
    _child, rusage = common.run_child(argv, env, path, UNIT_TIMEOUT)
    result = common.read_json(out)
    result["cpu_s"] = common.cpu_seconds(rusage)
    result["rss_mb"] = common.rss_mb(rusage)
    return result


def executor_overhead(unit):
    """``wall_s`` minus the run time each worker would need with perfect packing."""
    return unit["wall_s"] - sum(r["seconds"] for r in unit["records"]) / unit["workers"]


def measure(run_dir, seed, seconds, corrupt=False):
    """End-to-end report of the workload (untraced units)."""
    setups = [_launch(run_dir, seed, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    units = common.repeat(
        lambda index: _launch(run_dir, seed, ["--corrupt"] if corrupt and index == 0 else []),
        seconds,
        minimum=MIN_UNITS,
        maximum=MAX_UNITS,
    )
    setups += [u["setup_s"] for u in units]
    latencies = [r["seconds"] for u in units for r in u["records"]]
    return common.summarize(
        setups,
        units,
        latencies,
        ops_per_s=len(latencies) / sum(u["wall_s"] for u in units),
        failed=sum(len(u["records"]) for u in units if u["problems"]),
        problems=[p for u in units for p in u["problems"]],
        executor_overhead_s=[round(executor_overhead(u), 4) for u in units],
    )


def traced(run_dir, seed):
    """Per-layer rows ``{name: (value, unit, n)}``: an untraced and a traced unit."""
    plain = _launch(run_dir, seed)
    trace_dir = run_dir.fresh("sweep-trace")
    unit = _launch(run_dir, seed, ["--trace", trace_dir])
    trace = Trace(sorted(glob.glob(os.path.join(trace_dir, "*.json"))))
    call = trace.named("experiments.sweep_call")[0][3]
    returned = trace.named("experiments.sweep_return")[0][3]
    begins = [span[3] for span in trace.named("experiments.train_begin")]
    ends = [span[3] for span in trace.named("experiments.train_end")]
    fit = trace.per_op("core.fit")
    fixed = [r["seconds"] - fit[r["key"]] for r in unit["records"] if r["key"] in fit]
    publish_ms, publishes = trace.per_call_ms("io.cache_publish")
    rows = {
        "experiments.executor_overhead_s": (executor_overhead(plain), "s", len(plain["records"])),
        "data.warm_s": (trace.total("data.warm"), "s", trace.total("data.warm", field="count")),
        "experiments.first_start_s": (min(begins) - call, "s", len(begins)),
        "experiments.tail_s": (returned - max(ends), "s", len(ends)),
        "experiments.run_fixed_ms": (common.mean(fixed) * 1e3, "ms", len(fixed)),
        "io.cache_publish_ms": (publish_ms, "ms", publishes),
    }
    for method in ("sgd", "grad_l1", "hero"):
        value, count = trace.per_call_ms(f"core.step.{method}")
        rows[f"core.step_ms.{method}"] = (value, "ms", count)
    rows["sweep-smoke.trace_overhead_pct"] = ((unit["wall_s"] / plain["wall_s"] - 1.0) * 100.0, "%", 1)
    problems = plain["problems"] + unit["problems"]
    runs = len(plain["records"]) + len(unit["records"])
    failed = sum(len(u["records"]) for u in (plain, unit) if u["problems"])
    return rows, problems, runs, failed


if __name__ == "__main__":
    sys.exit(workload())
