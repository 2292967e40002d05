"""Per-step training cost of the four methods, across engine dtypes.

The paper argues HERO's Hessian regularization needs "only one
additional backpropagation" on top of the SAM-style perturbed pass.
This bench measures the realized per-batch cost: SGD is one
forward/backward, first-order two, GRAD-L1 one plus a double-backward,
HERO two plus a double-backward — so HERO should land within a small
constant factor (~3-5x) of SGD, not asymptotically worse.

The dtype axis demonstrates the precision policy's payoff: the same
training step under the float32 policy versus float64.  The engine is
memory-bandwidth bound at this scale, so float32 should be measurably
faster on every method.

Each cell (``method/dtype``) also records a tracemalloc allocation profile
(``alloc_peak_bytes`` — transient high-water mark of one step;
``alloc_net_blocks`` — net new live blocks) so CI can catch allocation
regressions, which are machine-independent unlike wall-clock.

Standalone smoke mode (no pytest-benchmark needed — used by CI)::

    PYTHONPATH=src python benchmarks/bench_step_cost.py --steps 3 \
        --json results/step_cost.json

Regression gate against the checked-in baseline (fails the process when
steps/sec drops more than 20% or allocations rise more than 10% on any
cell, or when a measured cell has no unique baseline row)::

    PYTHONPATH=src python benchmarks/bench_step_cost.py --steps 3 \
        --check-baseline benchmarks/baseline_step_cost.json

Regenerate the baseline after an intentional perf change (one line)::

    PYTHONPATH=src python benchmarks/bench_step_cost.py --steps 5 --update-baseline
"""

import argparse
import json
import os
import time
import tracemalloc

import numpy as np

from repro import nn, optim
from repro.core import make_trainer
from repro.data import make_dataset
from repro.messages import parse as parse_message
from repro.models import create_model
from repro.tensor import dtype_context

METHOD_KWARGS = {
    "sgd": {},
    "first_order": {"h": 0.01},
    "grad_l1": {"lambda_l1": 0.002},
    "hero": {"h": 0.01, "gamma": 0.05},
}

DTYPES = ("float32", "float64")

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline_step_cost.json")

# Gate thresholds: wall-clock gets 20% (runner variance), allocation
# metrics are deterministic for a fixed graph so they get 10%.
SPEED_DROP_TOLERANCE = 0.20
ALLOC_RISE_TOLERANCE = 0.10


def make_step(method, dtype="float32"):
    """Build a closure running one training step under ``dtype``."""
    with dtype_context(dtype):
        train, _test, spec = make_dataset("cifar10_like", train_size=64, test_size=32)
        model = create_model("resnet8", num_classes=spec.num_classes, scale=1.0, seed=0)
        loss_fn = nn.CrossEntropyLoss()
        opt = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = make_trainer(method, model, loss_fn, opt, **METHOD_KWARGS[method])
        x, y = train[np.arange(64)]

    def step():
        with dtype_context(dtype):
            trainer.training_step(x, y)
            opt.step()

    return step


def measure_allocations(step):
    """tracemalloc profile of one (warmed) step.

    Returns ``(peak_bytes, net_blocks)``: the transient allocation
    high-water mark above the pre-step level, and the net number of
    blocks still live afterwards.
    """
    tracemalloc.start()
    try:
        step()  # absorb warm-up allocations (index caches)
        before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        current0, _ = tracemalloc.get_traced_memory()
        step()
        current1, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
        net_blocks = sum(
            stat.count_diff for stat in after.compare_to(before, "filename")
        )
        del before, after
        return int(peak - current0), int(net_blocks), int(current1 - current0)
    finally:
        tracemalloc.stop()


def cell_key(cell):
    return "{method}/{dtype}".format(**cell)


def run_smoke(steps=3, methods=None, dtypes=DTYPES, allocations=True):
    """Time ``steps`` training steps per cell; returns a dict.

    ``runs`` holds uniform per-cell timings; the float64/float32 ratios
    live separately under ``speedups`` so timing consumers never mix
    units.
    """
    methods = list(methods or METHOD_KWARGS)
    results = {"steps": steps, "runs": [], "speedups": {}}
    per_method_dtype = {}
    for method in methods:
        for dtype in dtypes:
            step = make_step(method, dtype)
            step()  # warm-up
            start = time.perf_counter()
            for _ in range(steps):
                step()
            seconds = (time.perf_counter() - start) / steps
            entry = {
                "method": method,
                "dtype": dtype,
                # The v1 record keeps its ``fused``/``arena`` fields; both
                # engine paths are gone, so every cell reports them off.
                "fused": False,
                "arena": False,
                "seconds_per_step": seconds,
                "steps_per_sec": 1.0 / seconds,
            }
            if allocations:
                peak, net_blocks, net_bytes = measure_allocations(step)
                entry["alloc_peak_bytes"] = peak
                entry["alloc_net_blocks"] = net_blocks
                entry["alloc_net_bytes"] = net_bytes
            results["runs"].append(entry)
            alloc_note = (
                f", peak {entry['alloc_peak_bytes'] / 1e6:7.1f} MB/step"
                if allocations
                else ""
            )
            print(f"{cell_key(entry):>20}: {seconds * 1e3:8.1f} ms/step{alloc_note}")
            per_method_dtype.setdefault(method, {})[dtype] = seconds
    for method, per_dtype in per_method_dtype.items():
        if "float32" in per_dtype and "float64" in per_dtype:
            results["speedups"][method] = per_dtype["float64"] / per_dtype["float32"]
    return results


def check_baseline(results, baseline_path):
    """Compare a smoke run against the checked-in baseline.

    Returns a list of human-readable violation strings (empty = pass).
    A cell fails when steps/sec drops more than 20% or the transient
    allocation peak rises more than 10%.  The baseline passes through
    the message layer first, so a corrupted or foreign-format baseline
    is a typed schema error, not a silent no-op gate.  A baseline that
    holds two rows for one cell, or none for a measured cell, is a
    violation too: the gate never skips a cell it measured.
    """
    with open(baseline_path) as fh:
        baseline = parse_message("bench.step_cost", json.load(fh)).to_dict()
    base_cells = {}
    violations = []
    for run in baseline["runs"]:
        key = cell_key(run)
        if key in base_cells:
            violations.append(f"{key}: baseline has more than one row for this cell")
        base_cells[key] = run
    for run in results["runs"]:
        key = cell_key(run)
        base = base_cells.get(key)
        if base is None:
            violations.append(f"{key}: no baseline row for this measured cell")
            continue
        floor = base["steps_per_sec"] * (1.0 - SPEED_DROP_TOLERANCE)
        if run["steps_per_sec"] < floor:
            violations.append(
                f"{key}: {run['steps_per_sec']:.2f} steps/sec < "
                f"{floor:.2f} (baseline {base['steps_per_sec']:.2f} - "
                f"{SPEED_DROP_TOLERANCE:.0%})"
            )
        # Only peak bytes is gated: it is pinned by the computation graph
        # and stable across runs, while net live *blocks* also count
        # interpreter/GC churn and jitter run to run.
        metric = "alloc_peak_bytes"
        if metric in run and metric in base and base[metric] >= 0:
            ceiling = base[metric] * (1.0 + ALLOC_RISE_TOLERANCE)
            if run[metric] > max(ceiling, base[metric] + 4096):
                violations.append(
                    f"{key}: {metric} {run[metric]} > {ceiling:.0f} "
                    f"(baseline {base[metric]} + {ALLOC_RISE_TOLERANCE:.0%})"
                )
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=3, help="timed steps per cell")
    parser.add_argument(
        "--methods",
        default=None,
        help=f"comma-separated subset of {sorted(METHOD_KWARGS)} (default: all)",
    )
    parser.add_argument("--json", default=None, help="write timings to this JSON path")
    parser.add_argument(
        "--no-allocations",
        action="store_true",
        help="skip the tracemalloc pass (it slows the measured steps)",
    )
    parser.add_argument(
        "--check-baseline",
        nargs="?",
        const=BASELINE_PATH,
        default=None,
        metavar="PATH",
        help="fail if steps/sec drops >20%% or allocations rise >10%% vs PATH "
        f"(default {BASELINE_PATH})",
    )
    parser.add_argument(
        "--update-baseline",
        nargs="?",
        const=BASELINE_PATH,
        default=None,
        metavar="PATH",
        help=f"write this run as the new baseline (default {BASELINE_PATH})",
    )
    args = parser.parse_args(argv)
    methods = args.methods.split(",") if args.methods else None
    results = run_smoke(
        steps=args.steps, methods=methods, allocations=not args.no_allocations
    )
    if args.json or args.update_baseline:
        # Serialize-at-write validation: what lands on disk (the CI
        # artifact, the checked-in baseline) is the canonical form.
        results = parse_message("bench.step_cost", results).to_dict()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"timings -> {args.json}")
    if args.update_baseline:
        with open(args.update_baseline, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"baseline -> {args.update_baseline}")
    if args.check_baseline:
        violations = check_baseline(results, args.check_baseline)
        if violations:
            print("bench-step-gate FAILED:")
            for line in violations:
                print(f"  {line}")
            return 1
        print(f"bench-step-gate OK vs {args.check_baseline}")
    return 0


try:
    import pytest

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("method", list(METHOD_KWARGS))
    def test_training_step_cost(benchmark, method, dtype):
        step = make_step(method, dtype)
        step()  # warm up the im2col index caches
        benchmark.pedantic(step, rounds=5, iterations=1, warmup_rounds=1)

except ImportError:  # pragma: no cover - pytest always present in dev
    pass


if __name__ == "__main__":
    raise SystemExit(main())
