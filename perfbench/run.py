"""Benchmark entry point: one workload run, metrics as the last stdout line.

    python3 perfbench/run.py --workload serve-w8a8-20rps --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``serve-w8a8-20rps`` — a w8a8 PTQ artifact served by the ``serve-model``
  CLI under 20 req/s of open-loop Poisson load (:mod:`serve`);
* ``sweep-smoke`` — the ``sweep`` verb's default grid at the smoke
  profile over four seeds, two pool workers (:mod:`sweep_smoke`).

``--trace 0`` measures the workload untraced and reports its eight
end-to-end metrics.  ``--trace 1`` is the traced run of the benchmark,
whichever ``--workload`` is named: it traces both workloads (plus the
untraced twin each needs for its tracing overhead) and one training
run of the HERO arm of Fig. 2 (:mod:`fig2_hero`), and reports every
per-layer metric.

A workload repeats its unit (one training run, one server lifetime
under load, one sweep) while another unit still fits in ``--seconds``,
and at least its minimum number of units.  Every run checks the
program's outputs (see ``METRICS.md``); ``--corrupt`` damages one
output before the check, to show the check rejecting it.  The run
writes only under ``.perfbench_work/`` of the checkout and removes its
own directory there when it ends.
"""

import argparse
import json
import math
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_process_env()  # before numpy is imported

import fig2_hero  # noqa: E402
import serve  # noqa: E402
import sweep_smoke  # noqa: E402

WORKLOADS = {module.NAME: module for module in (serve, sweep_smoke)}
#: What the traced run traces: the engine and trainer layers come from fig2-hero.
TRACED = (fig2_hero, serve, sweep_smoke)


def untraced(module, run_dir, args):
    result = module.measure(run_dir, args.seed, args.seconds, corrupt=args.corrupt)
    tail = result["tail"]
    print(f"{module.NAME}: {result['attempted']} ops, {result['failed']} failed")
    for name, entry in result["metrics"].items():
        note = f"  (p{tail['percentile']:g} of n={tail['n']})" if name == "op_tail_ms" else ""
        print(f"  {name:14s} {entry['value']:14.6g} {entry['unit']}{note}")
    print("detail: " + json.dumps(result["detail"]))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    return result["metrics"], result["attempted"], result["failed"], not result["problems"]


def traced(run_dir, args):
    metrics, attempted, failed, correct = {}, 0, 0, True
    for module in TRACED:
        rows, problems, ops, bad = module.traced(run_dir, args.seed)
        print(f"{module.NAME} (traced): {ops} ops, {bad} failed")
        for key, (value, unit, n) in rows.items():
            print(f"  {key:42s} {value:14.6g} {unit:10s} n={n}")
        for problem in problems:
            print(f"check failed: {problem}")
        correct = correct and not problems
        attempted += ops
        failed += bad
        metrics.update({key: common.metric(value, unit) for key, (value, unit, _n) in rows.items()})
    return metrics, attempted, failed, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description="HERO reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="damage one output before its check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC_DIR, "repro", "__init__.py")):
        print(f"no program to measure: {common.SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    # A shell starting this run in the background may ignore SIGINT, and
    # children would inherit that; restore the default so the server's
    # ``serve-model`` verb stops on SIGINT as it does in a terminal.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    os.makedirs(common.WORK_DIR, exist_ok=True)
    run_dir = common.RunDir(f"{args.workload}-s{args.seed}-t{args.trace}")
    try:
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env: " + json.dumps(common.environment(run_dir.path)))
        before, ticks = common.cpu_probe(), common.cpu_ticks()
        started = time.perf_counter()
        if args.trace:
            metrics, attempted, failed, correct = traced(run_dir, args)
        else:
            metrics, attempted, failed, correct = untraced(WORKLOADS[args.workload], run_dir, args)
        after = common.cpu_probe()
        took = time.perf_counter() - started
        steal = common.steal_pct(ticks, common.cpu_ticks())
        print(f"cpu_probe_ms: before={before:.2f} after={after:.2f}; steal {steal:.1f}%; "
              f"run took {took:.1f}s")
    finally:
        run_dir.close()
    broken = sorted(name for name, entry in metrics.items() if not math.isfinite(entry["value"]))
    if broken:
        print(f"no value measured for {', '.join(broken)}", file=sys.stderr)
        return 1
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
