"""The step-cost regression gate never skips a cell it measured.

``benchmarks/bench_step_cost.py`` is a script, not a package module, so
it is loaded by path.  Its measured results are stood in for by the
checked-in baseline's own rows, which pass against themselves on every
timing and allocation bound; only the baseline's coverage varies.
"""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SCRIPT = os.path.join(REPO_ROOT, "benchmarks", "bench_step_cost.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_step_cost", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline(bench):
    with open(bench.BASELINE_PATH) as fh:
        return json.load(fh)


def write(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_checked_in_baseline_covers_every_cell_once(bench, baseline):
    keys = [bench.cell_key(run) for run in baseline["runs"]]
    expected = [f"{method}/{dtype}" for method in bench.METHOD_KWARGS for dtype in bench.DTYPES]
    assert sorted(keys) == sorted(expected)
    assert bench.check_baseline(baseline, bench.BASELINE_PATH) == []


def test_measured_cell_without_baseline_row_fails(bench, baseline, tmp_path):
    missing = baseline["runs"][3]
    partial = dict(baseline, runs=[run for run in baseline["runs"] if run is not missing])
    violations = bench.check_baseline(baseline, write(tmp_path, partial))
    assert violations == [f"{bench.cell_key(missing)}: no baseline row for this measured cell"]


def test_duplicated_baseline_key_fails(bench, baseline, tmp_path):
    twice = baseline["runs"][0]
    doubled = dict(baseline, runs=baseline["runs"] + [twice])
    violations = bench.check_baseline(baseline, write(tmp_path, doubled))
    assert violations == [f"{bench.cell_key(twice)}: baseline has more than one row for this cell"]
