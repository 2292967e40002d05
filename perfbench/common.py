"""Shared plumbing: pinned environment, child processes, statistics.

Every workload process starts from :func:`child_env`: BLAS runs one
thread, caches land in a fresh directory of the run's own, and Python
writes no bytecode, so the program's modules are compiled at every
process start whether or not an earlier run left a ``__pycache__`` —
set-up costs the same in every run, and a run writes nothing outside
its work directory.
"""

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC_DIR = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: One BLAS thread everywhere.  With OpenBLAS's default of two threads
#: on a 2-vCPU machine, HERO runs burned twice the CPU for no speed-up.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Same set-up cost in every run, first or not (see the module doc).
BYTECODE_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}

#: Settings that would change what the program does; the workloads run
#: with the program's defaults.
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_DTYPE", "REPRO_DATASET_CACHE", "REPRO_CACHE_DIR")

#: A unit during which the hypervisor gave more than this share of the
#: machine's CPU time to other guests is measured once more and the calmer
#: of the two kept (one retry per run, and only while the units still end
#: within twice ``--seconds``): a neighbour's load is not the program's,
#: and the serving workload, which keeps more than one core busy, reads
#: 50% slower under it.
STEAL_LIMIT_PCT = 3.0

#: Percentiles a tail latency may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def pin_process_env():
    """Pin this process's environment (call before numpy is imported)."""
    os.environ.update(BLAS_ENV)
    os.environ.update(BYTECODE_ENV)
    sys.dont_write_bytecode = True
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def child_env(cache_dir, tmp_dir):
    """Environment for one workload process with its own fresh cache."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.update(BYTECODE_ENV)
    for name in CLEARED_ENV + ("PYTHONPYCACHEPREFIX",):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, BENCH_DIR])
    env["REPRO_CACHE_DIR"] = cache_dir
    env["TMPDIR"] = tmp_dir
    os.makedirs(cache_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    return env


class RunDir:
    """A fresh directory under the work dir, removed when the run ends."""

    def __init__(self, label):
        self.path = os.path.join(WORK_DIR, f"{label}-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.path)
        self._n = 0

    def fresh(self, stem):
        """A new, empty subdirectory path (created)."""
        self._n += 1
        path = os.path.join(self.path, f"{stem}-{self._n}")
        os.makedirs(path)
        return path

    def env(self, stem):
        """``(directory, env)`` for one workload process with its own cache."""
        path = self.fresh(stem)
        return path, child_env(os.path.join(path, "cache"), os.path.join(path, "tmp"))

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)  # only when no other run is using it
        except OSError:
            pass


class Child:
    """A workload process whose resource usage is read when it is reaped."""

    def __init__(self, argv, env, log_dir):
        self.argv = argv
        self.log = os.path.join(log_dir, "child.log")
        self.launched = time.time()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
            )
        self.rusage = None

    def wait(self, timeout, on_timeout=signal.SIGKILL):
        """Reap the process; returns ``(exit code, rusage)``.

        ``os.wait4`` reports the child's own usage plus that of every
        descendant it reaped (pool workers), so CPU and peak RSS cover
        the whole process tree.  A process still running after
        ``timeout`` seconds is sent ``on_timeout``, then SIGKILL 10 s
        later.
        """
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                return self.proc.returncode, rusage
            if time.monotonic() >= deadline:
                self.proc.send_signal(on_timeout)
                on_timeout, deadline = signal.SIGKILL, time.monotonic() + 10.0
            time.sleep(0.02)

    def interrupt(self):
        self.proc.send_signal(signal.SIGINT)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait(30.0)

    def tail(self, lines=20):
        with open(self.log, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])


def run_child(argv, env, log_dir, timeout):
    """Run ``argv`` to completion; raise with its log tail when it fails."""
    child = Child(argv, env, log_dir)
    code, rusage = child.wait(timeout)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} exited {code}:\n{child.tail()}")
    return child, rusage


def cpu_seconds(rusage):
    return rusage.ru_utime + rusage.ru_stime


def rss_mb(rusage):
    return rusage.ru_maxrss / 1024.0  # Linux reports KiB


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values):
    """``(percentile, value, n)``: highest ladder percentile with >=10 beyond.

    Nearest-rank percentiles; below 20 samples no percentile has ten
    samples beyond it and the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        index = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - (index + 1) >= 10:
            return pct, ordered[index], n
    return 50.0, statistics.median(ordered), n


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def repeat(unit, seconds, minimum=1, maximum=None):
    """``[unit(0), unit(1), ...]`` while another unit still fits in ``seconds``.

    At least ``minimum`` and at most ``maximum`` units run; the last
    unit's duration predicts the next one's.  Each result gets the ``steal_pct`` measured across
    it; one unit per run above :data:`STEAL_LIMIT_PCT` whose checks
    passed is measured again (see there).  A unit whose checks failed
    is always kept.
    """
    results, retried, last = [], False, 0.0
    started = time.perf_counter()
    while len(results) < minimum or (
        time.perf_counter() - started + last <= seconds and len(results) != maximum
    ):
        begin = time.perf_counter()
        result = _stolen(unit, len(results))
        took = time.perf_counter() - begin
        if (
            result["steal_pct"] > STEAL_LIMIT_PCT
            and not retried
            and not result["problems"]
            and time.perf_counter() - started + took <= 2 * seconds
        ):
            retried = True
            again = _stolen(unit, len(results))
            if again["problems"] or again["steal_pct"] < result["steal_pct"]:
                result = again
        results.append(result)
        last = took
    return results


def _stolen(unit, index):
    ticks = cpu_ticks()
    result = unit(index)
    result["steal_pct"] = steal_pct(ticks, cpu_ticks())
    return result


def summarize(setups, units, latencies, ops_per_s, failed, problems, **detail):
    """A workload's untraced report: the eight end-to-end metrics and context.

    ``units`` carry ``wall_s``, ``cpu_s`` and ``rss_mb``; ``latencies``
    pool the ops (seconds) of every unit; ``failed`` counts the ops
    whose output check failed.
    """
    attempted = len(latencies)
    pct, tail_value, n = tail(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "tail": {"percentile": pct, "n": n},
        "detail": {
            "units": len(units),
            "setup_samples": len(setups),
            "steal_pct": [round(u["steal_pct"], 2) for u in units],
            **detail,
        },
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(u["wall_s"] for u in units), "s"),
            "ops_per_s": metric(ops_per_s, "1/s"),
            "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": metric(tail_value * 1e3, "ms"),
            "ok_frac": metric((attempted - failed) / attempted, "ratio"),
            "cpu_s": metric(statistics.median(u["cpu_s"] for u in units), "s"),
            "peak_rss_mb": metric(max(u["rss_mb"] for u in units), "MB"),
        },
    }


# ----------------------------------------------------------------------
# Recorded environment
# ----------------------------------------------------------------------
def cpu_probe():
    """Milliseconds for a fixed pure-Python loop (slow-period detector only)."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def cpu_ticks():
    """Aggregate CPU tick counters of the machine (``/proc/stat``), or ``None``."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(1, sum(delta[:8]))


def filesystem(path):
    """``(fstype, median fsync ms)`` of the filesystem holding ``path``."""
    fstype, best = "unknown", ""
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    probe = os.path.join(path, "fsync-probe")
    times = []
    for i in range(15):
        with open(probe, "wb") as fh:
            fh.write(b"x" * 256)
            fh.flush()
            start = time.perf_counter()
            os.fsync(fh.fileno())
            times.append((time.perf_counter() - start) * 1e3)
    os.remove(probe)
    return fstype, statistics.median(times)


def environment(path):
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):  # numpy without build info
        pass
    fstype, fsync_ms = filesystem(path)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "work_fs": fstype,
        "fsync_median_ms": round(fsync_ms, 4),
    }
