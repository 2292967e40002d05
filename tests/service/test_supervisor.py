"""Fleet supervisor: restart drill, quarantine patrol, resident pool.

The in-repo version of CI's ``fleet-drill`` job: start a supervised
pool, SIGKILL a worker mid-lease, and require the sweep to complete
bit-identically to a serial run — with the poison config (a task that
always raises) retried to exhaustion and quarantined instead of eating
workers forever.  Multiprocessing uses ``fork`` for speed; the
engine's own default stays ``spawn``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.experiments import TaskQueue, run_sweep, worker_loop
from repro.experiments.scheduler import DONE, ERROR, PENDING, QUARANTINED
from repro.service import (
    FleetSupervisor,
    build_status,
    discover_queues,
    read_heartbeats,
    read_supervisor_state,
)
from repro.tensor import dtype_name


def pinned(configs):
    return [
        config if config.dtype else config.with_overrides(dtype=dtype_name(None))
        for config in configs
    ]


def assert_same_records(report_a, report_b):
    assert [r.key for r in report_a.records] == [r.key for r in report_b.records]
    for a, b in zip(report_a.records, report_b.records):
        assert a.status == b.status
        assert a.train_acc == b.train_acc
        assert a.test_acc == b.test_acc


def assert_same_cache_entries(dir_a, dir_b, records):
    for record in records:
        if not record.ok:
            continue
        path_a = os.path.join(dir_a, record.key, "state.npz")
        path_b = os.path.join(dir_b, record.key, "state.npz")
        with np.load(path_a) as a, np.load(path_b) as b:
            assert set(a.files) == set(b.files)
            for name in a.files:
                assert np.array_equal(a[name], b[name]), (record.key, name)


def make_supervisor(cache_dir, **kwargs):
    kwargs.setdefault("mp_context", "fork")
    kwargs.setdefault("poll", 0.05)
    kwargs.setdefault("worker_poll", 0.02)
    return FleetSupervisor(cache_dir, **kwargs)


class TestDiscovery:
    def test_discover_queues(self, tmp_run_cache, tiny_grid):
        assert discover_queues(tmp_run_cache) == []
        TaskQueue.create(tmp_run_cache, "beta")
        TaskQueue.create(tmp_run_cache, "alpha")
        roots = discover_queues(tmp_run_cache)
        assert [os.path.basename(r) for r in roots] == ["alpha", "beta"]
        assert discover_queues(tmp_run_cache, queues=["beta"]) == [roots[1]]
        # a directory without meta.json is not a queue yet
        os.makedirs(os.path.join(tmp_run_cache, "queue", "half-born"))
        assert len(discover_queues(tmp_run_cache)) == 2


class TestPatrol:
    def test_retry_errors_until_quarantine(self, tmp_run_cache, tiny_grid):
        """The poison path: a config that always raises is retried by
        the patrol until max_attempts, then parked as quarantined with
        its last error record preserved."""
        bad = [c.with_overrides(dataset="no_such_dataset") for c in pinned(tiny_grid(1))]
        queue = TaskQueue.create(tmp_run_cache, "q", max_attempts=2)
        queue.enqueue(bad)
        key = bad[0].cache_key()

        worker_loop(queue.root, worker="w-1", until="idle")
        entry = queue.journal.read(key)
        assert entry["status"] == ERROR and entry["attempts"] == 1

        # patrol #1: attempts below the cap -> back to pending
        assert queue.retry_errors() == ([key], [])
        assert queue.journal.read(key)["status"] == PENDING

        worker_loop(queue.root, worker="w-2", until="idle")
        entry = queue.journal.read(key)
        assert entry["status"] == ERROR and entry["attempts"] == 2

        # patrol #2: cap reached -> quarantined, error record kept
        assert queue.retry_errors() == ([], [key])
        entry = queue.journal.read(key)
        assert entry["status"] == QUARANTINED
        assert "no_such_dataset" in entry["record"]["error"]
        assert queue.drained()
        # a quarantined task is terminal for further patrols too
        assert queue.retry_errors() == ([], [])

    def test_supervisor_patrol_spans_queues(self, tmp_run_cache, tiny_grid):
        bad = [c.with_overrides(dataset="no_such_dataset") for c in pinned(tiny_grid(1))]
        for name in ("qa", "qb"):
            queue = TaskQueue.create(tmp_run_cache, name, max_attempts=1)
            queue.enqueue(bad)
            worker_loop(queue.root, worker="w", until="idle")
        supervisor = make_supervisor(tmp_run_cache, workers=1, patrol=True)
        # patrol without ever starting the pool: monitor_once on an
        # unstarted supervisor still sweeps the queues
        result = supervisor.monitor_once()
        assert result["quarantined"] == [bad[0].cache_key()] * 2
        assert supervisor.quarantined_total == 2
        for name in ("qa", "qb"):
            root = os.path.join(tmp_run_cache, "queue", name)
            assert TaskQueue(root).journal.read(bad[0].cache_key())["status"] == QUARANTINED


class TestFleetWorker:
    def test_sigterm_writes_exited_heartbeat(self, tmp_run_cache):
        supervisor = make_supervisor(tmp_run_cache, workers=1)
        supervisor.start()
        try:
            deadline = time.monotonic() + 60
            while not read_heartbeats(tmp_run_cache) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            supervisor.stop()  # SIGTERM
        (beat,) = read_heartbeats(tmp_run_cache)
        assert beat["state"] == "exited"
        assert supervisor.slots[0]["proc"].exitcode == 0

    def test_workers_below_one_raise(self, tmp_run_cache):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            make_supervisor(tmp_run_cache, workers=0)
        assert not os.path.exists(tmp_run_cache)


@pytest.mark.slow
class TestFleetDrill:
    def wait_for(self, predicate, timeout=120.0, poll=0.01, message="condition"):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(poll)
        pytest.fail(f"timed out waiting for {message}")

    def test_sigkill_restart_quarantine_and_parity(self, tmp_run_cache, tiny_grid):
        """The full acceptance drill: kill -9 a fleet worker mid-sweep,
        require an automatic restart, a completed sweep bit-identical
        to serial, and the always-raising config quarantined."""
        good = pinned(tiny_grid(4, epochs=2))
        poison = good[0].with_overrides(dataset="no_such_dataset")
        grid = good + [poison]
        queue = TaskQueue.create(
            tmp_run_cache, "drill", lease_timeout=0.5, max_attempts=2
        )
        queue.enqueue(grid)

        supervisor = make_supervisor(tmp_run_cache, workers=2)
        supervisor.start()
        try:
            # wait until some worker holds a lease, then murder it
            self.wait_for(
                lambda: any(
                    e["status"] == "leased" for e in queue.snapshot().values()
                ),
                message="a worker to lease a task",
            )
            victim = supervisor.slots[0]["proc"]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            assert victim.exitcode == -signal.SIGKILL

            # supervise to completion: restarts + patrol until drained
            def drained():
                supervisor.monitor_once()
                return supervisor.queues_drained()

            self.wait_for(drained, poll=0.05, message="the drill queue to drain")
        finally:
            supervisor.stop()

        # the murdered slot was restarted
        state = read_supervisor_state(tmp_run_cache)
        assert state["status"] == "stopped"
        assert state["restarts_total"] >= 1
        assert supervisor.slots[0]["restarts"] >= 1

        # the poison config was quarantined after exhausting attempts
        snapshot = queue.snapshot()
        assert snapshot[poison.cache_key()]["status"] == QUARANTINED
        assert "no_such_dataset" in snapshot[poison.cache_key()]["record"]["error"]

        # every good config completed despite the murder...
        for config in good:
            assert snapshot[config.cache_key()]["status"] == DONE

        # ...bit-identically to a serial run of the same grid
        serial = run_sweep(good, workers=1, cache_dir=tmp_run_cache + "-serial")
        fleet_records = [queue.record_for(snapshot[c.cache_key()]) for c in good]
        assert [r.test_acc for r in fleet_records] == [
            r.test_acc for r in serial.records
        ]
        assert_same_cache_entries(
            tmp_run_cache, tmp_run_cache + "-serial", serial.records
        )

        # the status snapshot saw it all
        status = build_status(tmp_run_cache)
        (qsec,) = status["queues"]
        assert qsec["counts"][QUARANTINED] == 1
        assert qsec["counts"][DONE] == 4

    def test_workers_zero_submits_to_resident_fleet(self, tmp_run_cache, tiny_grid):
        """`run_sweep(workers=0)` spawns nothing: the resident pool
        executes the grid while the sweep call only tails the journal —
        and a second grid reuses the same pool."""
        supervisor = make_supervisor(tmp_run_cache, workers=2)
        supervisor.start()
        try:
            first = run_sweep(
                pinned(tiny_grid(2)),
                workers=0,
                cache_dir=tmp_run_cache,
            )
            assert first.n_ok == 2 and first.workers == 0
            second = run_sweep(
                pinned(tiny_grid(3, method="grad_l1")),
                workers=0,
                cache_dir=tmp_run_cache,
            )
            assert second.n_ok == 3
            assert second.queue != first.queue  # distinct grids, one pool
        finally:
            supervisor.stop()
        serial = run_sweep(
            pinned(tiny_grid(2)), workers=1, cache_dir=tmp_run_cache + "-serial"
        )
        assert_same_records(serial, first)
        assert_same_cache_entries(
            tmp_run_cache, tmp_run_cache + "-serial", serial.records
        )

    def test_workers_zero_requires_cache_dir(self, tiny_grid):
        with pytest.raises(ValueError, match="cache_dir"):
            run_sweep(pinned(tiny_grid(1)), workers=0, cache_dir=None)

    def test_serve_until_drained_bounded_run(self, tmp_run_cache, tiny_grid):
        """serve(until_drained=True) executes pending work, then exits
        and stops its pool — the CI drill entry point."""
        configs = pinned(tiny_grid(2))
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(configs)
        supervisor = make_supervisor(tmp_run_cache, workers=2)
        supervisor.serve(until_drained=True, max_seconds=120)
        assert queue.drained()
        assert queue.counts()[DONE] == 2
        state = read_supervisor_state(tmp_run_cache)
        assert state["status"] == "stopped"
        assert not any(slot["proc"].is_alive() for slot in supervisor.slots)
        # supervisor.log exists for the post-mortem artifact
        assert os.path.exists(supervisor.log_path)
        with open(supervisor.log_path) as fh:
            text = fh.read()
        assert "spawned fleet-0" in text and "stopped" in text
