"""Queue scheduler: parity suite + fault injection.

The scheduler ships with an equivalence proof in the spirit of the
paper's two provably-isomorphic presentations: the queue (2 and 4
workers) and the serial loop must produce identical records and
bit-identical cache contents for any grid.  The property tests
randomize small grids over that claim; the fault injection tests kill
workers mid-lease and assert the steal/retry machinery converges to
the same answer.

Multiprocessing tests use the ``fork`` start method (picklable by
inheritance); the engine's own default stays ``spawn``.
"""

import io
import json
import os
import shutil
import signal
import time
from multiprocessing import get_context

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import (
    TaskQueue,
    queue_name_for,
    run_sweep,
    worker_loop,
)
from repro.experiments.cli import build_parser, resolve_queue_root, run_worker_command
from repro.experiments.runner import _cache_complete
from repro.experiments.scheduler import (
    DONE,
    ERROR,
    JOURNAL_VERSION,
    LEASED,
    PENDING,
    QUARANTINED,
    _worker_main,
    worker_identity,
)
from repro.tensor import dtype_name


def pinned(configs):
    """Configs with the ambient dtype pinned, as run_sweep dispatches them.

    Tests that enqueue manually must pin the same way or their journal
    keys would not match a later ``run_sweep`` over the same grid.
    """
    return [
        config if config.dtype else config.with_overrides(dtype=dtype_name(None))
        for config in configs
    ]


def assert_same_cache_entries(dir_a, dir_b, records):
    """The trained weights for every record are bit-identical across caches."""
    for record in records:
        path_a = os.path.join(dir_a, record.key, "state.npz")
        path_b = os.path.join(dir_b, record.key, "state.npz")
        with np.load(path_a) as a, np.load(path_b) as b:
            assert set(a.files) == set(b.files)
            for name in a.files:
                assert np.array_equal(a[name], b[name]), (record.key, name)


def assert_same_records(report_a, report_b):
    assert [r.key for r in report_a.records] == [r.key for r in report_b.records]
    for a, b in zip(report_a.records, report_b.records):
        assert a.status == b.status
        assert a.train_acc == b.train_acc
        assert a.test_acc == b.test_acc


class TestQueueLifecycle:
    def test_enqueue_claim_resolve_roundtrip(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(2))
        queue = TaskQueue.create(tmp_run_cache, "q")
        enqueued, resumed = queue.enqueue(configs)
        assert (enqueued, resumed) == (2, 0)
        assert queue.keys() == [c.cache_key() for c in configs]
        assert not queue.drained()

        worker = worker_identity()
        entry = queue.claim(worker)
        assert entry["status"] == LEASED
        assert entry["key"] == configs[0].cache_key()  # manifest order
        assert entry["attempts"] == 1
        assert entry["worker"] == worker

        from repro.experiments import execute_record

        record = execute_record(configs[0], cache_dir=tmp_run_cache)
        assert queue.resolve(entry["key"], worker, record)
        stored = queue.journal.read(entry["key"])
        assert stored["status"] == DONE
        assert stored["record"]["test_acc"] == record.test_acc
        # the stored record round-trips into an equal RunRecord
        rebuilt = queue.record_for(stored)
        assert rebuilt.key == record.key and rebuilt.test_acc == record.test_acc
        assert rebuilt.config == configs[0]

    def test_enqueue_is_idempotent_and_resume_counts_done(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(2))
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(configs)
        # pending entries are kept, not re-enqueued
        assert queue.enqueue(configs) == (0, 0)
        worker = worker_identity()
        entry = queue.claim(worker)
        from repro.experiments import execute_record

        queue.resolve(entry["key"], worker, execute_record(configs[0], cache_dir=tmp_run_cache))
        assert queue.enqueue(configs) == (0, 1)

    def test_force_resets_done_entries(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(configs)
        worker = worker_identity()
        entry = queue.claim(worker)
        from repro.experiments import execute_record

        queue.resolve(entry["key"], worker, execute_record(configs[0], cache_dir=tmp_run_cache))
        assert queue.enqueue(configs, force=True) == (1, 0)
        fresh = queue.journal.read(configs[0].cache_key())
        assert fresh["status"] == PENDING
        assert fresh["force"] is True
        assert fresh["attempts"] == 0

    def test_journal_version_mismatch_rejected(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(configs)
        key = configs[0].cache_key()
        entry = queue.journal.read(key)
        entry["version"] = JOURNAL_VERSION + 1
        queue.journal.update(key, lambda _current: entry)
        with pytest.raises(ValueError, match="version"):
            queue.enqueue(configs)

    def test_counts_and_format(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(3))
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(configs)
        queue.claim(worker_identity())
        counts = queue.counts()
        assert counts == {
            PENDING: 2, LEASED: 1, DONE: 0, ERROR: 0, QUARANTINED: 0, "stolen": 0,
        }
        text = format_queue_text(queue)
        assert "3 task(s)" in text and "1 leased" in text


def format_queue_text(queue):
    from repro.experiments import format_queue

    return format_queue(queue)


class TestLeases:
    def test_live_lease_is_not_stolen(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q", lease_timeout=3600)
        queue.enqueue(configs)
        assert queue.claim("worker-a") is not None
        assert queue.claim("worker-b") is None

    def test_expired_lease_is_stolen(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q", lease_timeout=0.0)
        queue.enqueue(configs)
        first = queue.claim("worker-a")
        assert first["attempts"] == 1
        time.sleep(0.01)
        stolen = queue.claim("worker-b")
        assert stolen is not None
        assert stolen["worker"] == "worker-b"
        assert stolen["attempts"] == 2

    def test_renew_keeps_lease_alive(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        now = [1000.0]
        queue = TaskQueue.create(tmp_run_cache, "q", lease_timeout=10.0, clock=lambda: now[0])
        queue.enqueue(configs)
        key = configs[0].cache_key()
        assert queue.claim("worker-a") is not None
        now[0] += 8.0
        assert queue.renew(key, "worker-a")
        now[0] += 8.0  # 16s after claim, but only 8s after renewal
        assert queue.claim("worker-b") is None
        now[0] += 3.0
        assert queue.claim("worker-b") is not None

    def test_stale_worker_cannot_clobber_thief_result(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q", lease_timeout=0.0)
        queue.enqueue(configs)
        key = configs[0].cache_key()
        queue.claim("worker-a")
        time.sleep(0.01)
        queue.claim("worker-b")  # steals
        from repro.experiments import execute_record

        record = execute_record(configs[0], cache_dir=tmp_run_cache)
        assert not queue.resolve(key, "worker-a", record)  # stale lease rejected
        assert not queue.renew(key, "worker-a")
        assert queue.resolve(key, "worker-b", record)
        assert queue.journal.read(key)["status"] == DONE

    def test_explicit_lease_timeout_updates_live_queue(self, tmp_run_cache):
        """Resuming with an explicit (shorter) lease timeout reclaims
        leases orphaned by a dead sweep instead of waiting out the
        original generous timeout."""
        queue = TaskQueue.create(tmp_run_cache, "q")  # default: generous
        assert queue.meta["lease_timeout"] > 100
        reopened = TaskQueue.create(tmp_run_cache, "q")  # adopt, don't reset
        assert reopened.meta["lease_timeout"] == queue.meta["lease_timeout"]
        shortened = TaskQueue.create(tmp_run_cache, "q", lease_timeout=0.5)
        assert shortened.meta["lease_timeout"] == 0.5
        assert queue.meta["lease_timeout"] == 0.5  # fleet-wide, via disk

    def test_shortened_timeout_frees_orphaned_leases(self, tmp_run_cache, tiny_grid):
        """The recovery drill: a lease stamped under the generous
        default becomes stealable as soon as the operator shortens the
        queue's lease timeout — expiry follows the current setting,
        not the one in force when the lease was stamped."""
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q")  # default: 900s
        queue.enqueue(configs)
        orphan = queue.claim("dead-sweep:1:0")
        assert orphan is not None
        assert queue.claim("rescuer") is None  # lease looks live
        TaskQueue.create(tmp_run_cache, "q", lease_timeout=0.01)
        time.sleep(0.05)
        stolen = queue.claim("rescuer")
        assert stolen is not None and stolen["attempts"] == 2

    def test_poison_task_quarantined_after_max_attempts(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(1))
        queue = TaskQueue.create(tmp_run_cache, "q", lease_timeout=0.0, max_attempts=2)
        queue.enqueue(configs)
        key = configs[0].cache_key()
        for attempt in (1, 2):
            entry = queue.claim(f"victim-{attempt}")
            assert entry["attempts"] == attempt
            time.sleep(0.01)
        # both leases expired; the next claimer quarantines the task
        assert queue.claim("survivor") is None
        entry = queue.journal.read(key)
        assert entry["status"] == QUARANTINED
        assert "max_attempts=2 exhausted" in entry["record"]["error"]
        assert "victim-2" in entry["record"]["error"]
        assert queue.drained()
        # quarantine is sticky across re-enqueue (no re-poisoning)...
        assert queue.enqueue(configs) == (0, 1)
        assert queue.journal.read(key)["status"] == QUARANTINED
        # ...until an operator forces a fresh attempt
        assert queue.enqueue(configs, force=True) == (1, 0)
        assert queue.journal.read(key)["status"] == PENDING


class TestParityProperty:
    """Randomized grids: the queue presentation equals the serial one."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=1, max_value=3),
        method=st.sampled_from(["sgd", "grad_l1"]),
        label_noise=st.sampled_from([0.0, 0.3]),
    )
    def test_queue_matches_serial(self, tmp_path_factory, tiny_grid, n, method, label_noise):
        configs = tiny_grid(n, method=method, label_noise=label_noise)
        base = tmp_path_factory.mktemp("parity")
        serial = run_sweep(configs, workers=1, cache_dir=str(base / "serial"))
        queued = run_sweep(
            configs, workers=2, cache_dir=str(base / "queue"), mp_context="fork"
        )
        assert serial.queue is None and queued.queue is not None
        assert queued.n_ok == n and serial.n_ok == n
        assert_same_records(serial, queued)
        assert_same_cache_entries(str(base / "serial"), str(base / "queue"), serial.records)

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [2, 4])
    def test_all_presentations_bit_identical(self, tmp_path, tiny_grid, workers):
        """Serial and queue (2 and 4 workers) agree exactly."""
        configs = tiny_grid(4)
        serial = run_sweep(configs, workers=1, cache_dir=str(tmp_path / "serial"))
        queued = run_sweep(
            configs, workers=workers, cache_dir=str(tmp_path / "queue"), mp_context="fork"
        )
        assert serial.n_ok == queued.n_ok == 4
        assert_same_records(serial, queued)
        assert_same_cache_entries(str(tmp_path / "serial"), str(tmp_path / "queue"), serial.records)


class TestResume:
    def test_resume_reruns_only_non_done(self, tmp_run_cache, tiny_grid):
        configs = tiny_grid(3)
        seen = []
        first = run_sweep(
            configs,
            workers=2,
            cache_dir=tmp_run_cache,
            mp_context="fork",
            progress=seen.append,
        )
        assert first.resumed == 0 and first.n_ok == 3
        assert sorted(r.key for r in seen) == sorted(r.key for r in first.records)
        again = run_sweep(configs, workers=2, cache_dir=tmp_run_cache, mp_context="fork")
        assert again.resumed == 3
        assert_same_records(first, again)
        # resumed records come straight from the journal: same seconds/pid
        assert [r.seconds for r in again.records] == [r.seconds for r in first.records]

    def test_partial_queue_resumes(self, tmp_run_cache, tiny_grid):
        configs = pinned(tiny_grid(3))
        name = queue_name_for(configs)
        queue = TaskQueue.create(tmp_run_cache, name)
        queue.enqueue(configs)
        # drain exactly one task, as an interrupted sweep would have
        worker_loop(queue.root, max_tasks=1)
        assert queue.counts()[DONE] == 1
        report = run_sweep(configs, workers=2, cache_dir=tmp_run_cache, mp_context="fork")
        assert report.n_ok == 3
        assert report.resumed == 1
        serial = run_sweep(
            configs, workers=1, cache_dir=tmp_run_cache + "-serial"
        )
        assert_same_records(serial, report)
        assert_same_cache_entries(tmp_run_cache, tmp_run_cache + "-serial", report.records)

    def test_resweep_repends_done_tasks_missing_from_run_cache(self, tmp_run_cache, tiny_grid):
        """The journal never vouches for weights the run cache lost: a
        ``done`` task whose entry was deleted is re-run, and a plain
        repeat serves every record from the journal as a cache hit."""
        configs = pinned(tiny_grid(2))
        queue = TaskQueue.create(tmp_run_cache, queue_name_for(configs))
        queue.enqueue(configs)
        worker_loop(queue.root)
        lost = configs[0].cache_key()
        shutil.rmtree(os.path.join(tmp_run_cache, lost))
        assert queue.enqueue(configs) == (1, 1)
        assert queue.journal.read(lost)["status"] == PENDING

        report = run_sweep(configs, workers=2, cache_dir=tmp_run_cache, mp_context="fork")
        assert report.n_ok == 2 and report.resumed == 1
        assert _cache_complete(os.path.join(tmp_run_cache, lost))
        again = run_sweep(configs, workers=2, cache_dir=tmp_run_cache, mp_context="fork")
        assert again.resumed == 2
        assert again.cache_hits == 2
        assert_same_records(report, again)

    def test_queue_name_is_deterministic_per_grid(self, tiny_grid):
        grid = pinned(tiny_grid(2))
        assert queue_name_for(grid) == queue_name_for(pinned(tiny_grid(2)))
        assert queue_name_for(grid) != queue_name_for(pinned(tiny_grid(3)))


class TestFaultInjection:
    def test_dead_worker_lease_stolen_and_retried(self, tmp_run_cache, tiny_grid):
        """A lease held by a dead worker expires, is stolen, and the
        retry yields a complete, serial-identical report."""
        configs = pinned(tiny_grid(2))
        name = queue_name_for(configs)
        queue = TaskQueue.create(tmp_run_cache, name, lease_timeout=60.0)
        queue.enqueue(configs)
        # claimed an hour ago, then "died": long expired, while the live
        # workers' leases stay far from expiry (no false steals)
        an_hour_ago = TaskQueue(queue.root, clock=lambda: time.time() - 3600)
        dead = an_hour_ago.claim("dead-host:1:00000000")
        report = run_sweep(configs, workers=2, cache_dir=tmp_run_cache, mp_context="fork")
        assert report.n_ok == 2 and report.n_errors == 0
        assert report.stolen == 1
        assert queue.journal.read(dead["key"])["attempts"] == 2
        serial = run_sweep(configs, workers=1, cache_dir=tmp_run_cache + "-serial")
        assert_same_records(serial, report)
        assert_same_cache_entries(tmp_run_cache, tmp_run_cache + "-serial", report.records)

    def test_crash_in_task_contained_as_error_record(self, tmp_run_cache, tiny_grid):
        good = tiny_grid(2)
        bad = good[0].with_overrides(dataset="no_such_dataset")
        report = run_sweep(
            good + [bad], workers=2, cache_dir=tmp_run_cache, mp_context="fork"
        )
        assert report.n_ok == 2 and report.n_errors == 1
        (failed,) = [r for r in report.records if not r.ok]
        assert failed.key == bad.with_overrides(dtype=dtype_name(None)).cache_key()
        assert "no_such_dataset" in failed.error
        # a deterministic failure is not retried within the sweep...
        entry = TaskQueue(report.queue).journal.read(failed.key)
        assert entry["status"] == ERROR and entry["attempts"] == 1
        # ...but a resume re-runs it (and fails it again, identically)
        again = run_sweep(
            good + [bad], workers=2, cache_dir=tmp_run_cache, mp_context="fork"
        )
        assert again.n_errors == 1
        assert again.resumed == 2
        # the re-enqueue issued a fresh entry (attempts restart at 1)
        # and the deterministic failure reproduced exactly
        entry = TaskQueue(report.queue).journal.read(failed.key)
        assert entry["status"] == ERROR and entry["attempts"] == 1
        (refailed,) = [r for r in again.records if not r.ok]
        assert "no_such_dataset" in refailed.error

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sigkill_worker_sweep_resumes_bit_identical(
        self, tmp_run_cache, tiny_grid, workers
    ):
        """The acceptance drill: SIGKILL a worker mid-lease, resume the
        sweep through the queue, end bit-identical to serial."""
        configs = pinned(tiny_grid(4, epochs=3))
        name = queue_name_for(configs)
        queue = TaskQueue.create(tmp_run_cache, name, lease_timeout=0.5)
        queue.enqueue(configs)

        ctx = get_context("fork")
        victim = ctx.Process(target=_worker_main, args=((queue.root, None, None, 0.02),))
        victim.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if any(e["status"] == LEASED for e in queue.snapshot().values()):
                break
            time.sleep(0.002)
        else:
            pytest.fail("worker never leased a task")
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        assert victim.exitcode == -signal.SIGKILL

        report = run_sweep(
            configs,
            workers=workers,
            cache_dir=tmp_run_cache,
            mp_context="fork",
        )
        assert report.n_ok == 4 and report.n_errors == 0
        assert report.queue == queue.root
        assert queue.drained()

        serial = run_sweep(configs, workers=1, cache_dir=tmp_run_cache + "-serial")
        assert_same_records(serial, report)
        assert_same_cache_entries(tmp_run_cache, tmp_run_cache + "-serial", report.records)
        # the journal kept per-worker logs for the post-mortem
        logs = os.listdir(os.path.join(queue.root, "logs"))
        assert logs, "worker logs missing"

    def test_all_local_workers_dead_parent_finishes_drain(self, tmp_run_cache, tiny_grid):
        """run_sweep never returns a partial report: if every spawned
        worker dies, the parent drains the queue inline."""
        configs = pinned(tiny_grid(2))
        parent = os.getpid()

        def die_in_worker(config):
            # each spawned worker dies holding the lease it just claimed
            if os.getpid() != parent:
                os._exit(1)
            return []

        report = run_sweep(
            configs,
            workers=2,
            cache_dir=tmp_run_cache,
            mp_context="fork",
            callback_factory=die_in_worker,
            lease_timeout=0.05,
        )
        assert report.n_ok == 2
        assert report.stolen == 2


class TestWorkerCLI:
    def test_worker_verb_parses(self):
        args = build_parser().parse_args(
            ["worker", "--queue", "grid-abc", "--max-tasks", "3", "--no-wait"]
        )
        assert args.artifact == "worker"
        assert args.queue == "grid-abc"
        assert args.max_tasks == 3
        assert args.no_wait

    def test_worker_drains_queue(self, tmp_run_cache, tiny_grid, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        configs = pinned(tiny_grid(2))
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(configs)
        args = build_parser().parse_args(["worker", "--queue", "q"])
        out = io.StringIO()
        assert run_worker_command(args, out=out) == 0
        assert queue.drained()
        assert "executed 2 task(s)" in out.getvalue()

    def test_worker_exit_code_reflects_errors(self, tmp_run_cache, tiny_grid, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        bad = [c.with_overrides(dataset="no_such_dataset") for c in pinned(tiny_grid(1))]
        queue = TaskQueue.create(tmp_run_cache, "q")
        queue.enqueue(bad)
        args = build_parser().parse_args(["worker", "--queue", "q"])
        assert run_worker_command(args) == 1

    def test_worker_lease_timeout_updates_queue(self, tmp_run_cache, tiny_grid, monkeypatch):
        """`worker --lease-timeout` is the documented recovery path: it
        must update the live queue so orphaned leases free up."""
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        configs = pinned(tiny_grid(2))
        queue = TaskQueue.create(tmp_run_cache, "q")  # generous default
        queue.enqueue(configs)
        queue.claim("dead-sweep:1:0")  # orphaned lease
        args = build_parser().parse_args(
            ["worker", "--queue", "q", "--lease-timeout", "0.01"]
        )
        out = io.StringIO()
        assert run_worker_command(args, out=out) == 0
        assert queue.meta["lease_timeout"] == 0.01
        assert queue.drained()
        assert queue.counts()["stolen"] == 1

    def test_worker_unknown_queue_exits_cleanly(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        TaskQueue.create(tmp_run_cache, "real")
        with pytest.raises(SystemExit, match="no queue at"):
            resolve_queue_root("grid-typo")
        # ...and the failed lookup must not have minted a phantom queue
        assert sorted(os.listdir(os.path.join(tmp_run_cache, "queue"))) == ["real"]

    def test_queue_resolution(self, tmp_run_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        with pytest.raises(SystemExit, match="no queues"):
            resolve_queue_root(None)
        TaskQueue.create(tmp_run_cache, "only")
        assert resolve_queue_root(None).endswith(os.path.join("queue", "only"))
        TaskQueue.create(tmp_run_cache, "second")
        with pytest.raises(SystemExit, match="multiple queues"):
            resolve_queue_root(None)
        # explicit name and explicit directory both resolve
        assert resolve_queue_root("second").endswith("second")
        explicit = resolve_queue_root(os.path.join(tmp_run_cache, "queue", "only"))
        assert explicit.endswith("only")

    def test_sweep_cli_queue_scheduler(self, tmp_run_cache, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        args = build_parser().parse_args(
            [
                "sweep",
                "--profile",
                "smoke",
                "--workers",
                "2",
                "--models",
                "ResNet20-fast",
                "--methods",
                "sgd",
                "--seeds",
                "0,1",
                "--json",
                str(tmp_path / "report.json"),
            ]
        )
        from repro.experiments.cli import run_sweep_command

        out = io.StringIO()
        assert run_sweep_command(args, out=out) == 0
        with open(tmp_path / "report.json") as fh:
            payload = json.load(fh)
        assert payload["queue"].startswith(os.path.join(tmp_run_cache, "queue", "grid-"))
        assert payload["n_ok"] == 2
        assert "[queue: 0 resumed, 0 stolen]" in out.getvalue()


class TestQueueFromBeforeTheIndex:
    """A journal written before ``journal/open/`` existed drains to
    completion whichever path touches it first — including a resumed
    sweep, whose enqueue re-pends the error and must index the kept
    pending and leased entries along with it."""

    def legacy_queue(self, cache, tiny_grid):
        from repro.experiments import RunRecord, execute_record

        configs = pinned(tiny_grid(4))
        done, failed, orphan, _pending = (config.cache_key() for config in configs)
        queue = TaskQueue.create(cache, queue_name_for(configs))
        queue.enqueue(configs)
        assert queue.claim("old:1:0")["key"] == done
        assert queue.resolve(done, "old:1:0", execute_record(configs[0], cache_dir=cache))
        assert queue.claim("old:1:0")["key"] == failed
        error = RunRecord(key=failed, config=configs[1], status="error", error="OSError: transient")
        assert queue.resolve(failed, "old:1:0", error)
        # claimed an hour ago by a worker that died: expired under the 900 s default
        an_hour_ago = TaskQueue(queue.root, clock=lambda: time.time() - 3600)
        assert an_hour_ago.claim("dead:1:0")["key"] == orphan
        # the layout from before the index: the same files, no open/
        shutil.rmtree(queue.journal.open_dir)
        return queue, configs

    def assert_drained(self, queue, configs, failed_status):
        done, failed, orphan, pending = (config.cache_key() for config in configs)
        statuses = {key: entry["status"] for key, entry in queue.snapshot().items()}
        assert statuses == {done: DONE, failed: failed_status, orphan: DONE, pending: DONE}
        assert queue.journal.read(orphan)["attempts"] == 2  # stolen once
        assert queue.drained()
        assert os.listdir(queue.journal.open_dir) == []

    def test_worker_verb_touches_it_first(self, tmp_run_cache, tiny_grid, monkeypatch):
        queue, configs = self.legacy_queue(tmp_run_cache, tiny_grid)
        monkeypatch.setenv("REPRO_CACHE_DIR", tmp_run_cache)
        args = build_parser().parse_args(["worker", "--queue", os.path.basename(queue.root)])
        out = io.StringIO()
        assert run_worker_command(args, out=out) == 1  # the old error stays terminal
        assert "executed 2 task(s)" in out.getvalue()
        self.assert_drained(queue, configs, ERROR)

    def test_resumed_sweep_touches_it_first(self, tmp_run_cache, tiny_grid):
        queue, configs = self.legacy_queue(tmp_run_cache, tiny_grid)
        report = run_sweep(configs, workers=2, cache_dir=tmp_run_cache, mp_context="fork")
        assert report.queue == queue.root
        assert report.n_ok == 4 and report.resumed == 1 and report.stolen == 1
        self.assert_drained(queue, configs, DONE)

    def test_fleet_worker_touches_it_first(self, tmp_run_cache, tiny_grid):
        from repro.service.supervisor import fleet_worker_loop

        queue, configs = self.legacy_queue(tmp_run_cache, tiny_grid)
        previous = signal.getsignal(signal.SIGTERM)  # the loop installs its own
        try:
            executed = fleet_worker_loop(
                tmp_run_cache, "fleet-0", poll=0.01, stop_when_drained=True, max_seconds=120
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert executed == 2
        self.assert_drained(queue, configs, ERROR)
