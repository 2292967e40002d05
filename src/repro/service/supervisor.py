"""The fleet supervisor: a resident worker pool across sweeps.

A parallel ``run_sweep`` spawns workers, drains one grid and exits.
:class:`FleetSupervisor` inverts that lifecycle: the *workers* are the
long-lived thing, and sweeps come and go around them.  Each fleet
worker runs the scheduler's one
:func:`~repro.experiments.scheduler.worker_loop` over every queue under
the run cache — one claim per queue per pass, so a late-enqueued sweep
is served without waiting for an earlier grid to finish — with
``until=None``, so it never exits on drain; a supervisor process
watches the pool:

* **Restart** — a worker that dies (SIGKILL, OOM, segfault) is
  detected by its process handle and respawned under a fresh identity;
  its orphaned lease expires and is stolen like any other.  Restarts
  are counted per slot and capped.
* **Quarantine patrol** — terminal ``error`` tasks are retried
  (transient conditions heal under a resident fleet) until the queue's
  ``max_attempts`` is exhausted, then parked in the sticky
  ``quarantined`` state so a poison config stops eating workers.
  This patrol runs *only* under a supervisor; a plain queued sweep
  still contains a deterministic failure exactly once.
* **Observability** — the supervisor maintains
  ``<cache>/service/supervisor.json`` (atomic writes, lock-free
  reads), each worker maintains a heartbeat file, and
  ``queue-status`` assembles the fleet-wide snapshot from those plus
  journal snapshots without taking a single lock.

Everything coordinates through the filesystem, like the queues
themselves: point supervisors on several machines at one shared cache
directory and their pools cooperate through the same journals.  See
``docs/fleet.md``.
"""

import os
import signal
import socket
import sys
import time
import uuid
from multiprocessing import get_context

from ..experiments.scheduler import TaskQueue, discover_queues, worker_loop
from ..io import atomic_write_json, read_json
from ..messages import MessageError, SupervisorStateV1, SupervisorWorkerV1
from ..messages import parse as parse_message
from .heartbeat import DEFAULT_INTERVAL, Heartbeat, service_dir

#: Supervisor state-file schema version.  Single-sourced from
#: :class:`repro.messages.SupervisorStateV1`.
SUPERVISOR_VERSION = SupervisorStateV1.VERSION

#: Restarts per worker slot before the supervisor gives up on it.  A
#: crash loop this deep is an environment problem (bad install, full
#: disk) that fresh processes will not fix; the slot is left down and
#: the state file says so.
DEFAULT_MAX_RESTARTS = 100


def _fleet_worker(task):
    """Process entry point of a supervised fleet worker (picklable).

    ``task`` is ``(cache_dir, worker, queues, poll, heartbeat_interval,
    callback_factory)``.  Builds the worker's heartbeat and runs the
    shared :func:`repro.experiments.scheduler.worker_loop` over every
    queue under the cache with ``until=None``: it never exits on drain.
    SIGTERM (the supervisor's stop signal) and Ctrl-C exit cleanly with
    a final ``exited`` heartbeat; SIGKILL leaves the heartbeat file to
    age into ``dead`` — exactly the signal ``queue-status`` reports.
    """
    cache_dir, worker, queues, poll, heartbeat_interval, callback_factory = task
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(0))
    heartbeat = Heartbeat(cache_dir, worker, interval=heartbeat_interval)
    try:
        heartbeat.beat("idle", force=True)
        worker_loop(
            cache_dir=cache_dir,
            queues=queues,
            worker=worker,
            poll=poll,
            until=None,
            callback_factory=callback_factory,
            heartbeat=heartbeat,
        )
    except KeyboardInterrupt:
        # Ctrl-C in a foreground `serve` reaches the whole process
        # group; exit as cleanly as the SIGTERM path (the supervisor
        # is tearing the pool down anyway).
        pass
    finally:
        heartbeat.close()


def read_supervisor_state(cache_dir):
    """The supervisor's last published state, or ``None`` (lock-free).

    The state file is advisory observability, not coordination state,
    so a file this build cannot parse (torn write, foreign version)
    degrades to ``None`` — the same as no supervisor — rather than
    failing the whole status snapshot.
    """
    raw = read_json(os.path.join(service_dir(cache_dir), "supervisor.json"))
    try:
        return parse_message("service.supervisor_state", raw).to_dict()
    except MessageError:
        return None


class FleetSupervisor:
    """Keep ``workers`` fleet workers alive over the queues of a cache dir.

    The supervisor is deliberately boring: spawn, watch, respawn,
    patrol, publish state.  All sweep semantics (leases, stealing,
    parity) live in the queue layer; all the supervisor adds is that
    worker processes stop being precious.

    Parameters mirror the ``serve`` CLI verb.  ``mp_context`` defaults
    to ``spawn`` like the sweep engine (fork is available for tests);
    ``patrol=False`` disables the error-retry/quarantine pass;
    ``queues`` restricts the fleet to named queues.
    """

    def __init__(
        self,
        cache_dir,
        workers=2,
        poll=0.25,
        worker_poll=0.25,
        heartbeat_interval=DEFAULT_INTERVAL,
        queues=None,
        mp_context="spawn",
        max_restarts=DEFAULT_MAX_RESTARTS,
        callback_factory=None,
        patrol=True,
        clock=time.time,
    ):
        self.cache_dir = os.path.abspath(cache_dir)
        self.workers = max(1, int(workers))
        self.poll = poll
        self.worker_poll = worker_poll
        self.heartbeat_interval = heartbeat_interval
        self.queues = list(queues) if queues is not None else None
        self.ctx = get_context(mp_context)
        self.max_restarts = max_restarts
        self.callback_factory = callback_factory
        self.patrol_enabled = patrol
        self.clock = clock
        self.slots = []
        self.started_at = None
        self.quarantined_total = 0
        self.retried_total = 0
        self._log_fh = None

    # -- bookkeeping ---------------------------------------------------
    @property
    def state_path(self):
        return os.path.join(service_dir(self.cache_dir), "supervisor.json")

    @property
    def log_path(self):
        return os.path.join(service_dir(self.cache_dir), "supervisor.log")

    def log(self, message):
        if self._log_fh is None:
            os.makedirs(service_dir(self.cache_dir), exist_ok=True)
            self._log_fh = open(self.log_path, "a", buffering=1)
        self._log_fh.write(f"{time.strftime('%H:%M:%S')} [supervisor] {message}\n")

    def write_state(self, status="running"):
        """Publish the supervisor's view atomically (lock-free reads)."""
        atomic_write_json(
            self.state_path,
            SupervisorStateV1(
                pid=os.getpid(),
                host=socket.gethostname(),
                status=status,
                started_at=self.started_at,
                updated_at=self.clock(),
                poll=self.poll,
                queues=self.queues,
                retried_total=self.retried_total,
                quarantined_total=self.quarantined_total,
                restarts_total=sum(slot["restarts"] for slot in self.slots),
                workers=[
                    SupervisorWorkerV1(
                        slot=slot["name"],
                        worker=slot["worker"],
                        pid=slot["proc"].pid if slot["proc"] is not None else None,
                        alive=slot["proc"] is not None and slot["proc"].is_alive(),
                        restarts=slot["restarts"],
                        spawned_at=slot["spawned_at"],
                    )
                    for slot in self.slots
                ],
            ).to_dict(),
        )

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot):
        """(Re)start one slot's worker under a fresh identity.

        The identity embeds the slot name, the restart generation and
        a nonce, so a respawn can never be mistaken for the lease
        holder it replaces (pid reuse included) and every generation
        gets its own heartbeat file and per-queue log.
        """
        slot["worker"] = (
            f"{slot['name']}-r{slot['restarts']}-{uuid.uuid4().hex[:8]}"
            f"@{socket.gethostname()}"
        )
        proc = self.ctx.Process(
            target=_fleet_worker,
            args=(
                (
                    self.cache_dir,
                    slot["worker"],
                    self.queues,
                    self.worker_poll,
                    self.heartbeat_interval,
                    self.callback_factory,
                ),
            ),
            daemon=False,
        )
        proc.start()
        slot["proc"] = proc
        slot["spawned_at"] = self.clock()
        self.log(f"spawned {slot['name']} as {slot['worker']} (pid {proc.pid})")

    def start(self):
        """Spawn the pool and publish the first state snapshot."""
        if self.slots:
            raise RuntimeError("supervisor already started")
        self.started_at = self.clock()
        for index in range(self.workers):
            slot = {
                "name": f"fleet-{index}",
                "worker": None,
                "proc": None,
                "restarts": 0,
                "spawned_at": None,
            }
            self.slots.append(slot)
            self._spawn(slot)
        self.write_state()
        return self

    def monitor_once(self):
        """One supervision pass: restart dead workers, patrol, publish.

        Returns ``{"restarted": [...], "retried": [...],
        "quarantined": [...]}`` for callers (tests, benchmarks) that
        want to observe what the pass did.
        """
        restarted = []
        for slot in self.slots:
            proc = slot["proc"]
            if proc is None or proc.is_alive():
                continue
            exitcode = proc.exitcode
            proc.join()
            if slot["restarts"] >= self.max_restarts:
                self.log(
                    f"{slot['name']} died (exit {exitcode}) after "
                    f"{slot['restarts']} restart(s); giving up on this slot"
                )
                slot["proc"] = None
                continue
            slot["restarts"] += 1
            self.log(
                f"{slot['name']} ({slot['worker']}) died with exit {exitcode}; "
                f"restarting (restart #{slot['restarts']})"
            )
            self._spawn(slot)
            restarted.append(slot["name"])
        retried, quarantined = self.patrol() if self.patrol_enabled else ([], [])
        self.write_state()
        return {"restarted": restarted, "retried": retried, "quarantined": quarantined}

    def patrol(self):
        """Retry or quarantine ``error`` tasks across every served queue."""
        retried_all, quarantined_all = [], []
        for root in discover_queues(self.cache_dir, self.queues):
            retried, quarantined = TaskQueue(root).retry_errors()
            for key in retried:
                self.log(f"retrying error task {key} in {os.path.basename(root)}")
            for key in quarantined:
                self.log(f"quarantined poison task {key} in {os.path.basename(root)}")
            retried_all += retried
            quarantined_all += quarantined
        self.retried_total += len(retried_all)
        self.quarantined_total += len(quarantined_all)
        return retried_all, quarantined_all

    def queues_drained(self):
        """True when every served queue is terminal (vacuously if none)."""
        return all(TaskQueue(root).drained() for root in discover_queues(self.cache_dir, self.queues))

    def serve(self, until_drained=False, max_seconds=None):
        """Supervise until stopped; the resident-service main loop.

        ``until_drained=True`` turns the service into a bounded drill:
        it exits (and stops the pool) once every queue is terminal —
        the mode CI's fleet drill and the benchmarks use.
        ``max_seconds`` bounds either mode.  The pool is always
        stopped on the way out, including on KeyboardInterrupt.
        """
        if not self.slots:
            self.start()
        started = time.monotonic()
        try:
            while True:
                self.monitor_once()
                if until_drained and self.queues_drained():
                    self.log("all queues drained; stopping")
                    break
                if max_seconds is not None and time.monotonic() - started >= max_seconds:
                    self.log(f"max_seconds={max_seconds} reached; stopping")
                    break
                time.sleep(self.poll)
        finally:
            self.stop()

    def stop(self):
        """Terminate the pool (SIGTERM, then SIGKILL) and publish ``stopped``."""
        for slot in self.slots:
            proc = slot["proc"]
            if proc is None:
                continue
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - wedged worker
                    proc.kill()
                    proc.join()
            else:
                proc.join()
        self.write_state(status="stopped")
        self.log("stopped")
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
