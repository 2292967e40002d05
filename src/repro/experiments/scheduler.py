"""Queued, resumable sweep scheduling with work-stealing workers.

This is the one parallel executor behind
:func:`repro.experiments.sweep.run_sweep`: any sweep with ``workers >=
2`` (or ``workers=0``, a fleet submission) runs through a **durable
task queue** shared through the run-cache directory, so a straggler
run never idles the other workers, a crashed sweep keeps its
bookkeeping, and any process that can see the cache may join:

* **Journal** — one :class:`repro.io.LeaseJournal` record per config
  signature under ``<cache>/queue/<name>/journal/``, transitioned
  ``pending → leased → done/error`` (the batch server's protocol too).
  The journal *is* the sweep state: any process that can see the
  cache directory can enqueue, work, tail or resume.
* **Leases** — a claim stamps the record with a worker identity and
  the time.  A worker that dies mid-task simply stops renewing its
  claim; once the lease expires any other worker **steals** the task
  and re-runs it (results are deterministic per config, so a re-run
  is bit-identical).  A task whose lease expires
  :data:`DEFAULT_MAX_ATTEMPTS` times is marked ``quarantined`` instead
  of looping forever — the poison-task backstop.  Claims list the
  open index ``journal/open/``, so idle ones read no finished task.
* **Work-stealing workers** — :func:`worker_loop` is a claim → train
  → record loop any number of processes can run concurrently, on any
  machine sharing the cache directory (``python -m repro.experiments
  worker``).  Workers drain the queue and exit; adding workers
  mid-sweep just makes it drain faster.
* **Resume** — re-enqueueing the same grid keeps ``done`` records
  whose run-cache entries are intact (their metrics are served
  straight from the journal) and re-runs everything else.  An
  interrupted sweep picks up where it left off with zero duplicated
  training.

Crash-in-task semantics match the serial loop: an exception inside a
run is contained as an ``error`` record by
:func:`repro.experiments.runner.execute_record` and is **not**
retried within the sweep (a deterministic failure would fail again);
only lease expiry — evidence the *worker* died, not the task —
triggers a steal.  See ``docs/scheduler.md`` for the journal-state
diagram and the multi-machine recipe.
"""

import dataclasses
import hashlib
import json
import os
import time

from ..core.trainer import Callback
from ..io import (
    DONE,
    ERROR,
    LEASED,
    PENDING,
    LeaseJournal,
    atomic_write_json,
    file_lock,
    worker_identity,
)
from ..messages import JournalEntryV2, MessageError
from ..messages import parse as parse_message
from .config import TrainConfig
from .reporting import RunRecord, record_from_dict, record_to_dict
from .runner import _cache_complete, execute_record

#: Journal entry schema version, bumped on any incompatible change.
#: Single-sourced from :class:`repro.messages.JournalEntryV2` — the
#: schema itself lives in ``repro.messages`` and is pinned by the
#: golden vectors under ``tests/messages/vectors/`` plus the hash in
#: ``tests/test_golden.py``.  Version 2 added the terminal
#: ``quarantined`` state (the poison backstop, previously a synthetic
#: ``error``) — a v1 worker would treat a quarantined entry as
#: claimable garbage, hence the bump.
JOURNAL_VERSION = JournalEntryV2.VERSION

#: Every key of a journal entry, in canonical order — the version
#: envelope plus the message type's fields (the golden test asserts
#: this tuple and the serialized shape never drift silently).
ENTRY_FIELDS = ("version",) + tuple(
    field.name for field in dataclasses.fields(JournalEntryV2)
)

#: The queue's own terminal state.  ``quarantined`` is terminal like
#: ``done`` and ``error`` but *sticky*: a plain re-enqueue re-runs
#: errors, while a quarantined task stays parked until forced — it has
#: already eaten ``max_attempts`` workers (or kept erroring under the
#: fleet supervisor's retry patrol) and must not poison the pool again.
QUARANTINED = "quarantined"
TERMINAL = (DONE, ERROR, QUARANTINED)

#: Seconds a claim stays valid before other workers may steal the task.
#: Generous by default — a steal re-runs the whole task, so false
#: steals (a slow-but-alive worker) waste more than late steals cost.
DEFAULT_LEASE_TIMEOUT = 900.0

#: Claims (first run + steals) before a task is marked ``error``.
DEFAULT_MAX_ATTEMPTS = 3

#: Subdirectory of the run cache holding every queue.
QUEUE_SUBDIR = "queue"


def queue_name_for(configs):
    """Deterministic queue name for a grid: hash of its ordered run keys.

    The same grid always maps to the same queue, which is what makes a
    parallel ``run_sweep`` resumable without the caller naming
    anything; distinct grids land in distinct queues.
    """
    keys = "\n".join(config.cache_key() for config in configs)
    return "grid-" + hashlib.sha256(keys.encode()).hexdigest()[:12]


def queue_root(cache_dir, name):
    """Directory queue ``name`` occupies under the run cache."""
    return os.path.join(os.path.abspath(cache_dir), QUEUE_SUBDIR, name)


def new_entry(config, force=False, now=0.0):
    """A fresh ``pending`` journal entry for ``config``.

    Pure function of its arguments (the clock is passed in), so the
    golden schema test can pin the exact serialized form.  Built
    through :class:`repro.messages.JournalEntryV2`, so an invalid
    entry cannot even be constructed.
    """
    return JournalEntryV2(
        key=config.cache_key(),
        config=config.to_dict(),
        force=bool(force),
        status=PENDING,
        attempts=0,
        worker=None,
        leased_at=None,
        lease_expires=None,
        enqueued_at=now,
        started_at=None,
        finished_at=None,
        record=None,
    ).to_dict()


def parse_entry(payload, key=None):
    """Validate a raw journal payload at the read boundary.

    Returns the canonical dict form of the (possibly upgraded) entry:
    a v1 entry comes back as v2 via its ``upgrade()`` hook, a valid v2
    entry round-trips unchanged, and anything else — unknown fields,
    missing fields, a version this build cannot read — raises the
    typed :class:`repro.messages.MessageError` subclass with the task
    key attached, instead of surfacing as a ``KeyError`` deep in a
    worker (or being silently skipped, as pre-messages compaction
    did).
    """
    try:
        return parse_message("queue.journal_entry", payload).to_dict()
    except MessageError as exc:
        where = f"journal entry {key!r}" if key is not None else "journal entry"
        raise type(exc)(f"{where}: {exc}") from exc


class TaskQueue:
    """A durable sweep queue: journal + manifest under one directory.

    The journal (a :class:`repro.io.LeaseJournal`) holds one entry per
    config signature; ``manifest.json`` records the order of first
    appearance (claims follow it, reports present records in it) and
    ``meta.json`` the queue-wide settings (lease timeout, max attempts).
    Everything is plain JSON under the run cache, so ``TaskQueue(root)``
    on any machine mounting the same directory sees the same queue.
    """

    def __init__(self, root, clock=time.time):
        self.root = os.path.abspath(root)
        self.journal = LeaseJournal(
            os.path.join(self.root, "journal"), clock=clock, parse=parse_entry
        )
        self.clock = clock

    # -- creation / metadata -------------------------------------------
    @classmethod
    def create(
        cls,
        cache_dir,
        name,
        lease_timeout=None,
        max_attempts=None,
        clock=time.time,
    ):
        """Open-or-create the queue ``name`` under ``cache_dir``.

        Creation is idempotent and race-safe: the first creator writes
        ``meta.json`` (defaults filled in); later creators adopt the
        existing settings so every worker agrees on lease semantics —
        *unless* they pass ``lease_timeout``/``max_attempts``
        explicitly, which updates the live queue.  That asymmetry is
        deliberate: resuming an interrupted sweep with a shorter
        ``--lease-timeout`` is how an operator reclaims leases
        orphaned by a dead sweep without waiting out the original
        (deliberately generous) timeout.  Workers re-read the settings
        on every claim, so an update takes effect fleet-wide.
        """
        queue = cls(queue_root(cache_dir, name), clock=clock)
        meta_path = os.path.join(queue.root, "meta.json")
        with file_lock(meta_path + ".lock"):
            try:
                with open(meta_path) as fh:
                    meta = json.load(fh)
            except FileNotFoundError:
                meta = {
                    "version": JOURNAL_VERSION,
                    "name": name,
                    "lease_timeout": DEFAULT_LEASE_TIMEOUT,
                    "max_attempts": DEFAULT_MAX_ATTEMPTS,
                    "created_at": queue.clock(),
                }
            updated = dict(meta)
            if lease_timeout is not None:
                updated["lease_timeout"] = float(lease_timeout)
            if max_attempts is not None:
                updated["max_attempts"] = int(max_attempts)
            if updated != meta or not os.path.exists(meta_path):
                atomic_write_json(meta_path, updated, indent=2)
        return queue

    @property
    def meta(self):
        with open(os.path.join(self.root, "meta.json")) as fh:
            return json.load(fh)

    @property
    def cache_dir(self):
        """The run-cache directory this queue lives under.

        Derived from the queue's location rather than stored, so a
        shared filesystem mounted at different paths on different
        machines still resolves correctly on each of them.
        """
        return os.path.dirname(os.path.dirname(self.root))

    def _manifest_path(self):
        return os.path.join(self.root, "manifest.json")

    def keys(self):
        """Task keys in order of first enqueue."""
        try:
            with open(self._manifest_path()) as fh:
                return json.load(fh)["keys"]
        except FileNotFoundError:
            return []

    # -- enqueue / resume ----------------------------------------------
    def enqueue(self, configs, force=False):
        """Add ``configs`` to the queue; returns ``(enqueued, resumed)``.

        Per config signature:

        * no entry, or a terminal ``error`` entry → fresh ``pending``
          (resuming re-runs exactly the non-``done`` work);
        * ``pending``/``leased`` → untouched (an expired lease is the
          claim path's business, not enqueue's);
        * ``done`` → untouched and counted in ``resumed`` — its stored
          record is served without re-running anything — as long as
          its run-cache entry is complete; a ``done`` task whose entry
          was deleted or torn since is re-pended, since the journal
          must never vouch for weights the cache no longer holds;
        * ``quarantined`` → untouched and counted in ``resumed``: the
          poison backstop already parked it with a terminal record, and
          re-running it would just feed it more workers.  Only
          ``force=True`` un-quarantines;
        * ``force=True`` → everything resets to ``pending`` with the
          force flag set, so workers retrain past the run cache.

        Existing entries pass through the :func:`parse_entry` read
        boundary first: an old-version entry is upgraded in place (and
        persisted as v2, counted under its natural outcome rather than
        vanished), while an entry this build cannot read raises a
        typed :class:`repro.messages.VersionError` naming the key.

        On a journal from before the open index, the first task turned
        ``pending`` builds the whole index, kept entries included.
        """
        now = self.clock()
        enqueued = resumed = 0
        ordered = []
        for config in configs:
            key = config.cache_key()
            ordered.append(key)
            fresh = new_entry(config, force=force, now=now)
            state = {}

            def mutate(current, key=key, fresh=fresh, state=state):
                entry = None if current is None else parse_entry(current, key=key)
                lost = (
                    entry is not None
                    and entry["status"] == DONE
                    and not _cache_complete(os.path.join(self.cache_dir, key))
                )
                if entry is None or force or entry["status"] == ERROR or lost:
                    state["outcome"] = "enqueued"
                    return fresh
                state["outcome"] = (
                    "resumed" if entry["status"] in (DONE, QUARANTINED) else "kept"
                )
                # A kept entry that parsing *changed* (a v1 entry that
                # was upgraded) must be persisted; an unchanged entry
                # returns the original object so JsonJournal skips the
                # rewrite entirely.
                return current if entry == current else entry

            self.journal.update(key, mutate)
            if state["outcome"] == "enqueued":
                enqueued += 1
            elif state["outcome"] == "resumed":
                resumed += 1
        self._extend_manifest(ordered)
        return enqueued, resumed

    def _extend_manifest(self, keys):
        path = self._manifest_path()
        with file_lock(path + ".lock"):
            existing = self.keys()
            seen = set(existing)
            merged = list(existing)
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    merged.append(key)
            if merged != existing:
                atomic_write_json(path, {"version": JOURNAL_VERSION, "keys": merged})

    # -- claiming ------------------------------------------------------
    def claim(self, worker):
        """Lease the first runnable task; returns its entry or ``None``.

        :meth:`repro.io.LeaseJournal.claim` under the queue's current
        settings, over the open index in manifest (grid) order, so an
        idle claim reads no entry at all.  Stealing an expired lease
        whose attempts are exhausted marks the task ``quarantined``
        (with a synthetic record naming the last worker that died on
        it) rather than claiming it — the poison backstop.
        """
        meta = self.meta
        max_attempts = meta["max_attempts"]

        def quarantine(entry):
            error = (f"lease expired {entry['attempts']} time(s) (last worker "
                     f"{entry['worker']!r}); max_attempts={max_attempts} exhausted")
            failure = RunRecord(key=entry["key"], config=None, status="error", error=error)
            return {"status": QUARANTINED, "record": record_to_dict(failure, include_config=False)}

        return self.journal.claim(worker, meta["lease_timeout"], max_attempts, quarantine,
                                  order=self._in_grid_order)

    def _in_grid_order(self, keys):
        """``keys`` in manifest order (any not yet in the manifest last)."""
        rank = {key: index for index, key in enumerate(self.keys())}
        return sorted(keys, key=lambda key: (rank.get(key, len(rank)), key))

    def renew(self, key, worker):
        """Extend a live lease; returns False if the lease was lost.

        A long-running worker calls this between epochs (or any other
        natural heartbeat) so a generous lease timeout isn't needed to
        cover the whole task — only the gap between heartbeats.
        """
        return self.journal.renew(key, worker, self.meta["lease_timeout"])

    # -- completion ----------------------------------------------------
    def resolve(self, key, worker, record):
        """Write a task's outcome; returns False if the lease was stolen.

        The transition only lands if ``worker`` still holds the lease —
        a worker that stalled past its lease (its task was stolen and
        possibly re-completed) must not clobber the thief's record.
        """
        outcome = {"status": DONE if record.ok else ERROR,
                   "record": record_to_dict(record, include_config=False)}
        return self.journal.resolve(key, worker, outcome) is not None

    # -- supervision ---------------------------------------------------
    def retry_errors(self):
        """Re-run or quarantine terminal ``error`` tasks; the fleet patrol.

        A resident fleet (:mod:`repro.service`) outlives any single
        sweep, so a task that erred under transient conditions — disk
        full, OOM, a dataset cache mid-eviction — deserves another
        attempt once the environment may have healed.  Each ``error``
        entry whose attempts are below the queue's ``max_attempts`` is
        reset to ``pending`` (attempts preserved, so retries are
        bounded); one that has exhausted its attempts is moved to
        ``quarantined``, keeping its last error record.  Returns
        ``(retried_keys, quarantined_keys)``.

        Never called by plain ``run_sweep`` — without a supervisor a
        deterministic failure is still contained once and not retried.
        """
        max_attempts = self.meta["max_attempts"]
        retried, quarantined = [], []
        for key, entry in self.snapshot().items():
            if entry["status"] != ERROR:
                continue
            state = {}

            def mutate(current, key=key, state=state):
                entry = None if current is None else parse_entry(current, key=key)
                if entry is None or entry["status"] != ERROR:
                    return current  # someone else moved it first
                if entry["attempts"] >= max_attempts:
                    state["outcome"] = QUARANTINED
                    return parse_entry(dict(entry, status=QUARANTINED), key=key)
                state["outcome"] = PENDING
                pended = dict(entry, status=PENDING, worker=None, leased_at=None,
                              lease_expires=None, finished_at=None, record=None)
                return parse_entry(pended, key=key)

            self.journal.update(key, mutate)
            if state:
                (quarantined if state["outcome"] == QUARANTINED else retried).append(key)
        return retried, quarantined

    # -- observation ---------------------------------------------------
    def snapshot(self):
        """``{key: entry}`` for every journal entry (lock-free)."""
        return self.journal.snapshot()

    def counts(self, snapshot=None):
        """``{state: n}`` over the journal (plus ``"stolen"`` re-claims)."""
        snapshot = self.snapshot() if snapshot is None else snapshot
        counts = {PENDING: 0, LEASED: 0, DONE: 0, ERROR: 0, QUARANTINED: 0, "stolen": 0}
        for entry in snapshot.values():
            counts[entry["status"]] += 1
            counts["stolen"] += max(0, entry["attempts"] - 1)
        return counts

    def drained(self):
        """True once tasks were enqueued and none is open (reads the open index only)."""
        return os.path.exists(self._manifest_path()) and self.journal.drained()

    def record_for(self, entry):
        """Rebuild the :class:`RunRecord` a terminal ``entry`` stores."""
        entry = parse_entry(entry, key=entry.get("key"))
        config = TrainConfig.from_dict(entry["config"])
        return record_from_dict(entry["record"], config=config)


def format_queue(queue, snapshot=None):
    """One-line human summary of a queue's state."""
    counts = queue.counts(snapshot)
    total = sum(counts[state] for state in (PENDING, LEASED, DONE, ERROR, QUARANTINED))
    return (
        f"queue {os.path.basename(queue.root)}: {total} task(s) — "
        f"{counts[DONE]} done, {counts[ERROR]} error, "
        f"{counts[QUARANTINED]} quarantined, {counts[LEASED]} leased, "
        f"{counts[PENDING]} pending, {counts['stolen']} stolen"
    )


# ----------------------------------------------------------------------
# Step-granular lease renewal
# ----------------------------------------------------------------------
#: Fraction of the lease timeout that may elapse before the next
#: renewal is attempted.  Half the timeout means a renewal can fail
#: once (slow filesystem, contended lock) and the worker still gets a
#: second chance before the lease becomes stealable.
RENEW_FRACTION = 0.5


class StepLeaseRenewal(Callback):
    """Renew a task's lease from inside the trainer's step loop.

    Attached by :func:`worker_loop` to every run it executes: the
    trainer invokes :meth:`on_step_end` after each optimizer step, and
    whenever more than ``fraction`` of the lease timeout has elapsed
    since the last renewal the callback extends the lease (and beats
    the worker's heartbeat).  This is what lets a queue run a *short*
    lease timeout — fast steals when a worker truly dies — without
    stealing from a ``full``-profile run whose single task outlives
    the timeout many times over: liveness is proven per step, not per
    task.

    If a renewal comes back refused the lease was stolen (the worker
    stalled past the timeout for longer than a step — swapping, paused
    in a debugger, a filesystem brown-out).  The callback then requests
    a stop: the thief is already re-running the task, this worker's
    result would be discarded by :meth:`TaskQueue.resolve` anyway, and
    every further step is wasted work.

    The between-steps check is two clock reads when no renewal is due,
    so even smoke-profile runs (hundreds of steps/second) pay nothing
    measurable.
    """

    def __init__(self, queue, key, worker, fraction=RENEW_FRACTION, heartbeat=None,
                 clock=time.time):
        self.queue = queue
        self.key = key
        self.worker = worker
        self.fraction = fraction
        self.heartbeat = heartbeat
        self.clock = clock
        self.lease_timeout = queue.meta["lease_timeout"]
        self.renewed_at = clock()
        self.renewals = 0
        self.lost = False

    def due(self):
        return self.clock() - self.renewed_at >= self.fraction * self.lease_timeout

    def on_step_end(self, trainer, step):
        if self.heartbeat is not None:
            self.heartbeat.beat("running", queue=self.queue.root, key=self.key)
        if self.lost or not self.due():
            return
        if self.queue.renew(self.key, self.worker):
            self.renewed_at = self.clock()
            # Refresh the timeout: an operator may have shortened it on
            # the live queue (the documented recovery path), and renewal
            # cadence must follow the setting actually in force.
            self.lease_timeout = self.queue.meta["lease_timeout"]
            self.renewals += 1
        else:
            self.lost = True
            if trainer is not None:
                trainer.stop_requested = True


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
def _worker_log(queue, worker):
    """Append-only per-worker log file inside the queue directory.

    The logs ride the shared filesystem next to the journal, so a
    multi-machine sweep's post-mortem (who leased what, what was
    stolen) is one directory listing away; CI uploads them as the
    fault-injection artifact.
    """
    log_dir = os.path.join(queue.root, "logs")
    os.makedirs(log_dir, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in worker)
    path = os.path.join(log_dir, safe + ".log")
    fh = open(path, "a", buffering=1)

    def log(message):
        fh.write(f"{time.strftime('%H:%M:%S')} [{worker}] {message}\n")

    return fh, log


def run_claimed_task(queue, entry, worker, callback_factory=None, heartbeat=None, log=None):
    """Execute one claimed ``entry`` and resolve it; returns the record.

    The single task-execution step shared by :func:`worker_loop` and
    the fleet's multi-queue workers (:mod:`repro.service.supervisor`):
    attach a :class:`StepLeaseRenewal` so the lease is kept alive from
    inside the trainer's step loop, run through ``execute_record``
    (crash contained), and resolve under lease ownership — a stale
    worker's result is discarded, never double-written.
    """
    key = entry["key"]
    config = TrainConfig.from_dict(entry["config"])
    renewal = StepLeaseRenewal(queue, key, worker, heartbeat=heartbeat)
    record = execute_record(
        config,
        cache_dir=queue.cache_dir,
        force=entry["force"],
        callback_factory=callback_factory,
        extra_callbacks=(renewal,),
    )
    resolved = queue.resolve(key, worker, record)
    if log is not None:
        renewed = f" ({renewal.renewals} renewal(s))" if renewal.renewals else ""
        if resolved:
            log(f"{record.status} {key} in {record.seconds:.2f}s{renewed}")
        else:
            log(f"lease lost on {key}; discarding result{renewed}")
    return record if resolved else None


def worker_loop(
    root,
    worker=None,
    callback_factory=None,
    poll=0.5,
    wait=True,
    max_tasks=None,
    on_record=None,
    heartbeat=None,
):
    """Drain tasks from the queue at ``root``; returns tasks executed.

    The work-stealing loop: claim the first runnable task (pending, or
    leased with an expired lease), execute it against the shared run
    cache, record the outcome, repeat.  With ``wait=True`` (the
    default) the worker naps ``poll`` seconds whenever nothing is
    runnable and exits once the queue is drained — so a fleet of
    workers started at different times, on different machines, all
    finish together.  ``wait=False`` exits at the first idle scan
    (batch-queue style).  ``max_tasks`` caps this worker's share.

    Every run executes with a :class:`StepLeaseRenewal` attached, so
    the lease is renewed between optimizer steps rather than only
    between tasks — a task longer than the lease timeout is safe as
    long as individual steps are shorter than it.  Each run still
    re-resolves its lease before being recorded: a worker that stalled
    past its lease timeout discards its result (the task was stolen;
    the thief's deterministic re-run produced the same thing) instead
    of double-writing.  ``heartbeat`` (a
    :class:`repro.service.heartbeat.Heartbeat`, optional) is beaten on
    every claim/finish/idle transition and between steps, which is
    what ``queue-status`` derives per-worker liveness from.
    """
    queue = TaskQueue(root)
    worker = worker or worker_identity()
    fh, log = _worker_log(queue, worker)
    executed = 0
    log(f"worker start (root={queue.root})")
    try:
        while True:
            entry = queue.claim(worker)
            if entry is None:
                if queue.drained():
                    log("queue drained; exiting")
                    break
                if not wait:
                    log("nothing runnable; exiting (wait=False)")
                    break
                if heartbeat is not None:
                    heartbeat.beat("idle", queue=queue.root)
                time.sleep(poll)
                continue
            key = entry["key"]
            stolen = " (stolen)" if entry["attempts"] > 1 else ""
            log(f"claimed {key} attempt={entry['attempts']}{stolen}")
            if heartbeat is not None:
                heartbeat.beat("running", queue=queue.root, key=key, force=True)
            record = run_claimed_task(
                queue, entry, worker,
                callback_factory=callback_factory, heartbeat=heartbeat, log=log,
            )
            if record is not None and on_record is not None:
                on_record(record)
            executed += 1
            if heartbeat is not None:
                heartbeat.tasks_done += 1
                heartbeat.beat("idle", queue=queue.root, force=True)
            if max_tasks is not None and executed >= max_tasks:
                log(f"max_tasks={max_tasks} reached; exiting")
                break
    finally:
        fh.close()
    return executed


def _worker_main(task):
    """Process entry point of the workers ``run_sweep`` spawns (picklable).

    ``task`` is ``(root, worker, callback_factory, poll)``.  The worker
    exits at its first idle scan instead of napping ``poll`` seconds:
    every task of the sweep was enqueued before it started, so nothing
    runnable can appear later except a dead worker's expired lease, and
    ``run_sweep`` steals those itself once its workers have exited.
    """
    root, worker, callback_factory, poll = task
    return worker_loop(
        root, worker=worker, callback_factory=callback_factory, poll=poll, wait=False
    )
