"""Async micro-batched inference server over the filesystem substrate.

The serving harness reuses the repo's coordination primitives instead
of inventing a network protocol: clients, the batcher and any number of
workers (threads, processes, or processes on other machines sharing the
filesystem) rendezvous in one server directory:

    <cache>/serving/<name>/
        meta.json            server settings (artifact key, budgets)
        requests/<id>.npz    unserved inputs (atomic rename publication)
        served/<id>.npz      inputs of answered requests, moved by rename
        responses/<id>.npy   outputs (atomic, last-writer-wins)
        responses/<id>.error.json   terminal failure markers
        batches/<key>.json   the batch journal (a repro.io.LeaseJournal)
        batches/open/<key>   its open index: an empty marker per
                             pending or leased batch
        service/heartbeats/  worker + batcher liveness (repro.service)
        stats.json           serving.server_stats snapshot

**Admission and batching.** Clients drop request files; the single
batcher polls the directory, admits new requests, and flushes a batch
when it holds ``max_batch`` requests, when the oldest admitted request
has waited ``max_delay``, *or* when no batch is open (pending or
leased) — whichever comes first.  The last rule keeps an idle server
from holding a request for companions while its workers sit idle; a
request waits for the deadline only while a batch is open.  A flushed
batch is one journal record naming its request ids.

**Dispatch and fault model.** Workers claim batches through
:class:`repro.io.LeaseJournal`, as sweep workers claim tasks: a
SIGKILLed worker's lease lapses and a survivor re-serves the batch.
Responses are written via atomic rename, and model outputs are
deterministic, so duplicated serves converge on identical bytes —
every client gets exactly one correct response.  A batch whose lease
expires ``max_attempts`` times, or whose forward raised in the worker
still holding it, gets error markers instead of hanging its clients.

**Determinism contract.** A worker runs one forward *per request*
inside its claimed batch (BLAS kernels are not bit-stable across batch
shapes — concatenating requests would make a response depend on which
requests happened to share its batch).  Under load, the micro-batch
amortizes the per-batch costs: journal claim/resolve transactions,
lease renewals, heartbeats and scheduling wakeups.  Served outputs are
bit-identical to an offline forward of the published artifact.

**Cost as history grows.** Every per-poll path touches only in-flight
work: a claim lists ``batches/open/``; the batcher lists ``requests/``
(answered inputs move to ``served/``), plus ``batches/open/`` while it
holds requests; and a stats pass reads only the batches emitted since
the last pass plus those still open.  Finished
records stay on disk for the observers (``BatchJournal.snapshot`` and
``counts``); the whole journal is read only at start-up, by the
batcher's replay and the first stats pass.
"""

import os
import socket
import threading
import time
import uuid

import numpy as np

from ..io import (
    DONE,
    ERROR,
    LEASED,
    PENDING,
    LeaseJournal,
    atomic_write_json,
    read_json,
    worker_identity,
)
from ..messages import BatchRecordV1, ServerStatsV1, parse
from ..service import Heartbeat
from ..tensor import Tensor, no_grad
from .artifact import default_cache_dir, load_artifact

DEFAULT_MAX_BATCH = 8
DEFAULT_MAX_DELAY = 0.01
DEFAULT_LEASE_TIMEOUT = 5.0
DEFAULT_MAX_ATTEMPTS = 5

# numpy parses ``.npy`` headers with ``ast.literal_eval``, which is not
# thread-safe on CPython 3.11 (concurrent parses can fail with "AST
# constructor recursion depth mismatch"), so every request and response
# read in this process holds this lock.
_NPY_READ_LOCK = threading.Lock()


class ServingError(RuntimeError):
    """A request terminally failed (poison batch or worker exception)."""


def server_root(name, cache_dir=None):
    """Directory one named server's state lives under."""
    root = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(os.path.abspath(root), "serving", name)


# ----------------------------------------------------------------------
# Requests and responses
# ----------------------------------------------------------------------
class RequestStore:
    """Admitted inputs and served outputs, all atomic-rename published.

    A request file appears atomically (temp + rename), so the batcher
    never reads a torn ``.npz``; a response file likewise, so a client
    polling for it either sees nothing or the complete array.  Re-served
    batches rewrite responses with identical bytes (deterministic
    forward), making last-writer-wins correct.

    Once answered, a request's input moves from ``requests/`` to
    ``served/`` (:meth:`retire`), so the admission directory holds only
    unserved work however long the server has run.
    """

    def __init__(self, root, clock=time.time):
        self.root = root
        self.requests_dir = os.path.join(root, "requests")
        self.served_dir = os.path.join(root, "served")
        self.responses_dir = os.path.join(root, "responses")
        self.clock = clock

    def submit(self, x, request_id=None):
        """Publish one input array; returns the request id."""
        os.makedirs(self.requests_dir, exist_ok=True)
        request_id = request_id or uuid.uuid4().hex[:12]
        tmp = os.path.join(self.requests_dir, f".tmp.{request_id}.npz")
        np.savez(tmp, x=np.asarray(x), submitted_at=np.float64(self.clock()))
        os.replace(tmp, os.path.join(self.requests_dir, request_id + ".npz"))
        return request_id

    def scan(self):
        """Sorted ids of every complete, unserved request file on disk."""
        if not os.path.isdir(self.requests_dir):
            return []
        return sorted(
            name[: -len(".npz")]
            for name in os.listdir(self.requests_dir)
            if name.endswith(".npz") and not name.startswith(".tmp.")
        )

    def load(self, request_id):
        """``(input_array, submitted_at)`` for one request, served or not.

        Inputs only ever move from ``requests/`` to ``served/``, so one
        missing from the first is in the second: a batch re-served after
        a steal still finds inputs its first worker already retired.
        """
        name = request_id + ".npz"
        with _NPY_READ_LOCK:
            try:
                archive = np.load(os.path.join(self.requests_dir, name))
            except FileNotFoundError:
                archive = np.load(os.path.join(self.served_dir, name))
            with archive:
                return archive["x"], float(archive["submitted_at"])

    def retire(self, request_ids):
        """Move answered requests' inputs out of the admission directory.

        Call only once every listed request has its response or error
        marker.  A request already moved (a duplicated serve after a
        steal) is skipped.
        """
        os.makedirs(self.served_dir, exist_ok=True)
        for request_id in request_ids:
            name = request_id + ".npz"
            try:
                os.replace(
                    os.path.join(self.requests_dir, name),
                    os.path.join(self.served_dir, name),
                )
            except FileNotFoundError:
                pass

    def respond(self, request_id, y):
        """Publish one output array atomically (last writer wins)."""
        os.makedirs(self.responses_dir, exist_ok=True)
        tmp = os.path.join(self.responses_dir, f".tmp.{request_id}.npy")
        np.save(tmp, np.asarray(y))
        os.replace(tmp, os.path.join(self.responses_dir, request_id + ".npy"))

    def fail(self, request_id, message):
        """Mark a request terminally failed so its client stops waiting."""
        os.makedirs(self.responses_dir, exist_ok=True)
        atomic_write_json(
            os.path.join(self.responses_dir, request_id + ".error.json"),
            {"request": request_id, "error": str(message)},
        )

    def try_response(self, request_id):
        """The response array if served, ``None`` if pending; raises on failure."""
        marker = read_json(os.path.join(self.responses_dir, request_id + ".error.json"))
        if marker is not None:
            raise ServingError(f"request {request_id!r} failed: {marker.get('error')}")
        path = os.path.join(self.responses_dir, request_id + ".npy")
        try:
            with _NPY_READ_LOCK:
                return np.load(path)
        except FileNotFoundError:
            return None

    def wait(self, request_id, timeout=30.0, poll=0.001):
        """Block until the response lands; raises ``TimeoutError`` past budget."""
        deadline = time.monotonic() + timeout
        while True:
            response = self.try_response(request_id)
            if response is not None:
                return response
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"request {request_id!r} not served within {timeout}s"
                )
            time.sleep(poll)


class ServingClient:
    """Submit inputs to a server directory and collect responses."""

    def __init__(self, root, clock=time.time):
        self.store = RequestStore(root, clock=clock)

    def submit(self, x):
        return self.store.submit(x)

    def result(self, request_id, timeout=30.0, poll=0.001):
        return self.store.wait(request_id, timeout=timeout, poll=poll)

    def request(self, x, timeout=30.0):
        """Submit and wait — the one-call convenience path."""
        return self.result(self.submit(x), timeout=timeout)


# ----------------------------------------------------------------------
# Batch journal: batch records on the shared lease journal
# ----------------------------------------------------------------------
class BatchJournal:
    """Batch records in a :class:`repro.io.LeaseJournal` under ``batches/``.

    The journal runs the lease protocol and the open-batch index
    (``batches/open/``); this class adds what is serving's own: the
    ``serving.batch_record`` shape, oldest-key-first claims, and the
    poison backstop — ``max_attempts`` expiries turn the batch
    ``error`` and fail its requests.
    """

    def __init__(
        self,
        root,
        lease_timeout=DEFAULT_LEASE_TIMEOUT,
        max_attempts=DEFAULT_MAX_ATTEMPTS,
        clock=time.time,
    ):
        self.journal = LeaseJournal(os.path.join(root, "batches"), clock=clock)
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.clock = clock

    def enqueue(self, key, request_ids, created_at=None):
        """Append one pending batch record (idempotent per key)."""
        created = float(self.clock() if created_at is None else created_at)
        record = BatchRecordV1(
            key=key,
            status=PENDING,
            requests=list(request_ids),
            attempts=0,
            worker=None,
            leased_at=None,
            lease_expires=None,
            created_at=created,
            finished_at=None,
            error=None,
        ).to_dict()
        return self.journal.update(key, lambda current: record if current is None else current)

    def claim(self, worker):
        """Claim the oldest claimable batch for ``worker`` (or ``None``).

        Lists the open-batch index only; an idle claim reads no record.
        A batch at its attempts ceiling is marked ``error`` and its
        requests failed instead, and the scan continues.
        """
        return self.journal.claim(worker, self.lease_timeout, self.max_attempts, self._exhaust)

    def _exhaust(self, record):
        error = f"lease expired {record['attempts']} times"
        self._fail(record["requests"], error)
        return {"status": ERROR, "error": error}

    def _fail(self, request_ids, error):
        """Unhang a failed batch's clients: an error marker each, inputs retired."""
        store = RequestStore(os.path.dirname(self.journal.root))
        for request_id in request_ids:
            store.fail(request_id, error)
        store.retire(request_ids)

    def resolve(self, key, worker, error=None):
        """Finish a claimed batch; returns its record, unchanged if the lease was lost.

        An ``error`` resolve that lands fails the batch's requests; one
        that does not leaves them to the worker that took the batch.
        """
        outcome = {"status": DONE if error is None else ERROR,
                   "error": None if error is None else str(error)}
        record = self.journal.resolve(key, worker, outcome)
        if record is None:
            return self.journal.read(key)
        if error is not None:
            self._fail(record["requests"], outcome["error"])
        return record

    def snapshot(self):
        """Validated ``{key: record}`` of the whole journal (lock-free)."""
        return {
            key: parse("serving.batch_record", record)
            for key, record in self.journal.snapshot().items()
        }

    def counts(self):
        counts = {PENDING: 0, LEASED: 0, DONE: 0, ERROR: 0}
        for record in self.journal.snapshot().values():
            counts[record["status"]] += 1
        return counts

    def drained(self):
        """True when no batch is pending or leased (reads the open index only)."""
        return self.journal.drained()


# ----------------------------------------------------------------------
# The latency-budget micro-batcher
# ----------------------------------------------------------------------
class MicroBatcher:
    """Single admission point turning request files into batch records.

    Flush rule — whichever fires first:

    * **size**: ``max_batch`` requests are pending;
    * **deadline**: the oldest pending request was admitted
      ``max_delay`` seconds ago (its latency budget is spent waiting
      for companions; ship it with whatever arrived);
    * **idle**: no batch is pending or leased
      (:meth:`BatchJournal.drained`, which lists the open index only):
      no worker is busy, so waiting would only add latency.  While a
      batch is open, requests keep gathering until the size or
      deadline rule fires, and the per-batch costs stay amortized.

    Restart safety: already-batched request ids are replayed from the
    journal on construction, so a restarted batcher never double-admits,
    and the batch sequence resumes past the highest existing key.  It
    also reconciles the open-batch index (building it if missing) and
    retires inputs of finished batches still in ``requests/``, which
    brings a server directory from before either existed up to date.
    """

    def __init__(
        self,
        root,
        journal,
        max_batch=DEFAULT_MAX_BATCH,
        max_delay=DEFAULT_MAX_DELAY,
        clock=time.time,
    ):
        self.store = RequestStore(root, clock=clock)
        self.journal = journal
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.clock = clock
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.pending = {}  # request id -> admitted_at (batcher clock)
        self.admitted = set()  # batched ids whose input is still unserved
        self.batches_total = 0
        self._seq = 0
        records = self.journal.journal.snapshot()
        finished = set()
        for key, record in records.items():
            self.admitted.update(record["requests"])
            if record["status"] in (DONE, ERROR):
                finished.update(record["requests"])
            self._seq = max(self._seq, _batch_index(key) + 1)
        self.admitted_total = len(self.admitted)
        self.journal.journal.reconcile()
        self.store.retire([r for r in self.store.scan() if r in finished])

    def admit(self, now=None):
        """Pull new request files into the pending set; returns how many."""
        now = self.clock() if now is None else now
        listed = self.store.scan()
        # An input leaves requests/ only once answered and never returns,
        # so a batched id no longer listed need not be remembered.
        self.admitted.intersection_update(listed)
        fresh = 0
        for request_id in listed:
            if request_id in self.admitted or request_id in self.pending:
                continue
            self.pending[request_id] = now
            fresh += 1
        self.admitted_total += fresh
        return fresh

    def flush(self, now=None, force=False):
        """Emit every due batch; returns the new batch keys."""
        now = self.clock() if now is None else now
        keys = []
        while len(self.pending) >= self.max_batch:
            keys.append(self._emit(now))
        if self.pending and (
            force or self._oldest_age(now) >= self.max_delay or self.journal.drained()
        ):
            keys.append(self._emit(now))
        return keys

    def poll(self, force=False):
        """One admission + flush pass (the batcher thread's heartbeat)."""
        now = self.clock()
        self.admit(now)
        return self.flush(now, force=force)

    def _oldest_age(self, now):
        return now - min(self.pending.values())

    def _emit(self, now):
        ordered = sorted(self.pending.items(), key=lambda kv: (kv[1], kv[0]))
        take = [request_id for request_id, _at in ordered[: self.max_batch]]
        for request_id in take:
            del self.pending[request_id]
            self.admitted.add(request_id)
        key = _batch_key(self._seq)
        self._seq += 1
        self.batches_total += 1
        self.journal.enqueue(key, take, created_at=now)
        return key


def _batch_key(seq):
    return f"batch-{seq:08d}"


def _batch_index(key):
    try:
        return int(key.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def serve_batch(model, store, record):
    """Serve one claimed batch: per-request forwards, then publish.

    Forward passes run per request (see the module docstring's
    determinism contract); responses land only after every forward in
    the batch succeeded, so a poison input fails the whole batch before
    any of its responses publish.
    """
    outputs = []
    with no_grad():
        for request_id in record["requests"]:
            x, _submitted_at = store.load(request_id)
            outputs.append((request_id, model(Tensor(x)).data))
    for request_id, y in outputs:
        store.respond(request_id, y)
    return len(outputs)


def worker_loop(
    root,
    model,
    *,
    worker=None,
    lease_timeout=DEFAULT_LEASE_TIMEOUT,
    max_attempts=DEFAULT_MAX_ATTEMPTS,
    poll=0.002,
    drain=False,
    max_batches=None,
    stop=None,
    heartbeat=None,
    clock=time.time,
):
    """Claim-and-serve until stopped (or drained); returns batches served.

    ``drain=True`` exits once the journal holds no pending or leased
    batch; ``stop`` is an optional zero-arg callable polled every idle
    pass (the thread workers' shutdown signal).  Worker exceptions mark
    the batch ``error`` and fail its requests rather than killing the
    loop — one poison batch must not take a worker out of the fleet.
    Every worker of one server should share ``lease_timeout``: a lease
    expires by the timeout of the worker judging it.
    """
    worker = worker or worker_identity()
    journal = BatchJournal(
        root, lease_timeout=lease_timeout, max_attempts=max_attempts, clock=clock
    )
    store = RequestStore(root, clock=clock)
    served = 0
    while not (stop is not None and stop()):
        record = journal.claim(worker)
        if record is None:
            if drain and journal.drained():
                break
            if heartbeat is not None:
                heartbeat.beat("idle", queue=root)
            time.sleep(poll)
            continue
        if heartbeat is not None:
            heartbeat.beat("running", queue=root, key=record["key"], force=True)
        try:
            serve_batch(model, store, record)
        except Exception as exc:  # noqa: BLE001 - poison batch containment
            journal.resolve(record["key"], worker, error=exc)
            continue
        # Retire before resolving: a crash in between lapses the lease,
        # and the re-serve loads the retired inputs from served/.
        store.retire(record["requests"])
        journal.resolve(record["key"], worker)
        served += 1
        if heartbeat is not None:
            heartbeat.tasks_done += 1
            heartbeat.beat("idle", queue=root, force=True)
        if max_batches is not None and served >= max_batches:
            break
    if heartbeat is not None:
        heartbeat.close()
    return served


def _worker_main(task):
    """Picklable process-worker entry (fork/spawn targets import this).

    ``task``: ``(root, artifact_key, cache_dir, worker, lease_timeout)``.
    The process builds its own model from the artifact store and serves
    until terminated — liveness is its heartbeat file, death is a
    lapsed lease some survivor steals.
    """
    root, artifact_key, cache_dir, worker, lease_timeout = task
    model = load_artifact(artifact_key, cache_dir).build_model()
    heartbeat = Heartbeat(root, worker, interval=0.2)
    return worker_loop(
        root,
        model,
        worker=worker,
        lease_timeout=lease_timeout,
        heartbeat=heartbeat,
    )


# ----------------------------------------------------------------------
# The server orchestrator
# ----------------------------------------------------------------------
class InferenceServer:
    """One named serving instance: batcher thread + worker threads.

    The in-process harness used by the CLI, the benchmark and the
    example: ``start()`` spawns the batcher and ``workers`` threads
    (each with its own model instance rebuilt from the artifact), and
    ``stop()`` winds them down after draining is optional — killed
    processes are the *other* entry point (``_worker_main``), which
    shares every on-disk structure with this class.  ``workers`` below 1
    raises ``ValueError``: nothing would serve the batches.
    """

    def __init__(
        self,
        artifact_key,
        *,
        cache_dir=None,
        name=None,
        workers=2,
        max_batch=DEFAULT_MAX_BATCH,
        max_delay=DEFAULT_MAX_DELAY,
        lease_timeout=DEFAULT_LEASE_TIMEOUT,
        max_attempts=DEFAULT_MAX_ATTEMPTS,
        stats_interval=0.25,
        clock=time.time,
    ):
        if int(workers) < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.artifact_key = artifact_key
        self.cache_dir = cache_dir
        self.name = name or f"srv-{artifact_key[:8]}"
        self.root = server_root(self.name, cache_dir)
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.stats_interval = float(stats_interval)
        self.clock = clock
        self.journal = BatchJournal(
            self.root,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
            clock=clock,
        )
        self.batcher = MicroBatcher(
            self.root,
            self.journal,
            max_batch=self.max_batch,
            max_delay=self.max_delay,
            clock=clock,
        )
        self.artifact = load_artifact(artifact_key, cache_dir)
        self.started_at = None
        self._stop = threading.Event()
        self._threads = []
        # Running journal totals for write_stats (None until its first pass).
        self._stats_lock = threading.Lock()
        self._stats_seq = None  # batcher sequence the last pass reached
        self._stats_open = set()  # keys the last pass saw pending or leased
        self._stats_totals = {"batches": 0, "served": 0, "re_served": 0}
        os.makedirs(self.root, exist_ok=True)
        atomic_write_json(
            os.path.join(self.root, "meta.json"),
            {
                "artifact": artifact_key,
                "max_batch": self.max_batch,
                "max_delay_ms": self.max_delay * 1000.0,
                "lease_timeout": self.lease_timeout,
                "max_attempts": self.max_attempts,
                "workers": self.workers,
            },
        )

    # -- lifecycle ------------------------------------------------------
    def start(self):
        """Spawn the batcher thread and the worker threads."""
        if self._threads:
            raise RuntimeError("server already started")
        self.started_at = self.clock()
        self._stop.clear()
        batcher = threading.Thread(target=self._batcher_loop, name=f"{self.name}-batcher")
        batcher.daemon = True
        self._threads.append(batcher)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_thread,
                args=(f"{self.name}-w{index}",),
                name=f"{self.name}-w{index}",
            )
            thread.daemon = True
            self._threads.append(thread)
        for thread in self._threads:
            thread.start()
        return self

    def stop(self):
        """Signal every thread and join them; writes the final stats."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
        self.write_stats()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def client(self):
        return ServingClient(self.root, clock=self.clock)

    def drain(self, timeout=30.0, poll=0.002):
        """Block until every admitted request has been batched and served."""
        deadline = time.monotonic() + timeout
        while True:
            if not self.batcher.pending and self.journal.drained():
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(f"server {self.name!r} did not drain in {timeout}s")
            time.sleep(poll)

    # -- internals ------------------------------------------------------
    def _batcher_loop(self):
        heartbeat = Heartbeat(self.root, f"{self.name}-batcher", interval=0.5, clock=self.clock)
        wrote_stats = self.clock()
        while not self._stop.is_set():
            self.batcher.poll()
            heartbeat.beat("running", queue=self.root)
            now = self.clock()
            if now - wrote_stats >= self.stats_interval:
                self.write_stats()
                wrote_stats = now
            time.sleep(min(0.001, self.max_delay / 4 or 0.001))
        # Ship whatever is still pending so drains finish deterministically.
        self.batcher.poll(force=True)
        heartbeat.close()

    def _worker_thread(self, worker_name):
        model = self.artifact.build_model()
        heartbeat = Heartbeat(self.root, worker_name, interval=0.5, clock=self.clock)
        worker_loop(
            self.root,
            model,
            worker=worker_name,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
            stop=self._stop.is_set,
            heartbeat=heartbeat,
            clock=self.clock,
        )

    def write_stats(self):
        """Atomically rewrite ``stats.json`` from running journal totals.

        The first pass reads the whole journal.  Later ones read only the
        batches emitted since and those the last pass saw open: there is
        no retry from ``error``, so a finished record never changes and
        is counted once.
        """
        journal = self.journal.journal
        with self._stats_lock:
            if self._stats_seq is None:
                fresh = journal.keys()
                end = max((_batch_index(key) + 1 for key in fresh), default=0)
            else:
                end = self.batcher._seq
                fresh = [_batch_key(seq) for seq in range(self._stats_seq, end)]
            self._stats_seq = end
            totals = self._stats_totals
            totals["batches"] += len(fresh)
            still_open = set()
            for key in sorted(self._stats_open) + fresh:
                record = journal.read(key)
                if record is None or record["status"] in (PENDING, LEASED):
                    still_open.add(key)
                elif record["status"] == DONE:
                    totals["served"] += len(record["requests"])
                    totals["re_served"] += max(0, record["attempts"] - 1)
            self._stats_open = still_open
            totals = dict(totals)
        now = self.clock()
        stats = ServerStatsV1(
            server=self.name,
            artifact=self.artifact_key,
            pid=os.getpid(),
            host=socket.gethostname(),
            started_at=float(self.started_at if self.started_at is not None else now),
            updated_at=float(now),
            workers=self.workers,
            max_batch=self.max_batch,
            max_delay_ms=self.max_delay * 1000.0,
            requests_total=self.batcher.admitted_total,
            batches_total=totals["batches"],
            served_total=totals["served"],
            re_served_total=totals["re_served"],
            queue_depth=len(self.batcher.pending),
        )
        atomic_write_json(os.path.join(self.root, "stats.json"), stats.to_dict())
        return stats


def read_stats(root):
    """The server's last stats snapshot (validated), or ``None``."""
    payload = read_json(os.path.join(root, "stats.json"))
    if payload is None:
        return None
    return parse("serving.server_stats", payload)
