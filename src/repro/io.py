"""Checkpoint save/load for models and training state.

Weights are stored as a flat ``.npz`` archive (the same format the
experiment runner's cache uses) plus a JSON sidecar carrying arbitrary
metadata — enough to resume training or ship a trained model without
pickling code objects.

This module also hosts the concurrency primitives every on-disk cache
in the project builds on: :func:`file_lock` (an inter-process advisory
lock), :func:`atomic_write_json` (write-to-temp-then-rename so readers
never observe a half-written file), :class:`DirectoryCache` — a
content-addressed directory store with atomic publication and per-key
locks that backs both the experiment run cache
(``.cache/runs/<key>/``) and the dataset cache
(``.cache/runs/datasets/<key>/``) — :class:`JsonJournal`, a directory
of per-key JSON records with locked read-modify-write transitions, and
:class:`LeaseJournal`, the lease protocol under both the sweep task
queue (``queue/<name>/journal/``) and the batch server (``batches/``).
"""

import contextlib
import json
import os
import shutil
import socket
import tempfile
import time
import uuid

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


class LockTimeout(TimeoutError):
    """Raised when :func:`file_lock` cannot acquire within its timeout."""


@contextlib.contextmanager
def file_lock(path, timeout=600.0, poll=0.05):
    """Hold an exclusive inter-process lock on ``path``.

    On POSIX the lock is a blocking ``flock`` on ``path`` (created on
    demand and left in place — flock locks die with the holder, so a
    crashed process never wedges the cache).  Where ``fcntl`` is
    unavailable it falls back to an ``O_EXCL`` spin lock with the given
    ``timeout``/``poll`` budget.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if fcntl is not None:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
    else:  # pragma: no cover - exercised only on non-POSIX hosts
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
                break
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise LockTimeout(f"could not lock {path!r} within {timeout}s")
                time.sleep(poll)
        try:
            yield
        finally:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.remove(path)


def atomic_write_json(path, payload, **dump_kwargs):
    """Write ``payload`` as JSON to ``path`` atomically.

    The bytes land in a same-directory temp file that is fsynced and
    then renamed over ``path``, so concurrent readers see either the
    old complete file or the new complete file — never a torn write.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".tmp.", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, **dump_kwargs)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path


def read_json(path, default=None):
    """Best-effort lock-free read of a JSON file.

    Returns ``default`` when the file is missing *or* unparseable —
    the contract every status/heartbeat reader in the project wants:
    files written through :func:`atomic_write_json` are never torn,
    but a reader must still survive a file that predates the writer's
    schema, was truncated by a dying filesystem, or simply is not
    there yet.  Observability must never take a lock or raise.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return default


class DirectoryCache:
    """Content-addressed directory cache with atomic publication.

    An entry is a directory ``<root>/<key>/`` holding exactly the files
    named in ``manifest``.  Entries are staged in a same-filesystem temp
    directory and renamed into place while holding a per-key
    inter-process lock, so concurrent readers only ever observe a
    missing entry or a fully formed one — never a torn write.  When two
    processes race to publish the same key the last writer wins
    atomically; cache keys are expected to be content hashes, so either
    copy is correct.

    The run cache (``repro.experiments.runner``) and the dataset cache
    (``repro.data.pipeline``) are both instances of this class.

    Besides the one-shot :meth:`publish` (stage in a fresh temp dir,
    rename), an entry can be built **incrementally** in a *stable*
    staging directory (:meth:`staging_path`) that survives crashes:
    the streaming dataset writer (:mod:`repro.data.streaming`)
    pre-allocates memmaps there, resumes interrupted work across
    process lifetimes, and finally :meth:`commit_staging` renames the
    staged directory into place under the same per-key lock
    :meth:`publish` uses.  Readers are oblivious to which path built
    an entry.
    """

    def __init__(self, root, manifest):
        self.root = os.path.abspath(root)
        self.manifest = tuple(manifest)

    def entry_path(self, key):
        """Directory an entry for ``key`` occupies (whether or not it exists)."""
        return os.path.join(self.root, key)

    def lock_path(self, key):
        return self.entry_path(key) + ".lock"

    def staging_path(self, key):
        """Stable staging directory for incremental builds of ``key``.

        Unlike :meth:`publish`'s throwaway temp dir, this path is a
        pure function of the key, so a builder killed mid-write finds
        its partial work again on the next attempt.  Callers own the
        directory's lifecycle (create, validate staleness, resume or
        wipe) and serialize among themselves — the streaming writer
        holds :func:`file_lock` on ``staging_path(key) + ".lock"`` for
        the whole build.
        """
        return self.entry_path(key) + ".staging"

    def commit_staging(self, key):
        """Atomically promote the staged directory to the live entry.

        Validates the staged manifest, then renames the staging
        directory over the entry under the per-key lock (replacing any
        previous entry wholesale) — the same last-writer-wins
        discipline as :meth:`publish`.  Returns the entry path.
        """
        staging = self.staging_path(key)
        missing = [n for n in self.manifest if not os.path.exists(os.path.join(staging, n))]
        if missing:
            raise ValueError(
                f"staged build for {key!r} is missing manifest files: {missing}"
            )
        path = self.entry_path(key)
        with file_lock(self.lock_path(key)):
            if os.path.isdir(path):
                shutil.rmtree(path)
            os.rename(staging, path)
        return path

    def discard_staging(self, key):
        """Remove any staged build of ``key`` (idempotent)."""
        shutil.rmtree(self.staging_path(key), ignore_errors=True)

    def complete(self, key):
        """True when every manifest file of ``key`` exists (no lock taken)."""
        path = self.entry_path(key)
        return all(os.path.exists(os.path.join(path, name)) for name in self.manifest)

    def fetch(self, key, loader):
        """Load ``key`` via ``loader(entry_path)`` under the key lock.

        Returns the loader's result, or ``None`` when the entry is
        absent or incomplete.  The lock is held across the completeness
        check *and* the load, so a concurrent publisher can never swap
        the entry mid-read.
        """
        with file_lock(self.lock_path(key)):
            if self.complete(key):
                return loader(self.entry_path(key))
        return None

    def publish(self, key, build):
        """Create or replace the entry for ``key`` atomically.

        ``build(tmp_dir)`` stages the manifest files into ``tmp_dir``
        (outside the lock, so slow serialization never blocks readers
        of other keys); the staged directory is then renamed over the
        entry under the per-key lock.  Returns the entry path.
        """
        os.makedirs(self.root, exist_ok=True)
        path = self.entry_path(key)
        tmp = tempfile.mkdtemp(prefix=key + ".tmp.", dir=self.root)
        try:
            build(tmp)
            missing = [n for n in self.manifest if not os.path.exists(os.path.join(tmp, n))]
            if missing:
                raise ValueError(f"cache build for {key!r} left manifest files missing: {missing}")
            with file_lock(self.lock_path(key)):
                if os.path.isdir(path):
                    # A previous (possibly partial, possibly stale-forced)
                    # entry exists; replace it wholesale.
                    shutil.rmtree(path)
                os.rename(tmp, path)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return path


class JsonJournal:
    """Directory of per-key JSON records with locked state transitions.

    Each key owns one file ``<root>/<key>.json`` written via
    :func:`atomic_write_json`, plus a sibling ``.lock`` file taken for
    read-modify-write transitions.  The two access patterns:

    * :meth:`read` / :meth:`snapshot` are **lock-free**: atomic writes
      guarantee a reader sees *some* complete version of the record,
      never a torn one — cheap enough to poll from a tailing process.
    * :meth:`update` is a **transaction**: the per-key lock is held
      across read → mutate → write, so two processes racing to claim
      the same record serialize and the loser sees the winner's write.

    :class:`LeaseJournal` adds the lease protocol on top; the streaming
    dataset writer's shard journal (:mod:`repro.data.streaming`) uses
    this class directly — its shards are owned by the dispatch plan,
    not claimed.
    """

    def __init__(self, root):
        self.root = os.path.abspath(root)

    def path(self, key):
        return os.path.join(self.root, key + ".json")

    def lock_path(self, key):
        return os.path.join(self.root, key + ".lock")

    def keys(self):
        """All record keys present on disk (sorted; no lock taken)."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def read(self, key):
        """Current record for ``key``, or ``None`` (lock-free snapshot)."""
        try:
            with open(self.path(key)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def snapshot(self):
        """``{key: record}`` for every record on disk (lock-free)."""
        return {key: value for key in self.keys() if (value := self.read(key)) is not None}

    def update(self, key, mutate):
        """Transition ``key`` under its lock; returns the new record.

        ``mutate(current)`` receives the current record (or ``None``)
        and returns the record to write; returning the current object
        unchanged skips the write.  An exception raised by ``mutate``
        aborts the transition (nothing is written) and propagates —
        the scheduler uses this to lose a claim race cleanly.
        """
        os.makedirs(self.root, exist_ok=True)
        with file_lock(self.lock_path(key)):
            current = self.read(key)
            record = mutate(current)
            if record is not current:
                self._write(key, current, record)
        return record

    def _write(self, key, current, record):
        """Replace ``current`` by ``record`` (called under the key's lock)."""
        atomic_write_json(self.path(key), record)


#: :class:`LeaseJournal` record states.  Only the ``OPEN`` ones are
#: indexed and claimable; any other status (a caller's own too) is terminal.
PENDING, LEASED, DONE, ERROR = "pending", "leased", "done", "error"
OPEN = (PENDING, LEASED)


def worker_identity():
    """A globally unique worker id: ``host:pid:nonce`` (the nonce guards pid reuse)."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class _ClaimLost(Exception):
    """Internal: another process transitioned the record first."""


def _claimable(record, now, lease_timeout):
    """Pending, or leased at least ``lease_timeout`` (the one in force now) ago.

    The stamped ``lease_expires`` is informational, so shortening the
    timeout frees leases stamped under a longer one at once.
    """
    if record is None or record["status"] not in OPEN:
        return False
    leased_at = record["leased_at"]
    return record["status"] == PENDING or (leased_at is not None and leased_at + lease_timeout <= now)


def _closed(record, now, outcome):
    """``record`` finished with ``outcome`` (its terminal fields) at ``now``."""
    return dict(record, worker=None, leased_at=None, lease_expires=None, finished_at=now, **outcome)


class LeaseJournal(JsonJournal):
    """A :class:`JsonJournal` of work claimed under leases, with an open-work index.

    Records carry ``status``, ``attempts``, ``worker``, ``leased_at``,
    ``lease_expires`` and ``finished_at``; the rest is the caller's.
    :meth:`update` is also the add: under the key's lock it writes the
    marker ``open/<key>`` before a record turns pending or leased and
    unlinks it after the record turns terminal, so :meth:`claim` and
    :meth:`drained` read only open records.  A crash in between leaves
    a marker with no record (skipped) or on a terminal one (dropped
    under the key's lock, since any process may re-add the key).
    ``parse(record, key)``, if given, sees every record read or written.
    """

    def __init__(self, root, clock=time.time, parse=None):
        super().__init__(root)
        self.open_dir = os.path.join(self.root, "open")
        self.clock = clock
        self.parse = parse

    def _load(self, key, record):
        if record is None or self.parse is None:
            return record
        return self.parse(record, key)

    # -- the open-work index ---------------------------------------------
    def _write(self, key, current, record):
        opens = record["status"] in OPEN
        if opens and (current is None or current["status"] not in OPEN):
            self._mark(key)
        super()._write(key, current, record)
        if not opens:
            self._unmark(key)

    def _mark(self, key):
        self._index()
        open(os.path.join(self.open_dir, key), "w").close()

    def _unmark(self, key):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self.open_dir, key))

    def _markers(self):
        try:
            return os.listdir(self.open_dir)
        except FileNotFoundError:
            self._index()
            return os.listdir(self.open_dir)

    def _drop(self, key):
        """Unlink ``key``'s marker unless its record is open (under the key lock)."""
        with file_lock(self.lock_path(key)):
            record = self.read(key)
            if record is None or record["status"] not in OPEN:
                self._unmark(key)

    def _index(self):
        """Build a missing ``open/`` (a journal from before it) from a full read.

        Built aside and renamed into place, so nobody lists half an
        index.  Racing builders need no lock: a record opened after a
        builder's read marks into whichever index exists by then, and a
        rename onto a non-empty directory fails.  True if this call built it.
        """
        if os.path.isdir(self.open_dir):
            return False
        os.makedirs(self.root, exist_ok=True)
        staging = tempfile.mkdtemp(prefix="open.tmp.", dir=self.root)
        try:
            for key, record in self.snapshot().items():
                if self._load(key, record)["status"] in OPEN:
                    open(os.path.join(staging, key), "w").close()
            os.rename(staging, self.open_dir)
            return True
        except OSError:
            if os.path.isdir(self.open_dir):
                return False  # another builder published first
            raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def reconcile(self):
        """Build a missing index, or drop every marker whose record is not open."""
        if not self._index():
            for key in self._markers():
                self._drop(key)

    def _open(self, order=sorted):
        """``(key, record)`` per indexed record still open, in ``order``."""
        keys = self._markers()
        for key in order(keys) if keys else ():
            record = self._load(key, self.read(key))
            if record is None:
                continue
            if record["status"] not in OPEN:
                self._drop(key)
                continue
            yield key, record

    # -- the lease protocol ----------------------------------------------
    def claim(self, worker, lease_timeout, max_attempts, exhaust, order=sorted):
        """Lease the first claimable open record to ``worker``; it, or ``None``.

        Open records are peeked lock-free in ``order(keys)``; one that
        looks claimable is re-checked under its key's lock, so racing
        claimers serialize.  At ``max_attempts`` the record is closed
        with ``exhaust(record)``'s outcome fields instead, and the scan
        goes on.  A ``started_at`` field is stamped with the lease.
        """
        for key, peek in self._open(order):
            if not _claimable(peek, self.clock(), lease_timeout):
                continue

            def mutate(current, key=key):
                record = self._load(key, current)
                now = self.clock()
                if not _claimable(record, now, lease_timeout):
                    raise _ClaimLost(key)
                if record["attempts"] >= max_attempts:
                    return self._load(key, _closed(record, now, exhaust(record)))
                leased = dict(record, status=LEASED, attempts=record["attempts"] + 1,
                              worker=worker, leased_at=now, lease_expires=now + lease_timeout)
                if "started_at" in leased:
                    leased["started_at"] = now
                return self._load(key, leased)

            try:
                record = self.update(key, mutate)
            except _ClaimLost:
                continue
            if record["status"] == LEASED:
                return record
        return None

    def _held(self, key, worker, change):
        """Apply ``change(record, now)`` if ``worker`` holds the lease; else ``None``."""

        def mutate(current):
            record = self._load(key, current)
            if record is None or record["status"] != LEASED or record["worker"] != worker:
                raise _ClaimLost(key)
            return self._load(key, change(record, self.clock()))

        try:
            return self.update(key, mutate)
        except _ClaimLost:
            return None

    def renew(self, key, worker, lease_timeout):
        """Restamp ``worker``'s lease on ``key``; False if the lease was lost."""
        renewed = self._held(key, worker, lambda record, now: dict(
            record, leased_at=now, lease_expires=now + lease_timeout))
        return renewed is not None

    def resolve(self, key, worker, outcome):
        """Close ``worker``'s lease with ``outcome`` (terminal fields); the record.

        ``None`` means the lease was lost — another worker took the
        work over — and this result must not be acted on.
        """
        return self._held(key, worker, lambda record, now: _closed(record, now, outcome))

    def drained(self):
        """True when no record is pending or leased (reads open records only)."""
        return next(self._open(), None) is None


def save_checkpoint(path, model, metadata=None, optimizer=None, history=None):
    """Write ``model`` (and optional training state) to ``path``.

    ``path`` is the ``.npz`` file; metadata/optimizer lr/history go to
    ``path + '.json'``.  Returns the npz path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    state = model.state_dict()
    np.savez(path, **state)
    sidecar = {"metadata": metadata or {}}
    if optimizer is not None:
        sidecar["optimizer"] = _optimizer_sidecar(optimizer)
    if history is not None:
        sidecar["history"] = history.to_dict()
    atomic_write_json(_sidecar_path(path), sidecar, indent=2, default=_jsonify)
    return path


def load_checkpoint(path, model):
    """Load weights from ``path`` into ``model``; returns the sidecar dict.

    The model must already have the right architecture (shape mismatch
    raises, same as ``load_state_dict``).
    """
    archive_path = path if path.endswith(".npz") else path + ".npz"
    with np.load(archive_path) as archive:
        state = {name: archive[name] for name in archive.files}
    model.load_state_dict(state)
    sidecar_path = _sidecar_path(archive_path)
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            return json.load(fh)
    return {"metadata": {}}


def _sidecar_path(path):
    return path + ".json"


def _optimizer_sidecar(optimizer):
    """JSON-safe subset of optimizer state (hyperparameters only)."""
    state = optimizer.state_dict()
    return {
        key: value
        for key, value in state.items()
        if isinstance(value, (int, float, bool, str, tuple, list))
        and key not in ("velocity", "exp_avg", "exp_avg_sq")
    }


def _jsonify(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)
