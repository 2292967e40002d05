"""Checkpoint save/load and the shared DirectoryCache/JsonJournal primitives."""

import os
from multiprocessing import get_context

import numpy as np
import pytest

from repro.core.metrics import History
from repro.io import (
    DONE,
    LEASED,
    PENDING,
    DirectoryCache,
    JsonJournal,
    LeaseJournal,
    load_checkpoint,
    save_checkpoint,
)
from repro.models import create_model
from repro.optim import SGD
from repro.tensor import Tensor, no_grad


def fresh_model(seed):
    return create_model("vgg6_bn", num_classes=3, scale=0.5, seed=seed)


class TestCheckpoint:
    def test_roundtrip_weights(self, tmp_path, rng):
        model = fresh_model(0)
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, model)
        other = fresh_model(1)
        load_checkpoint(path, other)
        x = rng.standard_normal((2, 3, 8, 8))
        model.eval()
        other.eval()
        with no_grad():
            assert np.allclose(model(Tensor(x)).data, other(Tensor(x)).data)

    def test_buffers_roundtrip(self, tmp_path, rng):
        model = fresh_model(0)
        model.train()
        with no_grad():
            model(Tensor(rng.standard_normal((4, 3, 8, 8))))
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model)
        other = fresh_model(1)
        load_checkpoint(path, other)
        for (n1, b1), (_n2, b2) in zip(model.named_buffers(), other.named_buffers()):
            assert np.allclose(b1, b2), n1

    def test_metadata_and_history(self, tmp_path):
        model = fresh_model(0)
        history = History()
        history.log(train_loss=1.0, test_acc=0.5)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, metadata={"method": "hero", "gamma": 0.05},
                        optimizer=opt, history=history)
        sidecar = load_checkpoint(path, fresh_model(1))
        assert sidecar["metadata"]["method"] == "hero"
        assert sidecar["optimizer"]["lr"] == 0.1
        assert sidecar["history"]["test_acc"] == [0.5]

    def test_load_without_sidecar(self, tmp_path):
        model = fresh_model(0)
        path = str(tmp_path / "bare.npz")
        save_checkpoint(path, model)
        import os

        os.remove(path + ".json")
        sidecar = load_checkpoint(path, fresh_model(1))
        assert sidecar == {"metadata": {}}

    def test_architecture_mismatch_raises(self, tmp_path):
        model = fresh_model(0)
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model)
        wrong = create_model("vgg6_bn", num_classes=7, scale=0.5, seed=0)
        with pytest.raises(ValueError):
            load_checkpoint(path, wrong)

    def test_extension_optional(self, tmp_path):
        model = fresh_model(0)
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model)
        load_checkpoint(str(tmp_path / "m"), fresh_model(1))


def _write_payload(tmp, payload="payload"):
    with open(os.path.join(tmp, "data.txt"), "w") as fh:
        fh.write(payload)


def _read_payload(path):
    with open(os.path.join(path, "data.txt")) as fh:
        return fh.read()


def _publish_n(task):
    """Process entry point: publish the same key repeatedly."""
    root, payload, repeats = task
    cache = DirectoryCache(root, ("data.txt",))
    for _ in range(repeats):
        cache.publish("key", lambda tmp: _write_payload(tmp, payload))
        got = cache.fetch("key", _read_payload)
        # Entries are atomic: a fetch always sees a complete payload
        # from SOME writer, never a torn or missing file.
        assert got in ("red", "blue")
    return True


def _journal_bump(task):
    """Process entry point: increment a counter record repeatedly."""
    root, repeats = task
    journal = JsonJournal(root)
    for _ in range(repeats):
        journal.update("counter", lambda cur: {"n": (cur["n"] if cur else 0) + 1})
    return True


class TestJsonJournal:
    def test_read_missing_is_none(self, tmp_path):
        journal = JsonJournal(str(tmp_path))
        assert journal.read("nope") is None
        assert journal.keys() == []
        assert journal.snapshot() == {}

    def test_update_creates_and_mutates(self, tmp_path):
        journal = JsonJournal(str(tmp_path))
        created = journal.update("k", lambda cur: {"state": "pending", "seen": cur})
        assert created == {"state": "pending", "seen": None}
        mutated = journal.update("k", lambda cur: dict(cur, state="leased"))
        assert mutated["state"] == "leased"
        assert journal.read("k") == mutated
        assert journal.keys() == ["k"]

    def test_mutate_exception_aborts_transition(self, tmp_path):
        journal = JsonJournal(str(tmp_path))
        journal.update("k", lambda cur: {"state": "pending"})

        def explode(cur):
            raise RuntimeError("claim lost")

        with pytest.raises(RuntimeError):
            journal.update("k", explode)
        assert journal.read("k") == {"state": "pending"}

    def test_returning_current_skips_write(self, tmp_path):
        journal = JsonJournal(str(tmp_path))
        journal.update("k", lambda cur: {"state": "pending"})
        before = os.stat(journal.path("k")).st_mtime_ns
        journal.update("k", lambda cur: cur)  # no-op transition
        assert os.stat(journal.path("k")).st_mtime_ns == before

    def test_concurrent_updates_serialize(self, tmp_path):
        """The journal's locked read-modify-write never loses an update."""
        ctx = get_context("fork")
        repeats = 25
        tasks = [(str(tmp_path), repeats)] * 4
        with ctx.Pool(4) as pool:
            assert all(pool.map(_journal_bump, tasks))
        assert JsonJournal(str(tmp_path)).read("counter")["n"] == 4 * repeats


def lease_record(key, status, **fields):
    """A minimal record with the lease fields :class:`LeaseJournal` needs."""
    record = dict(key=key, status=status, attempts=0, worker=None, leased_at=None,
                  lease_expires=None, finished_at=None)
    return dict(record, **fields)


def _claim_all(task):
    """Process entry point: claim until nothing is claimable; the keys won."""
    root, worker = task
    journal = LeaseJournal(root)
    won = []
    while (record := journal.claim(worker, 3600.0, 3, exhaust=None)) is not None:
        won.append(record["key"])
    return won


class TestLeaseJournal:
    def test_index_follows_every_transition(self, tmp_path):
        journal = LeaseJournal(str(tmp_path), clock=lambda: 100.0)

        def markers():
            return sorted(os.listdir(journal.open_dir))

        journal.update("a", lambda cur: lease_record("a", PENDING))
        assert markers() == ["a"]
        leased = journal.claim("w", 10.0, 3, exhaust=None)
        assert (leased["worker"], leased["leased_at"], leased["lease_expires"]) == ("w", 100.0, 110.0)
        assert markers() == ["a"]
        assert journal.renew("a", "w", 10.0)
        assert not journal.renew("a", "other", 10.0)
        assert journal.resolve("a", "other", {"status": DONE}) is None  # not the holder
        done = journal.resolve("a", "w", {"status": DONE})
        assert done["status"] == DONE and done["worker"] is None and done["finished_at"] == 100.0
        assert markers() == [] and journal.drained()
        assert journal.resolve("a", "w", {"status": DONE}) is None  # already finished
        journal.update("a", lambda cur: dict(cur, status=PENDING))  # re-opened, as a retry does
        assert markers() == ["a"] and not journal.drained()

    def test_expiry_follows_the_timeout_in_force(self, tmp_path):
        now = [100.0]
        journal = LeaseJournal(str(tmp_path), clock=lambda: now[0])
        journal.update("a", lambda cur: lease_record("a", PENDING))
        assert journal.claim("w1", 3600.0, 3, exhaust=None)["lease_expires"] == 3700.0
        now[0] += 1.0
        assert journal.claim("w2", 3600.0, 3, exhaust=None) is None
        stolen = journal.claim("w2", 1.0, 3, exhaust=None)  # the timeout was shortened
        assert stolen["worker"] == "w2" and stolen["attempts"] == 2

    def test_exhaustion_writes_the_callers_terminal_record(self, tmp_path):
        now = [100.0]
        journal = LeaseJournal(str(tmp_path), clock=lambda: now[0])
        for key in ("a", "b"):
            journal.update(key, lambda cur, key=key: lease_record(key, PENDING))
        assert journal.claim("w1", 1.0, 1, exhaust=None)["key"] == "a"
        now[0] += 1.0
        exhausted = []

        def exhaust(record):
            exhausted.append(record["worker"])
            return {"status": "abandoned", "note": f"{record['attempts']} attempt(s)"}

        # a's lease lapsed at its last attempt: written terminal, and the scan moves on
        assert journal.claim("w2", 1.0, 1, exhaust)["key"] == "b"
        assert exhausted == ["w1"]
        a = journal.read("a")
        assert (a["status"], a["note"], a["worker"], a["finished_at"]) == (
            "abandoned", "1 attempt(s)", None, 101.0,
        )
        assert sorted(os.listdir(journal.open_dir)) == ["b"]

    def test_stale_markers_are_skipped_or_dropped(self, tmp_path):
        journal = LeaseJournal(str(tmp_path), clock=lambda: 100.0)
        journal.update("a", lambda cur: lease_record("a", DONE))
        assert journal.drained()
        for key in ("a", "b"):  # a transition died before its unlink; an add before its write
            open(os.path.join(journal.open_dir, key), "w").close()
        assert journal.claim("w", 10.0, 3, exhaust=None) is None
        assert sorted(os.listdir(journal.open_dir)) == ["b"]  # a dropped, b kept for its add
        journal.reconcile()
        assert os.listdir(journal.open_dir) == []

    def test_journal_from_before_the_index_is_indexed_on_first_contact(self, tmp_path):
        plain = JsonJournal(str(tmp_path))
        for key, status in (("a", DONE), ("b", PENDING), ("c", LEASED)):
            record = lease_record(key, status, leased_at=0.0 if status == LEASED else None)
            plain.update(key, lambda cur, record=record: record)
        before = sorted(os.listdir(str(tmp_path)))
        journal = LeaseJournal(str(tmp_path), clock=lambda: 100.0)
        assert not journal.drained()
        assert sorted(os.listdir(journal.open_dir)) == ["b", "c"]
        assert sorted(os.listdir(str(tmp_path))) == sorted(before + ["open"])
        assert journal.claim("w", 10.0, 3, exhaust=None)["key"] == "b"
        assert journal.claim("w", 10.0, 3, exhaust=None)["key"] == "c"  # expired lease

    def test_racing_claimers_build_one_index_and_win_each_record_once(self, tmp_path):
        plain = JsonJournal(str(tmp_path))
        keys = [f"k{index:02d}" for index in range(24)]
        for key in keys:
            plain.update(key, lambda cur, key=key: lease_record(key, PENDING))
        with get_context("fork").Pool(4) as pool:
            tasks = [(str(tmp_path), f"w{index}") for index in range(4)]
            won = pool.map_async(_claim_all, tasks).get(timeout=60)
        assert sorted(key for keys_won in won for key in keys_won) == keys
        leftovers = set(os.listdir(str(tmp_path))) - {k + ext for k in keys for ext in (".json", ".lock")}
        assert leftovers == {"open"}


class TestDirectoryCache:
    def test_publish_then_fetch(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        assert cache.fetch("key", _read_payload) is None
        assert not cache.complete("key")
        cache.publish("key", _write_payload)
        assert cache.complete("key")
        assert cache.fetch("key", _read_payload) == "payload"

    def test_incomplete_entry_is_a_miss(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt", "meta.json"))
        (tmp_path / "key").mkdir()
        (tmp_path / "key" / "data.txt").write_text("torn")
        assert not cache.complete("key")
        assert cache.fetch("key", _read_payload) is None

    def test_publish_replaces_stale_entry(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        cache.publish("key", lambda tmp: _write_payload(tmp, "old"))
        cache.publish("key", lambda tmp: _write_payload(tmp, "new"))
        assert cache.fetch("key", _read_payload) == "new"

    def test_failed_build_leaves_no_debris(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))

        def broken(tmp):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.publish("key", broken)
        assert not cache.complete("key")
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []

    def test_build_missing_manifest_rejected(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt", "missing.txt"))
        with pytest.raises(ValueError):
            cache.publish("key", _write_payload)
        assert not cache.complete("key")

    def test_staging_path_is_stable(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        assert cache.staging_path("key") == cache.staging_path("key")
        assert cache.staging_path("key") == str(tmp_path / "key.staging")

    def test_commit_staging_promotes_incremental_build(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        staging = cache.staging_path("key")
        os.makedirs(staging)
        with open(os.path.join(staging, "data.txt"), "w") as fh:
            fh.write("payload")
        path = cache.commit_staging("key")
        assert path == cache.entry_path("key")
        assert cache.complete("key")
        assert cache.fetch("key", _read_payload) == "payload"
        assert not os.path.exists(staging)

    def test_commit_staging_rejects_missing_manifest(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt", "meta.json"))
        staging = cache.staging_path("key")
        os.makedirs(staging)
        with open(os.path.join(staging, "data.txt"), "w") as fh:
            fh.write("payload")
        with pytest.raises(ValueError):
            cache.commit_staging("key")
        assert os.path.exists(staging)  # staged work survives for a resume
        assert not cache.complete("key")

    def test_commit_staging_replaces_previous_entry(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        cache.publish("key", lambda tmp: _write_payload(tmp, "old"))
        staging = cache.staging_path("key")
        os.makedirs(staging)
        with open(os.path.join(staging, "data.txt"), "w") as fh:
            fh.write("new")
        cache.commit_staging("key")
        assert cache.fetch("key", _read_payload) == "new"

    def test_discard_staging_is_idempotent(self, tmp_path):
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        cache.discard_staging("key")  # nothing staged: no-op
        os.makedirs(cache.staging_path("key"))
        cache.discard_staging("key")
        assert not os.path.exists(cache.staging_path("key"))

    def test_concurrent_publishers_stay_atomic(self, tmp_path):
        ctx = get_context("fork")
        tasks = [(str(tmp_path), color, 10) for color in ("red", "blue") * 2]
        with ctx.Pool(4) as pool:
            assert all(pool.map(_publish_n, tasks))
        cache = DirectoryCache(str(tmp_path), ("data.txt",))
        assert cache.fetch("key", _read_payload) in ("red", "blue")
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []
