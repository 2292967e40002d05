"""Serving costs stay flat as history grows (counts, no wall clock).

Every per-poll path of the server must touch only in-flight work (see
``docs/serving.md``, "Cost as history grows"):

* an idle ``BatchJournal.claim`` reads no finished batch record;
* ``MicroBatcher.poll`` lists only unserved request files;
* a ``write_stats`` pass after the first reads only the batches
  emitted since the last pass and those still open.

Each is counted on one server directory with 0 and then 2,000
finished batches behind it, and the counts must be equal.  The
incremental stats totals are also checked against a full-snapshot
recount — the formula ``write_stats`` used before it kept running
totals — after a run with a re-served batch and a poison batch.
"""

import contextlib
import os

import numpy as np
import pytest

from repro.io import JsonJournal
from repro.models import create_model
from repro.serving import (
    InferenceServer,
    model_spec,
    publish_artifact,
    worker_loop,
)
from repro.serving.server import DONE, ERROR

HISTORY = 2000


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


@contextlib.contextmanager
def counted(owner, name, weight=lambda result: 1):
    """Sum ``weight(result)`` over calls of ``owner.name`` inside the block."""
    total = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        total[0] += weight(result)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, wrapper)
        yield total


def published_mlp(cache):
    model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=3)
    model.eval()
    spec = model_spec("mlp", num_classes=3, in_channels=6, scale=0.25)
    return publish_artifact(model, spec, cache_dir=cache).key, model


def inputs(tag, count):
    rng = np.random.default_rng(0)
    return {f"{tag}-{i:05d}": rng.standard_normal((1, 6)).astype(np.float32) for i in range(count)}


def serve_history(server, model, clock, count):
    """Serve ``count`` one-request batches through the real path, one at a time.

    Durability is irrelevant to counting, so fsync is skipped to keep
    6,000 journal transitions fast.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", lambda fd: None)
        for request_id, x in inputs("history", count).items():
            server.batcher.store.submit(x, request_id)
            server.batcher.poll(force=True)
            assert worker_loop(server.root, model, max_batches=1, clock=clock) == 1


def per_poll_counts(server, model, clock):
    """Counts for one round of live traffic on a just-started server."""
    server.write_stats()  # the start-up pass reads the whole journal
    for request_id, x in inputs(f"live-{clock.now}", 3).items():
        server.batcher.store.submit(x, request_id)
    with counted(os, "listdir", weight=len) as listed:
        (key,) = server.batcher.poll(force=True)
    with counted(JsonJournal, "read") as pending_pass:
        server.write_stats()  # reads the new batch, still pending
    worker_loop(server.root, model, drain=True, clock=clock)
    with counted(JsonJournal, "read") as done_pass:
        server.write_stats()  # reads it again, now done
    with counted(JsonJournal, "read") as claim_reads:
        assert server.journal.claim("idle") is None
    assert server.journal.journal.read(key)["status"] == DONE
    return {
        "entries listed per poll": listed[0],
        "records read per stats pass": (pending_pass[0], done_pass[0]),
        "records read per idle claim": claim_reads[0],
    }


def test_per_poll_costs_do_not_grow_with_history(tmp_path):
    cache = str(tmp_path)
    key, model = published_mlp(cache)
    clock = FakeClock()

    def start():
        return InferenceServer(key, cache_dir=cache, name="history", clock=clock)

    empty = per_poll_counts(start(), model, clock)
    serve_history(start(), model, clock, HISTORY)
    clock.now += 1.0
    server = start()
    assert server.journal.counts()[DONE] == HISTORY + 1
    grown = per_poll_counts(server, model, clock)
    assert grown == empty
    assert empty["records read per idle claim"] == 0


def test_stats_totals_match_a_full_snapshot_recount(tmp_path):
    cache = str(tmp_path)
    key, model = published_mlp(cache)
    clock = FakeClock()
    server = InferenceServer(
        key, cache_dir=cache, name="parity", lease_timeout=1.0, max_batch=2, clock=clock
    )
    store = server.batcher.store
    journal = server.journal

    def submit(xs):
        for request_id, x in xs.items():
            store.submit(x, request_id)
        return server.batcher.poll(force=True)

    def check():
        stats = server.write_stats()
        totals = (stats.batches_total, stats.served_total, stats.re_served_total)
        assert totals == recount(journal)
        return stats

    check()  # first pass: an empty journal
    submit(inputs("clean", 3))  # two batches, still pending
    check()
    worker_loop(server.root, model, drain=True, clock=clock)
    check()

    # A re-served batch: claimed by a worker that dies, stolen after its lease lapses.
    (stolen,) = submit(inputs("stolen", 2))
    assert journal.claim("victim")["key"] == stolen
    check()  # leased, still open
    clock.now += 1.0
    worker_loop(
        server.root, model, worker="thief", lease_timeout=1.0, drain=True, clock=clock
    )

    # A poison batch: a malformed input makes the forward raise.
    (poison,) = submit({"poison-0": np.zeros((1, 5), dtype=np.float32)})
    worker_loop(server.root, model, drain=True, clock=clock)
    submit(inputs("tail", 1))  # one batch left pending at the end
    records = journal.journal.snapshot()
    assert records[stolen]["attempts"] == 2 and records[stolen]["status"] == DONE
    assert records[poison]["status"] == ERROR
    stats = check()
    assert stats.re_served_total == 1

    # A restarted server's first pass reads the whole journal and agrees.
    restarted = InferenceServer(key, cache_dir=cache, name="parity", clock=clock)
    stats = restarted.write_stats()
    assert (stats.batches_total, stats.served_total, stats.re_served_total) == recount(journal)


def recount(journal):
    """``(batches_total, served_total, re_served_total)`` over every record."""
    snapshot = journal.journal.snapshot()
    served = sum(
        len(record["requests"])
        for record in snapshot.values()
        if record["status"] == DONE
    )
    re_served = sum(
        max(0, record["attempts"] - 1)
        for record in snapshot.values()
        if record["status"] == DONE
    )
    return len(snapshot), served, re_served
