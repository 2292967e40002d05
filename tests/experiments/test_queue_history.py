"""Sweep-queue polls stay flat as history grows (counts, no wall clock).

A claim lists the journal's open index and reads only open entries
(see ``docs/scheduler.md``, "Journal states"), so:

* an idle ``TaskQueue.claim`` reads no journal entry;
* neither does the ``drained()`` check a worker runs right after it;
* claiming the one pending task reads that entry only — twice, the
  lock-free peek and the locked re-check.

Each is counted on one queue with 0 and then 2,000 ``done`` tasks
behind it, and the counts must be equal.
"""

import contextlib
import os

import pytest

from repro.experiments import RunRecord, TaskQueue, TrainConfig
from repro.experiments.scheduler import DONE
from repro.io import JsonJournal

HISTORY = 2000


@contextlib.contextmanager
def counted_reads():
    """The keys of every ``JsonJournal.read`` inside the block."""
    keys = []
    original = JsonJournal.read

    def read(journal, key):
        keys.append(key)
        return original(journal, key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JsonJournal, "read", read)
        yield keys


def configs(start, count):
    return [TrainConfig(dtype="float32", seed=seed) for seed in range(start, start + count)]


def finish(queue, entry, worker):
    record = RunRecord(key=entry["key"], config=None, status="ok", seconds=0.0)
    assert queue.resolve(entry["key"], worker, record)


def build_history(queue, count):
    """Enqueue ``count`` tasks and resolve each through the real claim path.

    Durability is irrelevant to counting, so fsync is skipped to keep
    the 6,000 journal transitions fast.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", lambda fd: None)
        queue.enqueue(configs(0, count))
        while (entry := queue.claim("history")) is not None:
            finish(queue, entry, "history")


def poll_counts(queue, seed):
    """Reads per idle claim, per ``drained()`` and per claim of one new task."""
    with counted_reads() as idle_claim:
        assert queue.claim("idle") is None
    with counted_reads() as drained:
        queue.drained()
    (key,) = [config.cache_key() for config in configs(seed, 1)]
    queue.enqueue(configs(seed, 1))
    with counted_reads() as hit:
        entry = queue.claim("worker")
    assert entry["key"] == key
    finish(queue, entry, "worker")
    return {
        "entries read per idle claim": len(idle_claim),
        "entries read per drained()": len(drained),
        "reads per claim of one task": len(hit),
        "entries read per claim of one task": sorted(set(hit)),
    }


def test_sweep_queue_polls_do_not_grow_with_history(tmp_path):
    queue = TaskQueue.create(str(tmp_path), "history")
    empty = poll_counts(queue, HISTORY)
    build_history(queue, HISTORY)
    assert queue.counts()[DONE] == HISTORY + 1
    assert queue.drained()
    grown = poll_counts(queue, HISTORY + 1)
    for counts, seed in ((empty, HISTORY), (grown, HISTORY + 1)):
        (key,) = [config.cache_key() for config in configs(seed, 1)]
        assert counts == {
            "entries read per idle claim": 0,
            "entries read per drained()": 0,
            "reads per claim of one task": 2,
            "entries read per claim of one task": [key],
        }
