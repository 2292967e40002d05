"""Micro-batcher properties: exactly-once, size ceiling, deadline, idle flush.

Hypothesis drives randomized arrival schedules through the real
``RequestStore`` + ``BatchJournal`` + ``MicroBatcher`` stack under a
manually advanced clock, with a fake worker claiming and resolving
batches between polls, and checks the four contracts the serving layer
sells:

* **exactly-once**: every submitted request lands in exactly one batch
  record — never dropped, never duplicated (including across a batcher
  restart, which replays the journal);
* **size**: no batch exceeds ``max_batch``;
* **deadline**: after any non-forced flush, no still-pending request
  has waited longer than ``max_delay`` — the oldest request's latency
  budget triggers a partial batch rather than unbounded waiting;
* **work conservation**: no request is still pending after a poll that
  found the journal drained — an idle server ships at once, and only
  an open (pending or leased) batch makes a request wait for
  companions.

The last test closes the loop to the model: draining the emitted
batches through ``worker_loop`` serves outputs bit-identical to an
offline forward of the same quantized deployment.
"""

import collections
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import BatchJournal, MicroBatcher, RequestStore
from repro.serving.server import DONE, LEASED, PENDING


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


#: A randomized arrival schedule: positive inter-arrival gaps (seconds).
gap = st.floats(min_value=0.0, max_value=0.03, allow_nan=False)
gaps = st.lists(gap, min_size=1, max_size=24)

#: A schedule with a worker: per arrival, its gap and how many batches
#: the fake worker claims, then resolves, just before the batcher polls.
steps = st.lists(
    st.tuples(gap, st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=24
)


class FakeWorker:
    """Claims batches and resolves them later, oldest lease first."""

    def __init__(self, store, journal):
        self.store = store
        self.journal = journal
        self.held = []

    def act(self, claims, resolves):
        for _ in range(claims):
            record = self.journal.claim("fake")
            if record is not None:
                self.held.append(record)
        for record in self.held[:resolves]:
            self.store.retire(record["requests"])
            self.journal.resolve(record["key"], "fake")
        del self.held[:resolves]


def run_schedule(root, step_list, max_batch, max_delay, restart_after=None):
    """Feed the schedule through a batcher; return (journal, submitted ids).

    ``restart_after`` rebuilds the batcher from the journal midway —
    the crashed-batcher recovery path — which must not double-admit.
    """
    clock = FakeClock()
    store = RequestStore(root, clock=clock)
    journal = BatchJournal(root, clock=clock)
    batcher = MicroBatcher(root, journal, max_batch=max_batch, max_delay=max_delay, clock=clock)
    worker = FakeWorker(store, journal)
    submitted = []
    for index, (gap, claims, resolves) in enumerate(step_list):
        clock.now += gap
        worker.act(claims, resolves)
        submitted.append(store.submit(np.zeros(2, dtype=np.float32), f"req-{index:04d}"))
        batcher.poll()
        # Deadline contract: nothing still pending is past its budget.
        assert all(clock.now - at < max_delay for at in batcher.pending.values())
        # Work conservation: a request is held only while a batch is open.
        assert not batcher.pending or not journal.drained()
        if restart_after is not None and index == restart_after:
            batcher = MicroBatcher(
                root, journal, max_batch=max_batch, max_delay=max_delay, clock=clock
            )
    # Quiesce: advance past the budget (epsilon absorbs float rounding
    # of clock.now + gap sums) so the deadline ships the tail.  A
    # restarted batcher re-admits unbatched requests with a fresh
    # admission time, so the tail may need one more budget window.
    for _ in range(2):
        clock.now += max_delay + 1e-6
        batcher.poll()
        if not batcher.pending:
            break
    assert not batcher.pending
    return journal, submitted


@given(step_list=steps, max_batch=st.integers(1, 6), max_delay=st.floats(0.005, 0.05))
@settings(max_examples=40, deadline=None)
def test_exactly_once_and_size_ceiling(step_list, max_batch, max_delay):
    root = tempfile.mkdtemp(prefix="batcher-prop-")
    try:
        journal, submitted = run_schedule(root, step_list, max_batch, max_delay)
        batched = collections.Counter()
        for record in journal.snapshot().values():
            assert record.status in (PENDING, LEASED, DONE)
            assert 1 <= len(record.requests) <= max_batch
            batched.update(record.requests)
        assert set(batched) == set(submitted)
        assert all(count == 1 for count in batched.values())
    finally:
        shutil.rmtree(root, ignore_errors=True)


@given(
    step_list=steps,
    max_batch=st.integers(1, 6),
    restart_at=st.integers(0, 23),
)
@settings(max_examples=40, deadline=None)
def test_restart_replays_journal_without_double_admitting(step_list, max_batch, restart_at):
    root = tempfile.mkdtemp(prefix="batcher-restart-")
    try:
        journal, submitted = run_schedule(
            root, step_list, max_batch, 0.02, restart_after=min(restart_at, len(step_list) - 1)
        )
        batched = collections.Counter()
        keys = []
        for key, record in journal.snapshot().items():
            keys.append(key)
            batched.update(record.requests)
        assert set(batched) == set(submitted)
        assert all(count == 1 for count in batched.values())
        # The restarted batcher resumed the sequence: keys stay unique
        # and dense from batch-00000000.
        assert sorted(keys) == [f"batch-{i:08d}" for i in range(len(keys))]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def batcher_with_open_batch(root, state):
    """``(clock, store, journal, batcher, key)`` with one batch ``state`` (pending or leased)."""
    clock = FakeClock()
    store = RequestStore(root, clock=clock)
    journal = BatchJournal(root, clock=clock)
    batcher = MicroBatcher(root, journal, max_batch=8, max_delay=0.01, clock=clock)
    store.submit(np.zeros(2, dtype=np.float32), "first")
    (key,) = batcher.poll()
    if state == LEASED:
        assert journal.claim("busy")["key"] == key
    assert journal.journal.read(key)["status"] == state
    return clock, store, journal, batcher, key


def test_idle_server_ships_a_lone_request_at_once(tmp_path):
    """With no batch open, nobody is busy: waiting for companions only adds latency."""
    clock = FakeClock()
    root = str(tmp_path)
    store = RequestStore(root, clock=clock)
    journal = BatchJournal(root, clock=clock)
    batcher = MicroBatcher(root, journal, max_batch=8, max_delay=0.01, clock=clock)
    store.submit(np.zeros(2, dtype=np.float32), "lonely")
    (key,) = batcher.poll()  # the first poll, no time elapsed
    assert journal.journal.read(key)["requests"] == ["lonely"]
    assert not batcher.pending


def test_deadline_ships_a_partial_batch(tmp_path):
    """With a batch open, one lonely request is served after max_delay, not never."""
    for state in (PENDING, LEASED):
        clock, store, journal, batcher, _key = batcher_with_open_batch(str(tmp_path / state), state)
        store.submit(np.zeros(2, dtype=np.float32), "lonely")
        assert batcher.poll() == []  # admitted, but within budget — held
        clock.now += 0.0099
        assert batcher.flush() == []  # still within budget
        clock.now += 0.0002
        (key,) = batcher.flush()  # budget spent: ship it alone
        assert journal.journal.read(key)["requests"] == ["lonely"]


@pytest.mark.parametrize("state", [PENDING, LEASED])
def test_lone_request_ships_at_the_first_poll_after_the_open_batch_resolves(tmp_path, state):
    clock, store, journal, batcher, open_key = batcher_with_open_batch(str(tmp_path), state)
    store.submit(np.zeros(2, dtype=np.float32), "lonely")
    assert batcher.poll() == []
    clock.now += 0.002
    if state == PENDING:
        assert batcher.poll() == []  # still pending
        assert journal.claim("busy")["key"] == open_key
        assert batcher.poll() == []  # now leased
    assert journal.resolve(open_key, "busy")["status"] == DONE
    (key,) = batcher.poll()  # well within the budget
    assert journal.journal.read(key)["requests"] == ["lonely"]


def test_size_flush_preempts_the_deadline(tmp_path):
    """max_batch requests flush immediately, before any budget elapses."""
    clock = FakeClock()
    root = str(tmp_path)
    store = RequestStore(root, clock=clock)
    journal = BatchJournal(root, clock=clock)
    batcher = MicroBatcher(root, journal, max_batch=4, max_delay=10.0, clock=clock)
    for index in range(9):
        store.submit(np.zeros(2, dtype=np.float32), f"req-{index}")
    keys = batcher.poll()
    assert len(keys) == 2  # two full batches; the 9th waits for its budget
    assert len(batcher.pending) == 1


def test_emit_orders_by_admission_time_then_id(tmp_path):
    clock = FakeClock()
    root = str(tmp_path)
    store = RequestStore(root, clock=clock)
    journal = BatchJournal(root, clock=clock)
    batcher = MicroBatcher(root, journal, max_batch=2, max_delay=0.01, clock=clock)
    for request_id in ("zz", "aa", "mm"):
        store.submit(np.zeros(1, dtype=np.float32), request_id)
    batcher.admit()
    clock.now += 0.02
    keys = batcher.flush()
    first = journal.journal.read(keys[0])["requests"]
    assert first == ["aa", "mm"]  # same admission tick -> id order breaks the tie


@given(gap_list=gaps)
@settings(max_examples=15, deadline=None)
def test_served_outputs_bit_identical_to_offline_quantized_forward(gap_list):
    """End of the pipeline: drain the emitted batches through a real
    worker and compare every response to the offline PTQ forward."""
    from repro.models import create_model
    from repro.quant import quantize_weights_and_activations
    from repro.serving import worker_loop
    from repro.tensor import Tensor, no_grad

    rng = np.random.default_rng(1234)
    model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=5)
    model.eval()
    deployed = quantize_weights_and_activations(
        model, weight_bits=8, act_bits=8,
        batches=[(rng.standard_normal((8, 6)).astype(np.float32), None)],
    )
    root = tempfile.mkdtemp(prefix="batcher-serve-")
    try:
        clock = FakeClock()
        store = RequestStore(root, clock=clock)
        journal = BatchJournal(root, clock=clock)
        batcher = MicroBatcher(root, journal, max_batch=4, max_delay=0.01, clock=clock)
        xs = {}
        for index, gap in enumerate(gap_list):
            clock.now += gap
            x = rng.standard_normal((1, 6)).astype(np.float32)
            request_id = store.submit(x, f"req-{index:04d}")
            xs[request_id] = x
            batcher.poll()
        clock.now += 0.01
        batcher.poll()
        served = worker_loop(root, deployed, drain=True, clock=clock)
        assert served == len(journal.snapshot())
        assert all(r.status == DONE for r in journal.snapshot().values())
        with no_grad():
            for request_id, x in xs.items():
                reference = deployed(Tensor(x)).data
                assert np.array_equal(store.try_response(request_id), reference)
    finally:
        shutil.rmtree(root, ignore_errors=True)
