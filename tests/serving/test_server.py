"""Serving harness: lease state machine, worker loop, server, SIGKILL drill.

The fault-model claims under test (see ``docs/serving.md``):

* a lapsed lease is stolen and the loser's resolve is a no-op;
* ``max_attempts`` lease expiries turn the batch ``error`` and fail its
  requests instead of hanging their clients;
* a poison batch is contained — the worker survives, the clients get
  error markers — but a worker that fails after its lease was taken
  over marks nothing: the batch belongs to the worker that took it;
* SIGKILLing a worker process mid-batch loses nothing: a survivor
  re-claims after the lease lapses and every client still gets exactly
  one response, bit-identical to the offline forward;
* each crash window of the open-batch index and the served-input move
  heals: a stale marker is dropped, a marker without a record is
  skipped, and a re-serve finds inputs its first worker retired;
* a server directory written before the index existed keeps serving;
* worker threads never parse two ``.npy`` headers at once (numpy's
  ``ast.literal_eval`` parse is not thread-safe on CPython 3.11).
"""

import ast
import os
import signal
import threading
import time
from multiprocessing import get_context

import numpy as np
import pytest

from repro.io import JsonJournal
from repro.messages import BatchRecordV1
from repro.models import create_model
from repro.serving import (
    BatchJournal,
    InferenceServer,
    MicroBatcher,
    RequestStore,
    ServingError,
    publish_artifact,
    model_spec,
    read_stats,
    serve_batch,
    server_root,
    worker_loop,
)
from repro.serving.server import DONE, ERROR, LEASED, PENDING, _worker_main
from repro.tensor import Tensor, no_grad


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def publish_mlp(cache_dir, seed=3):
    model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=seed)
    model.eval()
    spec = model_spec("mlp", num_classes=3, in_channels=6, scale=0.25)
    return publish_artifact(model, spec, cache_dir=cache_dir), model


class RaisingModel:
    def __call__(self, x):
        raise RuntimeError("poison input")


class TestLeaseStateMachine:
    def test_claim_stamps_worker_and_expiry(self, tmp_path):
        clock = FakeClock()
        journal = BatchJournal(str(tmp_path), lease_timeout=5.0, clock=clock)
        journal.enqueue("batch-00000000", ["r0", "r1"])
        record = journal.claim("worker-a")
        assert record["status"] == LEASED
        assert record["worker"] == "worker-a"
        assert record["attempts"] == 1
        assert record["lease_expires"] == clock.now + 5.0
        # nothing else claimable while the lease is live
        assert journal.claim("worker-b") is None

    def test_lapsed_lease_is_stolen_and_stale_resolve_is_noop(self, tmp_path):
        clock = FakeClock()
        journal = BatchJournal(str(tmp_path), lease_timeout=5.0, clock=clock)
        journal.enqueue("batch-00000000", ["r0"])
        journal.claim("worker-a")
        clock.now += 5.0  # lease lapses
        stolen = journal.claim("worker-b")
        assert stolen["worker"] == "worker-b" and stolen["attempts"] == 2
        # the original worker cannot clobber the thief's lease...
        after = journal.resolve("batch-00000000", "worker-a")
        assert after["status"] == LEASED and after["worker"] == "worker-b"
        # ...and the thief's resolve lands
        final = journal.resolve("batch-00000000", "worker-b")
        assert final["status"] == DONE and final["worker"] is None

    def test_max_attempts_marks_error_and_unhangs_clients(self, tmp_path):
        clock = FakeClock()
        journal = BatchJournal(str(tmp_path), lease_timeout=1.0, max_attempts=3, clock=clock)
        store = RequestStore(str(tmp_path), clock=clock)
        for request_id in ("r0", "r1"):
            store.submit(np.zeros(2, dtype=np.float32), request_id)
        journal.enqueue("batch-00000000", ["r0", "r1"])
        for _ in range(3):
            assert journal.claim("crashy")["status"] == LEASED
            clock.now += 1.0
        assert journal.claim("crashy") is None  # backstop fired mid-scan
        record = journal.journal.read("batch-00000000")
        assert record["status"] == ERROR
        assert "lease expired" in record["error"]
        for request_id in ("r0", "r1"):
            with pytest.raises(ServingError, match="lease expired"):
                store.try_response(request_id)
        # the batch left the open index and its inputs left admission
        assert os.listdir(journal.journal.open_dir) == []
        assert store.scan() == []
        assert journal.drained()

    def test_resolve_with_error(self, tmp_path):
        journal = BatchJournal(str(tmp_path), clock=FakeClock())
        journal.enqueue("batch-00000000", ["r0"])
        journal.claim("worker-a")
        record = journal.resolve("batch-00000000", "worker-a", error="boom")
        assert record["status"] == ERROR and record["error"] == "boom"
        assert journal.drained()

    def test_enqueue_is_idempotent(self, tmp_path):
        journal = BatchJournal(str(tmp_path), clock=FakeClock())
        journal.enqueue("batch-00000000", ["r0"])
        journal.claim("worker-a")
        record = journal.enqueue("batch-00000000", ["r0", "r1"])
        assert record["status"] == LEASED  # first write won; re-enqueue is a no-op
        assert record["requests"] == ["r0"]


class TestOpenBatchIndex:
    """Crash windows between a record write and its marker or input move."""

    def test_stale_marker_on_done_record_is_dropped_not_re_served(self, tmp_path):
        clock = FakeClock()
        journal = BatchJournal(str(tmp_path), clock=clock)
        journal.enqueue("batch-00000000", ["r0"])
        journal.claim("worker-a")
        journal.resolve("batch-00000000", "worker-a")
        # the resolve died between writing ``done`` and unlinking the marker
        marker = os.path.join(journal.journal.open_dir, "batch-00000000")
        open(marker, "w").close()
        journal.enqueue("batch-00000001", ["r1"])
        # the scan drops the stale marker and moves on to the next batch
        assert journal.claim("worker-b")["key"] == "batch-00000001"
        assert not os.path.exists(marker)
        record = journal.journal.read("batch-00000000")
        assert record["status"] == DONE and record["attempts"] == 1
        assert journal.claim("worker-c") is None

    def test_marker_without_record_is_skipped(self, tmp_path):
        clock = FakeClock()
        root = str(tmp_path)
        journal = BatchJournal(root, clock=clock)
        journal.enqueue("batch-00000000", ["r0"])
        journal.claim("worker-a")
        journal.resolve("batch-00000000", "worker-a")
        # enqueue died between writing the marker and writing the record
        marker = os.path.join(journal.journal.open_dir, "batch-00000001")
        open(marker, "w").close()
        assert journal.claim("worker-b") is None
        assert journal.drained()
        assert os.path.exists(marker)  # skipped, not dropped: enqueue marks first
        # the batcher's start-up reconcile drops it; the sequence moves on
        batcher = MicroBatcher(root, journal, clock=clock)
        assert os.listdir(journal.journal.open_dir) == []
        RequestStore(root, clock=clock).submit(np.zeros(2, dtype=np.float32), "r1")
        assert batcher.poll(force=True) == ["batch-00000001"]
        assert journal.claim("worker-b")["requests"] == ["r1"]

    def test_stolen_batch_re_served_from_retired_inputs(self, tmp_path):
        clock = FakeClock()
        root = str(tmp_path)
        store = RequestStore(root, clock=clock)
        journal = BatchJournal(root, lease_timeout=1.0, clock=clock)
        model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=2)
        model.eval()
        rng = np.random.default_rng(7)
        xs = {f"r{i}": rng.standard_normal((1, 6)).astype(np.float32) for i in range(3)}
        for request_id, x in xs.items():
            store.submit(x, request_id)
        journal.enqueue("batch-00000000", list(xs))
        record = journal.claim("victim")
        serve_batch(model, store, record)
        # the victim answered, retired one input, then died before resolving
        store.retire(record["requests"][:1])
        assert store.scan() == ["r1", "r2"]
        clock.now += 1.0  # its lease lapses
        served = worker_loop(
            root, model, worker="thief", lease_timeout=1.0, drain=True, clock=clock
        )
        assert served == 1
        record = journal.journal.read("batch-00000000")
        assert record["status"] == DONE and record["attempts"] == 2
        assert store.scan() == []
        assert sorted(os.listdir(store.served_dir)) == ["r0.npz", "r1.npz", "r2.npz"]
        for request_id, x in xs.items():
            loaded, _at = store.load(request_id)  # falls back to served/
            assert np.array_equal(loaded, x)
            assert np.array_equal(store.try_response(request_id), _offline(model, x))


class TestWorkerLoop:
    def test_poison_batch_contained_worker_survives(self, tmp_path):
        clock = FakeClock()
        root = str(tmp_path)
        store = RequestStore(root, clock=clock)
        journal = BatchJournal(root, clock=clock)
        for request_id in ("r0", "r1"):
            store.submit(np.zeros(2, dtype=np.float32), request_id)
        journal.enqueue("batch-00000000", ["r0", "r1"])
        served = worker_loop(root, RaisingModel(), drain=True, clock=clock)
        assert served == 0  # the loop drained without dying
        record = journal.journal.read("batch-00000000")
        assert record["status"] == ERROR and "poison input" in record["error"]
        for request_id in ("r0", "r1"):
            with pytest.raises(ServingError, match="poison input"):
                store.try_response(request_id)

    def test_stale_worker_error_leaves_answered_requests_alone(self, tmp_path):
        """A worker that raises after its lease was taken over and the
        batch served writes no error marker: its error resolve does not
        land, and the client gets the response the journal vouches for."""
        clock = FakeClock()
        root = str(tmp_path)
        store = RequestStore(root, clock=clock)
        journal = BatchJournal(root, lease_timeout=1.0, clock=clock)
        model = create_model("mlp", num_classes=3, in_channels=6, scale=0.25, seed=2)
        model.eval()
        x = np.random.default_rng(11).standard_normal((1, 6)).astype(np.float32)
        store.submit(x, "r0")
        journal.enqueue("batch-00000000", ["r0"])

        class StallingModel:
            """Worker A's forward: stalls past the lease while B serves, then raises."""

            def __call__(self, _x):
                clock.now += 1.0
                assert worker_loop(
                    root, model, worker="B", lease_timeout=1.0, drain=True, clock=clock
                ) == 1
                raise OSError("input volume went away")

        served = worker_loop(
            root, StallingModel(), worker="A", lease_timeout=1.0, drain=True, clock=clock
        )
        assert served == 0
        record = journal.journal.read("batch-00000000")
        assert record["status"] == DONE and record["attempts"] == 2 and record["error"] is None
        assert not os.path.exists(os.path.join(store.responses_dir, "r0.error.json"))
        assert np.array_equal(store.try_response("r0"), _offline(model, x))

    def test_max_batches_bounds_the_loop(self, tmp_path):
        clock = FakeClock()
        root = str(tmp_path)
        store = RequestStore(root, clock=clock)
        journal = BatchJournal(root, clock=clock)
        model = create_model("mlp", num_classes=3, in_channels=2, scale=0.25, seed=0)
        model.eval()
        for index in range(3):
            store.submit(np.zeros((1, 2), dtype=np.float32), f"r{index}")
            journal.enqueue(f"batch-{index:08d}", [f"r{index}"])
        assert worker_loop(root, model, max_batches=2, clock=clock) == 2
        assert journal.counts()[PENDING] == 1


class TestInferenceServer:
    def test_end_to_end_bit_identical_with_stats(self, tmp_path):
        cache = str(tmp_path)
        manifest, model = publish_mlp(cache)
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((1, 6)).astype(np.float32) for _ in range(10)]
        with no_grad():
            references = [model(Tensor(x)).data for x in xs]
        server = InferenceServer(
            manifest.key, cache_dir=cache, workers=2, max_batch=4, max_delay=0.005
        )
        with server:
            client = server.client()
            ids = [client.submit(x) for x in xs]
            responses = [client.result(request_id, timeout=30.0) for request_id in ids]
            server.drain(timeout=30.0)
        for response, reference in zip(responses, references):
            assert response.dtype == reference.dtype
            assert np.array_equal(response, reference)
        stats = read_stats(server.root)
        assert stats.requests_total == 10
        assert stats.served_total == 10
        assert stats.queue_depth == 0
        assert stats.re_served_total == 0
        assert 3 <= stats.batches_total <= 10  # max_batch=4 over 10 requests
        assert stats.artifact == manifest.key
        # liveness: the batcher and both workers left heartbeat files
        beats = os.listdir(os.path.join(server.root, "service", "heartbeats"))
        assert len(beats) == 3

    def test_request_convenience_and_restart(self, tmp_path):
        cache = str(tmp_path)
        manifest, model = publish_mlp(cache)
        x = np.ones((1, 6), dtype=np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        with InferenceServer(
            manifest.key, cache_dir=cache, name="srv", workers=1, max_delay=0.002
        ) as server:
            assert np.array_equal(server.client().request(x, timeout=30.0), reference)
        # a second server over the same directory resumes cleanly
        with InferenceServer(
            manifest.key, cache_dir=cache, name="srv", workers=1, max_delay=0.002
        ) as server:
            assert np.array_equal(
                server.client().request(2 * x, timeout=30.0),
                _offline(model, 2 * x),
            )
        stats = read_stats(server.root)
        assert stats.served_total == 2  # the journal carried across restarts

    def test_directory_from_before_the_open_index_keeps_serving(self, tmp_path):
        """Records written straight through ``JsonJournal``, with no
        ``batches/open/`` markers and a served input still in
        ``requests/`` — the layout before the index existed.  A new
        server serves the pending and the expired-lease batch
        bit-identically and retires the old input."""
        cache = str(tmp_path)
        manifest, model = publish_mlp(cache)
        root = server_root("legacy", cache)
        store = RequestStore(root)
        rng = np.random.default_rng(5)
        xs = {f"r{i}": rng.standard_normal((1, 6)).astype(np.float32) for i in range(5)}
        for request_id, x in xs.items():
            store.submit(x, request_id)
        store.respond("r0", _offline(model, xs["r0"]))
        now = time.time()
        legacy = {
            "batch-00000000": dict(status=DONE, requests=["r0"], attempts=1, finished_at=now - 20),
            "batch-00000001": dict(
                status=LEASED, requests=["r1", "r2"], attempts=1, worker="dead:worker",
                leased_at=now - 15, lease_expires=now - 10,
            ),
            "batch-00000002": dict(status=PENDING, requests=["r3", "r4"]),
        }
        journal = JsonJournal(os.path.join(root, "batches"))
        for key, fields in legacy.items():
            record = BatchRecordV1(**{
                **dict(key=key, status=PENDING, requests=[], attempts=0, worker=None,
                       leased_at=None, lease_expires=None, created_at=now - 30,
                       finished_at=None, error=None),
                **fields,
            }).to_dict()
            journal.update(key, lambda _current, record=record: record)
        assert not os.path.exists(os.path.join(root, "batches", "open"))

        with InferenceServer(manifest.key, cache_dir=cache, name="legacy", workers=1) as server:
            for request_id, x in xs.items():
                response = server.client().result(request_id, timeout=30.0)
                assert np.array_equal(response, _offline(model, x))
            server.drain(timeout=30.0)
        records = server.journal.snapshot()
        assert {key: record.status for key, record in records.items()} == dict.fromkeys(legacy, DONE)
        assert records["batch-00000001"].attempts == 2  # the expired lease was stolen
        assert os.listdir(server.journal.journal.open_dir) == []
        assert store.scan() == []
        assert read_stats(root).served_total == 5

    def test_unknown_artifact_refused(self, tmp_path):
        with pytest.raises(KeyError):
            InferenceServer("feedfacefeedface", cache_dir=str(tmp_path))


class TestThreadedReads:
    @pytest.mark.parametrize("read", ["load", "try_response"])
    def test_header_parses_never_overlap(self, tmp_path, monkeypatch, read):
        """Four barrier-released threads read at once; a slowed
        ``ast.literal_eval`` records how many parses overlap."""
        store = RequestStore(str(tmp_path))
        ids = []
        for i in range(4):
            ids.append(store.submit(np.full(3, i, dtype=np.float32)))
            store.respond(ids[-1], np.full(2, i, dtype=np.float32))
        parse = ast.literal_eval
        counter = threading.Lock()
        inside = {"now": 0, "max": 0}

        def slow_parse(source):
            with counter:
                inside["now"] += 1
                inside["max"] = max(inside["max"], inside["now"])
            try:
                time.sleep(0.02)
                return parse(source)
            finally:
                with counter:
                    inside["now"] -= 1

        monkeypatch.setattr(ast, "literal_eval", slow_parse)
        barrier = threading.Barrier(len(ids), timeout=10)
        results = {}

        def reader(request_id):
            barrier.wait()
            if read == "load":
                results[request_id] = store.load(request_id)[0]
            else:
                results[request_id] = store.try_response(request_id)

        threads = [threading.Thread(target=reader, args=(rid,)) for rid in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert inside["max"] == 1
        size = 3 if read == "load" else 2
        assert {rid: results[rid].tolist() for rid in ids} == {
            rid: [float(i)] * size for i, rid in enumerate(ids)
        }


def _offline(model, x):
    with no_grad():
        return model(Tensor(x)).data


@pytest.mark.slow
class TestConcurrentWorkers:
    def test_worker_processes_racing_on_the_open_index(self, tmp_path):
        """More worker processes than cores race to claim through the
        open-batch index: each batch is leased exactly once, and no
        marker or unserved input is left behind."""
        cache = str(tmp_path)
        manifest, model = publish_mlp(cache)
        root = os.path.join(cache, "serving", "race")
        store = RequestStore(root)
        journal = BatchJournal(root)
        batcher = MicroBatcher(root, journal, max_batch=2)
        rng = np.random.default_rng(11)
        xs = {f"r{i:02d}": rng.standard_normal((1, 6)).astype(np.float32) for i in range(40)}
        for request_id, x in xs.items():
            store.submit(x, request_id)
        assert len(batcher.poll(force=True)) == 20

        ctx = get_context("fork")
        workers = [
            ctx.Process(target=_worker_main, args=((root, manifest.key, cache, f"w{i}:race", 30.0),))
            for i in range(2 * (os.cpu_count() or 1) + 2)
        ]
        for worker in workers:
            worker.start()
        try:
            deadline = time.monotonic() + 60
            while not journal.drained() and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            for worker in workers:
                worker.terminate()
            for worker in workers:
                worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        records = journal.snapshot().values()
        assert all(record.status == DONE and record.attempts == 1 for record in records)
        assert os.listdir(journal.journal.open_dir) == []
        assert store.scan() == []
        for request_id, x in xs.items():
            assert np.array_equal(store.try_response(request_id), _offline(model, x))


@pytest.mark.slow
class TestSigkillDrill:
    def test_sigkill_worker_mid_batch_survivor_re_serves(self, tmp_path):
        """The acceptance drill: SIGKILL a worker process holding a
        lease; after the lease lapses a survivor re-claims and every
        client gets exactly one bit-identical response."""
        cache = str(tmp_path)
        model = create_model(
            "resnet8", num_classes=4, in_channels=3, scale=1.0, seed=0, image_size=8
        )
        model.eval()
        spec = model_spec("resnet8", num_classes=4, in_channels=3, scale=1.0, image_size=8)
        manifest = publish_artifact(model, spec, cache_dir=cache)

        root = os.path.join(cache, "serving", "drill")
        clock = time.time
        store = RequestStore(root, clock=clock)
        journal = BatchJournal(root, lease_timeout=0.5, clock=clock)
        batcher = MicroBatcher(root, journal, max_batch=12, max_delay=0.001, clock=clock)
        rng = np.random.default_rng(42)
        xs = {
            store.submit(rng.standard_normal((1, 3, 8, 8)).astype(np.float32)): None
            for _ in range(12)
        }
        batcher.poll(force=True)
        (key,) = list(journal.snapshot())

        ctx = get_context("fork")
        victim = ctx.Process(
            target=_worker_main,
            args=((root, manifest.key, cache, "victim:drill", 0.5),),
        )
        victim.start()
        # Wait for the lease AND the victim's running-heartbeat — the
        # beat lands between claim and serve, so killing after it is
        # still mid-batch, but guarantees the post-mortem file exists.
        beat_dir = os.path.join(root, "service", "heartbeats")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            leased = journal.journal.read(key)["status"] == LEASED
            if leased and os.path.isdir(beat_dir) and os.listdir(beat_dir):
                break
            time.sleep(0.0005)
        else:
            pytest.fail("victim never leased the batch")
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        assert victim.exitcode == -signal.SIGKILL

        # the victim died mid-batch: its heartbeat file is stale, the
        # lease is still stamped with its identity
        record = journal.journal.read(key)
        assert record["status"] == LEASED and record["worker"] == "victim:drill"

        survivor_model = create_model(
            "resnet8", num_classes=4, in_channels=3, scale=1.0, seed=0, image_size=8
        )
        survivor_model.eval()
        served = worker_loop(
            root, survivor_model, worker="survivor:drill",
            lease_timeout=0.5, drain=True,
        )
        assert served == 1
        record = journal.journal.read(key)
        assert record["status"] == DONE
        assert record["attempts"] == 2  # the steal is visible in the journal

        with no_grad():
            for request_id in xs:
                x, _at = store.load(request_id)
                reference = model(Tensor(x)).data
                response = store.try_response(request_id)
                assert response is not None
                assert np.array_equal(response, reference)
        # the victim's heartbeat survives for the post-mortem
        beats = os.listdir(os.path.join(root, "service", "heartbeats"))
        assert any("victim" in name for name in beats)
