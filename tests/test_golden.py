"""Golden-hash regression pins for on-disk contracts.

Two artifacts live on disk across process (and machine) boundaries
and therefore must never drift silently:

* the **dataset-generator streams** — cached dataset entries are
  keyed by generator version, so changing a stream without bumping
  ``repro.data.pipeline.GENERATOR_VERSION`` would serve wrong arrays
  to every warm cache.  The v1 stream (a split that fits one shard)
  is also what every paper artifact trains on;
* the **sweep-queue journal entry schema** — workers on different
  machines (possibly running different checkouts) coordinate through
  these JSON records, so changing the shape without bumping
  ``repro.experiments.scheduler.JOURNAL_VERSION`` would let a new
  worker misread an old queue.

If a hash here moves, the fix is to bump the corresponding version
constant (and migrate/regenerate), not to update the hash in place.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from repro.data import generate_dataset
from repro.data.synthetic import PROFILES
from repro.experiments import RunRecord, TrainConfig
from repro.experiments.reporting import record_to_dict
from repro.experiments.scheduler import ENTRY_FIELDS, JOURNAL_VERSION, new_entry
from repro.tensor import dtype_context


def canonical_sha256(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestDatasetGeneratorV1:
    def test_golden_hashes_pin_v1_stream(self):
        """The single-shard stream every paper dataset is drawn from.

        If these hashes move, bump the generator version in
        ``repro.data.pipeline`` — cached entries would otherwise be
        silently wrong, and every trained number would move with them.
        """
        with dtype_context("float32"):
            train, _ = generate_dataset(PROFILES["cifar10_like"])
        digest = hashlib.sha256(np.ascontiguousarray(train.inputs).tobytes()).hexdigest()
        assert train.inputs.dtype == np.float32
        assert digest == "cb78afc40b6e789bed656f536dc832d2c88551d822778657cfeeafd6467cb905"
        labels_digest = hashlib.sha256(train.targets.tobytes()).hexdigest()
        assert labels_digest == (
            "40596cb43fd7050dc6a2d797e7c90d011e0746a19a636b8867ab9ede6f25ea48"
        )


class TestDatasetGeneratorV2:
    def test_golden_hashes_pin_v2_stream(self):
        """The sharded stream is part of the on-disk cache contract.

        If these hashes move, bump the generator version in
        ``repro.data.pipeline`` — cached entries would otherwise be
        silently wrong.
        """
        spec = replace(PROFILES["cifar10_like"], train_size=600, test_size=64)
        train, _ = generate_dataset(spec, shard_size=256)
        digest = hashlib.sha256(np.ascontiguousarray(train.inputs).tobytes()).hexdigest()
        assert train.inputs.dtype == np.float32
        assert digest == "df3ca4b85768e3205746e4d92bb1b5ddccc25825555ae6f242bd09bfc9e597da"
        labels_digest = hashlib.sha256(train.targets.tobytes()).hexdigest()
        assert labels_digest == (
            "38f5423cfa8da6e82726d1d040d80be559abdde051d06c2f53965680c499bd02"
        )


class TestJournalEntrySchema:
    def test_schema_version_and_fields(self):
        # v2: the ``quarantined`` terminal state joined the lifecycle
        # (same field set; the version gates state-machine semantics)
        assert JOURNAL_VERSION == 2
        assert ENTRY_FIELDS == (
            "version",
            "key",
            "config",
            "force",
            "status",
            "attempts",
            "worker",
            "leased_at",
            "lease_expires",
            "enqueued_at",
            "started_at",
            "finished_at",
            "record",
        )

    def test_golden_hash_pins_fresh_entry(self):
        """A freshly enqueued entry serializes to exactly this shape.

        ``new_entry`` is a pure function of (config, force, now), so
        the canonical JSON of a fixed config is a stable fingerprint
        of the whole schema: field set, field order-independent
        values, defaults.  If this hash moves, bump
        ``JOURNAL_VERSION`` — live queues written by older builds
        would otherwise be misread.
        """
        config = TrainConfig(dtype="float32")
        entry = new_entry(config, force=False, now=0.0)
        assert tuple(entry) == ENTRY_FIELDS
        assert entry["key"] == config.cache_key() == "d1f3ec2ebdbe1e36"
        assert canonical_sha256(entry) == (
            "76c1817c62d55b9d350a87edaef1cb115647951796dd70459ebc98d50f710d74"
        )

    def test_record_payload_schema_stable(self):
        """The journal's embedded run-record keeps its key set."""
        record = RunRecord(
            key="d1f3ec2ebdbe1e36",
            config=TrainConfig(dtype="float32"),
            status="ok",
            from_cache=False,
            seconds=1.5,
            train_acc=0.5,
            test_acc=0.25,
        )
        payload = record_to_dict(record, include_config=False)
        assert sorted(payload) == [
            "error",
            "from_cache",
            "key",
            "pid",
            "seconds",
            "status",
            "test_acc",
            "train_acc",
        ]
