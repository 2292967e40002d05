"""Artifact store: publish/load round-trips must be bit-identical.

The serving layer's determinism contract rests on ``build_model()``
reconstructing exactly the model that was published — plain, BN-folded
and fully quantized (weights + frozen activation ranges).  These tests
pin that contract, plus content addressing (identical content is a
cache hit, different content is a different key) and the store's error
paths.
"""

import os

import numpy as np
import pytest

from repro.models import create_model
from repro.quant import fold_batchnorms, quantize_weights_and_activations
from repro.serving import (
    ARTIFACT_FILES,
    artifact_cache,
    list_artifacts,
    load_artifact,
    mixed_weight_quant,
    model_spec,
    publish_artifact,
    uniform_weight_quant,
)
from repro.tensor import Tensor, no_grad

MODEL = dict(name="resnet8", num_classes=4, in_channels=3, scale=0.5, image_size=8)


def make_model(seed=0):
    model = create_model(
        MODEL["name"],
        num_classes=MODEL["num_classes"],
        in_channels=MODEL["in_channels"],
        scale=MODEL["scale"],
        seed=seed,
        image_size=MODEL["image_size"],
    )
    model.eval()
    return model


def batch(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (n, MODEL["in_channels"], MODEL["image_size"], MODEL["image_size"])
    ).astype(np.float32)


def assert_forward_bit_identical(a, b, x):
    with no_grad():
        ya = a(Tensor(x)).data
        yb = b(Tensor(x)).data
    assert ya.dtype == yb.dtype
    assert np.array_equal(ya, yb)


class TestRoundTrip:
    def test_plain_model_round_trips_bit_identical(self, tmp_path):
        model = make_model()
        manifest = publish_artifact(model, model_spec(**MODEL), cache_dir=str(tmp_path))
        rebuilt = load_artifact(manifest.key, str(tmp_path)).build_model()
        x = batch()
        assert_forward_bit_identical(model, rebuilt, x)
        assert manifest.bn_folded is False
        assert manifest.weight_quant is None
        assert manifest.activation_quant is None
        assert manifest.dtype == "float32"
        assert manifest.params == model.num_parameters()

    def test_bn_folded_model_round_trips_bit_identical(self, tmp_path):
        folded, count = fold_batchnorms(make_model())
        assert count > 0
        folded.eval()
        manifest = publish_artifact(
            folded, model_spec(**MODEL), cache_dir=str(tmp_path), bn_folded=True
        )
        rebuilt = load_artifact(manifest.key, str(tmp_path)).build_model()
        assert_forward_bit_identical(folded, rebuilt, batch())
        assert manifest.bn_folded is True

    def test_ptq_model_round_trips_bit_identical(self, tmp_path):
        folded, _count = fold_batchnorms(make_model())
        deployed = quantize_weights_and_activations(
            folded, weight_bits=8, act_bits=8, batches=[(batch(seed=7), None)]
        )
        manifest = publish_artifact(
            deployed,
            model_spec(**MODEL),
            cache_dir=str(tmp_path),
            bn_folded=True,
            weight_quant=uniform_weight_quant(8),
        )
        act = manifest.activation_quant
        assert act is not None and act.bits == 8
        assert len(act.lows) == len(act.highs) > 0
        rebuilt = load_artifact(manifest.key, str(tmp_path)).build_model()
        # The quantized deployment itself is the reference — served
        # predictions must equal the offline quantized forward exactly.
        assert_forward_bit_identical(deployed, rebuilt, batch())
        assert_forward_bit_identical(deployed, rebuilt, batch(seed=3, n=1))

    def test_publishing_does_not_mutate_the_model(self, tmp_path):
        deployed = quantize_weights_and_activations(
            make_model(), weight_bits=8, act_bits=8, batches=[(batch(seed=7), None)]
        )
        before = {k: v.copy() for k, v in deployed.state_dict().items()}
        publish_artifact(deployed, model_spec(**MODEL), cache_dir=str(tmp_path))
        after = deployed.state_dict()
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name], after[name])


class TestContentAddressing:
    def test_identical_content_is_a_cache_hit(self, tmp_path):
        spec = model_spec(**MODEL)
        first = publish_artifact(make_model(), spec, cache_dir=str(tmp_path))
        again = publish_artifact(make_model(), spec, cache_dir=str(tmp_path))
        assert again.key == first.key
        assert again.created_at == first.created_at  # the stored manifest won
        assert len(list_artifacts(str(tmp_path))) == 1

    def test_different_weights_different_key(self, tmp_path):
        spec = model_spec(**MODEL)
        a = publish_artifact(make_model(seed=0), spec, cache_dir=str(tmp_path))
        b = publish_artifact(make_model(seed=1), spec, cache_dir=str(tmp_path))
        assert a.key != b.key

    def test_quant_provenance_is_part_of_the_key(self, tmp_path):
        model = make_model()
        spec = model_spec(**MODEL)
        plain = publish_artifact(model, spec, cache_dir=str(tmp_path))
        tagged = publish_artifact(
            model, spec, cache_dir=str(tmp_path), weight_quant=uniform_weight_quant(8)
        )
        assert plain.key != tagged.key

    def test_volatile_fields_do_not_change_the_key(self, tmp_path):
        spec = model_spec(**MODEL)
        a = publish_artifact(
            make_model(), spec, cache_dir=str(tmp_path), source="run:aaa", clock=lambda: 1.0
        )
        b = publish_artifact(
            make_model(), spec, cache_dir=str(tmp_path), source="run:bbb", clock=lambda: 2.0
        )
        assert a.key == b.key

    def test_entry_layout(self, tmp_path):
        manifest = publish_artifact(
            make_model(), model_spec(**MODEL), cache_dir=str(tmp_path)
        )
        entry = artifact_cache(str(tmp_path)).entry_path(manifest.key)
        for name in ARTIFACT_FILES:
            assert os.path.exists(os.path.join(entry, name))


class TestErrors:
    def test_load_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no-such-key"):
            load_artifact("no-such-key", str(tmp_path))

    def test_uncalibrated_quantizers_refuse_to_publish(self, tmp_path):
        from repro.quant.activation import insert_activation_quantizers

        model, quantizers = insert_activation_quantizers(make_model(), bits=8)
        assert quantizers  # still calibrating: no data seen, never frozen
        with pytest.raises(ValueError, match="uncalibrated"):
            publish_artifact(model, model_spec(**MODEL), cache_dir=str(tmp_path))

    def test_weight_quant_must_be_typed(self, tmp_path):
        with pytest.raises(TypeError, match="WeightQuantV1"):
            publish_artifact(
                make_model(), model_spec(**MODEL), cache_dir=str(tmp_path),
                weight_quant={"bits": 8},
            )

    def test_mixed_floating_dtypes_refuse_to_publish(self, tmp_path):
        model = make_model()
        param = next(iter(model.parameters()))
        param.data = param.data.astype(np.float64)
        with pytest.raises(ValueError, match="float32 and float64"):
            publish_artifact(model, model_spec(**MODEL), cache_dir=str(tmp_path))
        assert list_artifacts(str(tmp_path)) == []

    def test_list_artifacts_empty_cache(self, tmp_path):
        assert list_artifacts(str(tmp_path)) == []

    def test_mismatched_activation_ranges_fail_loud(self, tmp_path):
        deployed = quantize_weights_and_activations(
            make_model(), weight_bits=8, act_bits=8, batches=[(batch(), None)]
        )
        manifest = publish_artifact(deployed, model_spec(**MODEL), cache_dir=str(tmp_path))
        artifact = load_artifact(manifest.key, str(tmp_path))
        artifact.manifest.activation_quant.lows.append(0.0)
        artifact.manifest.activation_quant.highs.append(1.0)
        with pytest.raises(ValueError, match="activation"):
            artifact.build_model()


class TestMixedPrecision:
    def test_mixed_assignment_round_trips(self, tmp_path):
        from repro import nn
        from repro.quant.sensitivity import apply_mixed_precision

        model = make_model()
        names = [
            name for name, module in model.named_modules()
            if isinstance(module, (nn.Conv2d, nn.Linear))
        ]
        assignment = {name: (8 if i % 2 == 0 else 4) for i, name in enumerate(names)}
        mixed, _report = apply_mixed_precision(model, assignment)
        mixed.eval()
        manifest = publish_artifact(
            mixed,
            model_spec(**MODEL),
            cache_dir=str(tmp_path),
            weight_quant=mixed_weight_quant(assignment),
        )
        assert manifest.weight_quant.mode == "mixed"
        assert manifest.weight_quant.assignment == {k: int(v) for k, v in assignment.items()}
        rebuilt = load_artifact(manifest.key, str(tmp_path)).build_model()
        assert_forward_bit_identical(mixed, rebuilt, batch())
