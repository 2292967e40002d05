"""BatchNorm folding and activation fake-quantization."""

import numpy as np
import pytest

from repro import nn
from repro.models import create_model
from repro.quant import (
    ActivationObserver,
    FakeQuantize,
    calibrate,
    fold_batchnorms,
    fold_conv_bn,
    insert_activation_quantizers,
    quantize_weights_and_activations,
)
from repro.tensor import Tensor, no_grad


def run_eval(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


class TestFolding:
    def test_fold_conv_bn_equivalent_in_eval(self, rng):
        conv = nn.Conv2d(3, 5, 3, padding=1, rng=rng)
        bn = nn.BatchNorm2d(5)
        # give BN nontrivial statistics and affine params
        bn.set_buffer("running_mean", rng.standard_normal(5))
        bn.set_buffer("running_var", rng.random(5) + 0.5)
        bn.weight.data = rng.random(5) + 0.5
        bn.bias.data = rng.standard_normal(5)
        folded = fold_conv_bn(conv, bn)
        x = rng.standard_normal((2, 3, 6, 6))
        bn.eval()
        reference = bn(conv(Tensor(x))).data
        assert np.allclose(run_eval(folded, x), reference, atol=1e-10)

    def test_fold_conv_without_bias(self, rng):
        conv = nn.Conv2d(2, 3, 3, bias=False, rng=rng)
        bn = nn.BatchNorm2d(3)
        bn.set_buffer("running_mean", np.array([0.5, -0.5, 0.0]))
        folded = fold_conv_bn(conv, bn)
        assert folded.bias is not None

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            fold_conv_bn(nn.Conv2d(3, 4, 3, rng=rng), nn.BatchNorm2d(5))

    def test_fold_whole_model_equivalent(self, rng):
        model = create_model("vgg6_bn", num_classes=4, scale=0.5, seed=0)
        # populate running stats with a forward pass in train mode
        x = rng.standard_normal((8, 3, 8, 8))
        model.train()
        with no_grad():
            model(Tensor(x))
        folded, count = fold_batchnorms(model)
        assert count > 0
        assert np.allclose(run_eval(folded, x), run_eval(model, x), atol=1e-8)

    def test_fold_resnet_blocks(self, rng):
        model = create_model("resnet8", num_classes=4, scale=0.5, seed=0)
        x = rng.standard_normal((4, 3, 8, 8))
        model.train()
        with no_grad():
            model(Tensor(x))
        folded, count = fold_batchnorms(model)
        assert count >= 7  # stem + block convs + shortcut convs
        assert np.allclose(run_eval(folded, x), run_eval(model, x), atol=1e-8)

    @pytest.mark.parametrize("name", ["resnet8", "mobilenetv2"])
    def test_float32_model_stays_float32(self, name, rng, tmp_path):
        """Bias-free convs get float32 zero biases, so the folded model, its
        logits and its published artifact are float32 throughout."""
        from repro.serving import load_artifact, model_spec, publish_artifact

        model = create_model(name, num_classes=4, scale=0.5, seed=0)
        x = rng.standard_normal((4, 3, 8, 8))
        model.train()
        with no_grad():
            model(Tensor(x))
        folded, count = fold_batchnorms(model)
        assert count > 0
        assert {p.data.dtype for p in folded.parameters()} == {np.dtype(np.float32)}
        logits = run_eval(folded, x)
        assert logits.dtype == np.float32
        np.testing.assert_allclose(logits, run_eval(model, x), rtol=1e-4, atol=1e-5)
        manifest = publish_artifact(
            folded, model_spec(name, num_classes=4, scale=0.5), cache_dir=str(tmp_path),
            bn_folded=True,
        )
        assert manifest.dtype == "float32"
        state = load_artifact(manifest.key, str(tmp_path)).state
        floating = [a for a in state.values() if np.issubdtype(a.dtype, np.floating)]
        assert floating and all(a.dtype == np.float32 for a in floating)

    def test_original_untouched(self, rng):
        model = create_model("vgg6_bn", num_classes=4, scale=0.5, seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        fold_batchnorms(model)
        for n, p in model.named_parameters():
            assert np.allclose(p.data, before[n])


class TestObserver:
    def test_running_min_max(self):
        obs = ActivationObserver(symmetric=False)
        obs.observe(np.array([1.0, 2.0]))
        obs.observe(np.array([-3.0, 0.5]))
        assert obs.low == -3.0
        assert obs.high == 2.0

    def test_symmetric_range(self):
        obs = ActivationObserver(symmetric=True)
        obs.observe(np.array([-3.0, 1.0]))
        assert obs.low == -3.0
        assert obs.high == 3.0

    def test_ema_mode(self):
        obs = ActivationObserver(symmetric=False, momentum=0.5)
        obs.observe(np.array([0.0, 4.0]))
        obs.observe(np.array([0.0, 0.0]))
        assert np.isclose(obs.high, 2.0)


class TestFakeQuantize:
    def test_passthrough_while_calibrating(self, rng):
        fq = FakeQuantize(bits=4)
        x = rng.standard_normal(10)
        out = fq(Tensor(x))
        assert np.allclose(out.data, x)
        assert fq.observer.calibrated

    def test_freeze_requires_calibration(self):
        with pytest.raises(RuntimeError):
            FakeQuantize(bits=4).freeze()

    def test_frozen_output_on_grid(self, rng):
        fq = FakeQuantize(bits=3)
        x = rng.standard_normal(200)
        fq(Tensor(x))
        fq.freeze()
        out = fq(Tensor(x)).data
        assert len(np.unique(out)) <= 7  # 2^3 - 1 symmetric levels
        assert np.abs(out - x).max() <= fq.observer.high / 3 + 1e-12

    def test_straight_through_gradient(self, rng):
        fq = FakeQuantize(bits=4)
        x_cal = rng.standard_normal(50)
        fq(Tensor(x_cal))
        fq.freeze()
        x = Tensor(rng.standard_normal(10), requires_grad=True)
        (fq(x) * 2.0).sum().backward()
        assert np.allclose(x.grad.data, 2.0)


class TestEndToEnd:
    def test_insert_and_calibrate(self, rng):
        model = create_model("vgg6_bn", num_classes=4, scale=0.5, seed=0)
        wrapped, quantizers = insert_activation_quantizers(model, bits=8)
        assert len(quantizers) >= 4
        batches = [(rng.standard_normal((4, 3, 8, 8)), None) for _ in range(2)]
        calibrate(wrapped, quantizers, batches)
        assert all(not q.calibrating for q in quantizers)
        out = run_eval(wrapped, rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 4)
        assert np.all(np.isfinite(out))

    def test_8bit_activations_near_lossless(self, rng):
        model = create_model("vgg6_bn", num_classes=4, scale=0.5, seed=0)
        x = rng.standard_normal((8, 3, 8, 8))
        reference = run_eval(model, x)
        deployed = quantize_weights_and_activations(
            model, weight_bits=8, act_bits=8, batches=[(x, None)]
        )
        out = run_eval(deployed, x)
        assert np.allclose(out.argmax(1), reference.argmax(1))

    def test_low_bit_activations_change_outputs(self, rng):
        model = create_model("vgg6_bn", num_classes=4, scale=0.5, seed=0)
        x = rng.standard_normal((8, 3, 8, 8))
        reference = run_eval(model, x)
        deployed = quantize_weights_and_activations(
            model, weight_bits=3, act_bits=3, batches=[(x, None)]
        )
        assert not np.allclose(run_eval(deployed, x), reference)

    def test_no_quantizable_layers_raises(self):
        with pytest.raises(ValueError):
            insert_activation_quantizers(nn.Sequential(nn.ReLU()))
