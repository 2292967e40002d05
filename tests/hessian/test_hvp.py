"""Hessian-vector products on real models: exact vs finite-difference."""

import numpy as np

from repro import nn
from repro.hessian import (
    batch_gradients,
    hvp_exact,
    hvp_finite_diff,
    model_params,
    restore_buffers,
    snapshot_buffers,
)
from repro.models import MLP


def make_setup(seed=0):
    rng = np.random.default_rng(seed)
    model = MLP(4, hidden=(8,), num_classes=3, rng=rng)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, 12)
    loss_fn = nn.CrossEntropyLoss()
    return model, loss_fn, x, y


class TestBatchGradients:
    def test_detached_by_default(self):
        model, loss_fn, x, y = make_setup()
        loss, grads = batch_gradients(model, loss_fn, x, y)
        assert loss > 0
        assert all(isinstance(g, np.ndarray) for g in grads)
        assert all(p.grad is None for p in model.parameters())

    def test_create_graph_returns_tensors(self):
        from repro.tensor import Tensor

        model, loss_fn, x, y = make_setup()
        _loss, grads = batch_gradients(model, loss_fn, x, y, create_graph=True)
        assert all(isinstance(g, Tensor) for g in grads)
        assert any(g._ctx is not None for g in grads)


class TestHVP:
    def test_exact_matches_finite_diff(self):
        model, loss_fn, x, y = make_setup()
        rng = np.random.default_rng(1)
        vectors = [rng.standard_normal(p.shape) for p in model.parameters()]
        exact = hvp_exact(model, loss_fn, x, y, vectors)
        approx = hvp_finite_diff(model, loss_fn, x, y, vectors, eps=1e-4)
        flat_e = np.concatenate([v.reshape(-1) for v in exact])
        flat_a = np.concatenate([v.reshape(-1) for v in approx])
        assert np.allclose(flat_e, flat_a, atol=1e-4, rtol=1e-3)

    def test_linearity(self):
        model, loss_fn, x, y = make_setup()
        rng = np.random.default_rng(2)
        v1 = [rng.standard_normal(p.shape) for p in model.parameters()]
        v2 = [rng.standard_normal(p.shape) for p in model.parameters()]
        h_v1 = hvp_exact(model, loss_fn, x, y, v1)
        h_v2 = hvp_exact(model, loss_fn, x, y, v2)
        h_sum = hvp_exact(model, loss_fn, x, y, [a + b for a, b in zip(v1, v2)])
        for a, b, s in zip(h_v1, h_v2, h_sum):
            assert np.allclose(a + b, s, atol=1e-8)

    def test_symmetry(self):
        model, loss_fn, x, y = make_setup()
        rng = np.random.default_rng(3)
        v1 = [rng.standard_normal(p.shape) for p in model.parameters()]
        v2 = [rng.standard_normal(p.shape) for p in model.parameters()]
        h_v1 = hvp_exact(model, loss_fn, x, y, v1)
        h_v2 = hvp_exact(model, loss_fn, x, y, v2)
        lhs = sum(float(np.sum(a * b)) for a, b in zip(v2, h_v1))
        rhs = sum(float(np.sum(a * b)) for a, b in zip(v1, h_v2))
        assert np.isclose(lhs, rhs, rtol=1e-6)

    def test_zero_vector(self):
        model, loss_fn, x, y = make_setup()
        zeros = [np.zeros(p.shape) for p in model.parameters()]
        out = hvp_finite_diff(model, loss_fn, x, y, zeros)
        assert all(np.allclose(v, 0) for v in out)

    def test_weights_and_grads_untouched(self):
        model, loss_fn, x, y = make_setup()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        rng = np.random.default_rng(4)
        vectors = [rng.standard_normal(p.shape) for p in model.parameters()]
        hvp_exact(model, loss_fn, x, y, vectors)
        hvp_finite_diff(model, loss_fn, x, y, vectors)
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n])
            assert p.grad is None


class TestBufferSnapshots:
    def test_snapshot_restore_roundtrip(self):
        bn = nn.BatchNorm2d(3)
        snap = snapshot_buffers(bn)
        bn.set_buffer("running_mean", np.full(3, 9.0))
        restore_buffers(bn, snap)
        assert np.allclose(bn.running_mean, 0.0)

    def test_hvp_preserves_bn_buffers(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(2, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 2, rng=rng),
        )
        x = rng.standard_normal((6, 2, 5, 5))
        y = rng.integers(0, 2, 6)
        loss_fn = nn.CrossEntropyLoss()
        before = snapshot_buffers(model)
        vectors = [np.ones(p.shape) for p in model_params(model)]
        hvp_exact(model, loss_fn, x, y, vectors)
        after = snapshot_buffers(model)
        for key in before:
            assert np.allclose(before[key], after[key]), key
