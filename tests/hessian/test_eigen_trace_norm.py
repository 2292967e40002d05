"""Eigenvalue estimation, trace estimation and the ||Hz|| metric.

Uses an explicit quadratic model whose Hessian is known exactly, then
cross-checks the estimators on a real MLP.
"""

import numpy as np

from repro import nn
from repro.data import ArrayDataset, DataLoader
from repro.hessian import (
    eigenvalue_square_sum,
    hutchinson_trace,
    hz_norm,
    hz_norm_on_batch,
    lanczos_eigenvalues,
    power_iteration,
)
from repro.models import MLP


def known_hessian_hvp(eigenvalues):
    """HVP for f(x) = 0.5 x^T diag(eigenvalues) x over a single vector param."""
    diag = np.asarray(eigenvalues, dtype=np.float64)

    def hvp(vectors):
        return [diag * vectors[0]]

    return hvp, [diag.shape]


class TestPowerIteration:
    def test_recovers_dominant_eigenvalue(self):
        hvp, shapes = known_hessian_hvp([5.0, 2.0, 1.0, 0.5])
        value, vector, history = power_iteration(hvp, shapes, iters=100, tol=1e-10)
        assert np.isclose(value, 5.0, rtol=1e-4)
        direction = np.abs(vector[0]) / np.linalg.norm(vector[0])
        assert np.isclose(direction[0], 1.0, atol=1e-3)

    def test_zero_hessian(self):
        hvp, shapes = known_hessian_hvp([0.0, 0.0])
        value, _v, _h = power_iteration(hvp, shapes, iters=5)
        assert value == 0.0

    def test_history_converges(self):
        hvp, shapes = known_hessian_hvp([3.0, 1.0])
        _value, _vector, history = power_iteration(hvp, shapes, iters=50, tol=1e-12)
        assert abs(history[-1] - 3.0) < abs(history[0] - 3.0) + 1e-9


class TestLanczos:
    def test_recovers_top_k(self):
        hvp, shapes = known_hessian_hvp([7.0, 4.0, 2.0, 1.0, 0.1, -1.0])
        values = lanczos_eigenvalues(hvp, shapes, k=3, which="LA")
        assert np.allclose(values, [7.0, 4.0, 2.0], atol=1e-4)

    def test_on_real_model(self):
        rng = np.random.default_rng(0)
        model = MLP(3, hidden=(6,), num_classes=2, rng=rng)
        x = rng.standard_normal((10, 3))
        y = rng.integers(0, 2, 10)
        loss_fn = nn.CrossEntropyLoss()
        from repro.hessian import hvp_exact

        shapes = [p.shape for p in model.parameters()]
        values = lanczos_eigenvalues(
            lambda v: hvp_exact(model, loss_fn, x, y, v), shapes, k=2, which="LA"
        )
        # power iteration on |H| should dominate the top algebraic eigenvalue
        top, _v, _h = power_iteration(
            lambda v: hvp_exact(model, loss_fn, x, y, v), shapes, iters=50, tol=1e-8
        )
        assert values[0] <= abs(top) + 1e-3


class TestHutchinson:
    def test_trace_exact_for_rademacher_on_diagonal(self):
        eigenvalues = [4.0, 3.0, 2.0, 1.0]
        hvp, shapes = known_hessian_hvp(eigenvalues)
        # For a diagonal H and Rademacher probes, z^T H z = tr(H) exactly.
        estimate, values = hutchinson_trace(hvp, shapes, samples=4, seed=0)
        assert np.isclose(estimate, 10.0, rtol=1e-12)

    def test_eigen_square_sum_converges(self):
        eigenvalues = [3.0, 2.0, 1.0]
        hvp, shapes = known_hessian_hvp(eigenvalues)
        estimate, _ = eigenvalue_square_sum(hvp, shapes, samples=400, seed=0)
        assert np.isclose(estimate, 14.0, rtol=0.2)

    def test_unknown_distribution_raises(self):
        import pytest

        hvp, shapes = known_hessian_hvp([1.0])
        with pytest.raises(ValueError):
            hutchinson_trace(hvp, shapes, distribution="cauchy")


class TestHzNorm:
    def _setup(self):
        rng = np.random.default_rng(0)
        model = MLP(4, hidden=(8,), num_classes=3, rng=rng)
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 3, 16)
        return model, nn.CrossEntropyLoss(), x, y

    def test_nonnegative_and_finite(self):
        model, loss_fn, x, y = self._setup()
        value = hz_norm_on_batch(model, loss_fn, x, y, h=0.01)
        assert value >= 0
        assert np.isfinite(value)

    def test_matches_explicit_hvp_along_z(self):
        """||Hz|| from the finite difference should approximate |H z| computed
        exactly along the Eq. 15 direction for small h."""
        from repro.core.perturbation import layer_adaptive_perturbation
        from repro.hessian import batch_gradients, hvp_exact

        model, loss_fn, x, y = self._setup()
        _loss, grads = batch_gradients(model, loss_fn, x, y)
        params = list(model.parameters())
        h = 1e-4
        offsets = layer_adaptive_perturbation(params, grads, 1.0)  # z (unscaled by h)
        hv = hvp_exact(model, loss_fn, x, y, offsets)
        expected = np.sqrt(sum(float(np.sum(v ** 2)) for v in hv))
        got = hz_norm_on_batch(model, loss_fn, x, y, h=h)
        assert np.isclose(got, expected, rtol=5e-2)

    def test_loader_average(self):
        model, loss_fn, x, y = self._setup()
        ds = ArrayDataset(x, y)
        loader = DataLoader(ds, batch_size=8, shuffle=False)
        value = hz_norm(model, loss_fn, loader, h=0.01)
        assert value >= 0

    def test_empty_loader_raises(self):
        import pytest

        model, loss_fn, _x, _y = self._setup()
        with pytest.raises(ValueError):
            hz_norm(model, loss_fn, [], h=0.01)

    def test_weights_unchanged(self):
        model, loss_fn, x, y = self._setup()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        hz_norm_on_batch(model, loss_fn, x, y, h=0.05)
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n])
