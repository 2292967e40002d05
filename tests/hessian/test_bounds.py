"""Theorem 3 bounds: closed-form checks and empirical validation."""

import numpy as np
import pytest

from repro import nn
from repro.hessian import (
    bound_l2,
    bound_linf,
    empirical_loss_increase,
    gradl1_limit_linf,
    theorem3_bounds,
)
from repro.models import MLP, create_model
from repro.tensor import dtype_context


class TestBoundFormulas:
    def test_l2_bound_monotone_decreasing_in_v(self):
        values = [bound_l2(1.0, v, 0.1) for v in (0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values, reverse=True)

    def test_linf_bound_monotone_decreasing_in_v(self):
        values = [bound_linf(1.0, v, 0.1, 100) for v in (0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values, reverse=True)

    def test_l2_bound_exact_on_quadratic(self):
        """For f(delta) = g.delta + v/2 delta^2 along the worst direction,
        the bound is tight: f(bound) == c."""
        g, v, c = 2.0, 3.0, 0.5
        r = bound_l2(g, v, c)
        assert np.isclose(g * r + 0.5 * v * r ** 2, c)

    def test_zero_gradient_limit(self):
        # at a critical point: r = sqrt(2c/v)
        assert np.isclose(bound_l2(0.0, 4.0, 0.08), np.sqrt(2 * 0.08 / 4.0))

    def test_flat_hessian_limit(self):
        # v -> 0: r -> c / ||g||
        assert np.isclose(bound_l2(2.0, 0.0, 0.5), 0.25)
        almost = bound_l2(2.0, 1e-9, 0.5)
        assert np.isclose(almost, 0.25, rtol=1e-6)

    def test_gradl1_limit_eq12(self):
        # Eq. 12: lim_{|g|->0} bound = sqrt(2c / (n v))
        v, c, n = 3.0, 0.1, 50
        assert np.isclose(gradl1_limit_linf(v, c, n), np.sqrt(2 * c / (n * v)))
        tiny = bound_linf(1e-9, v, c, n)
        assert np.isclose(tiny, gradl1_limit_linf(v, c, n), rtol=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bound_l2(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bound_linf(1.0, 1.0, 0.1, 0)


class TestOnModel:
    def _setup(self):
        rng = np.random.default_rng(0)
        model = MLP(4, hidden=(8,), num_classes=3, rng=rng)
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 3, 16)
        return model, nn.CrossEntropyLoss(), x, y

    def test_theorem3_bounds_structure(self):
        model, loss_fn, x, y = self._setup()
        out = theorem3_bounds(model, loss_fn, x, y, c=0.1)
        assert out["lambda_max"] >= 0
        assert out["n"] == model.num_parameters()
        assert out["l2_bound"] > 0
        assert out["linf_bound"] > 0
        # l-inf ball of radius r is inside the l2 ball of radius sqrt(n) r;
        # the l-inf bound should be (much) smaller than the l2 bound.
        assert out["linf_bound"] <= out["l2_bound"]

    def test_empirical_increase_below_c_within_bound(self):
        """Random perturbations at half the bound radius should raise the
        loss by (well) under c — the bound is for the *worst* direction."""
        model, loss_fn, x, y = self._setup()
        out = theorem3_bounds(model, loss_fn, x, y, c=0.5)
        radius = 0.5 * out["l2_bound"]
        increase = empirical_loss_increase(
            model, loss_fn, x, y, radius, norm="l2", samples=6
        )
        assert increase < 0.5 + 0.1  # slack for higher-order terms

    def test_empirical_increase_grows_with_radius(self):
        model, loss_fn, x, y = self._setup()
        small = empirical_loss_increase(model, loss_fn, x, y, 0.01, samples=4)
        large = empirical_loss_increase(model, loss_fn, x, y, 1.0, samples=4)
        assert large >= small

    def test_weights_restored(self):
        model, loss_fn, x, y = self._setup()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        empirical_loss_increase(model, loss_fn, x, y, 0.5, samples=2)
        theorem3_bounds(model, loss_fn, x, y, c=0.1, power_iters=3)
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n])

    def test_invalid_norm(self):
        model, loss_fn, x, y = self._setup()
        with pytest.raises(ValueError):
            empirical_loss_increase(model, loss_fn, x, y, 0.1, norm="l7")


def test_radius_zero_is_no_increase_on_a_float32_model():
    """Every shifted point is evaluated in its parameter's dtype, so the
    zero offset is the model itself and the increase is exactly 0."""
    with dtype_context("float32"):
        model = create_model("resnet8", num_classes=10, scale=0.5, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3, 8, 8))
        y = rng.integers(0, 10, size=8)
        for norm in ("l2", "linf"):
            assert empirical_loss_increase(
                model, nn.CrossEntropyLoss(), x, y, 0.0, norm=norm, samples=2
            ) == 0.0
