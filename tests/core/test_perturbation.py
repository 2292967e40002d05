"""Eq. 15 perturbation machinery on multi-tensor parameter lists."""

import numpy as np
import pytest

from repro.core.perturbation import (
    PERTURBATIONS,
    at_weights,
    global_perturbation,
    layer_adaptive_perturbation,
)
from repro.nn.module import Parameter


def make_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(s)) for s in shapes]


class TestLayerAdaptive:
    def test_per_layer_norms(self):
        params = make_params([(4, 4), (8,), (2, 3, 3)])
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal(p.shape) for p in params]
        offsets = layer_adaptive_perturbation(params, grads, h=0.2)
        for p, g, o in zip(params, grads, offsets):
            # ||h z_i|| = h * ||W_i||
            assert np.isclose(np.linalg.norm(o), 0.2 * np.linalg.norm(p.data))
            # direction along the gradient
            cos = np.sum(o * g) / (np.linalg.norm(o) * np.linalg.norm(g))
            assert np.isclose(cos, 1.0)

    def test_zero_grad_layer_gets_zero_offset(self):
        params = make_params([(3,), (3,)])
        grads = [np.zeros(3), np.ones(3)]
        offsets = layer_adaptive_perturbation(params, grads, h=0.5)
        assert np.allclose(offsets[0], 0.0)
        assert not np.allclose(offsets[1], 0.0)

    def test_length_mismatch_raises(self):
        params = make_params([(3,)])
        with pytest.raises(ValueError):
            layer_adaptive_perturbation(params, [np.ones(3), np.ones(3)], h=0.1)


class TestGlobal:
    def test_single_global_scale(self):
        params = make_params([(4, 4), (8,)])
        rng = np.random.default_rng(2)
        grads = [rng.standard_normal(p.shape) for p in params]
        offsets = global_perturbation(params, grads, h=0.3)
        total_norm = np.sqrt(sum(np.sum(o ** 2) for o in offsets))
        weight_norm = np.sqrt(sum(np.sum(p.data ** 2) for p in params))
        assert np.isclose(total_norm, 0.3 * weight_norm)

    def test_all_zero_grads(self):
        params = make_params([(3,), (2,)])
        offsets = global_perturbation(params, [np.zeros(3), np.zeros(2)], h=0.5)
        assert all(np.allclose(o, 0.0) for o in offsets)

    def test_differs_from_layer_adaptive_with_heterogeneous_layers(self):
        params = make_params([(4, 4), (8,)])
        params[0].data *= 10  # make layer norms very different
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal(p.shape) for p in params]
        la = layer_adaptive_perturbation(params, grads, h=0.1)
        gl = global_perturbation(params, grads, h=0.1)
        assert not np.allclose(la[1], gl[1])


class TestAtWeights:
    def test_roundtrip(self):
        params = make_params([(3, 3), (4,)])
        originals = [p.data for p in params]
        before = [p.data.copy() for p in params]
        offsets = [np.full(p.shape, 0.7, dtype=p.data.dtype) for p in params]
        # Shifting back by subtraction would not return W.
        assert not all(np.array_equal((w + o) - o, w) for w, o in zip(before, offsets))
        shifted = [w + o for w, o in zip(before, offsets)]
        with at_weights(params, shifted):
            assert all(p.data is s for p, s in zip(params, shifted))
        assert all(p.data is w for p, w in zip(params, originals))
        assert all(np.array_equal(p.data, w) for p, w in zip(params, before))

    def test_restores_when_the_block_raises(self):
        params = make_params([(3,)])
        original = params[0].data
        with pytest.raises(RuntimeError):
            with at_weights(params, [original + 1.0]):
                raise RuntimeError("evaluation failed")
        assert params[0].data is original


class TestRegistry:
    def test_registry(self):
        assert set(PERTURBATIONS) == {"layer_adaptive", "global"}
