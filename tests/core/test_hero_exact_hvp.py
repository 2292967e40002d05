"""The exact-HVP ablation arm of HERO (third-order autograd)."""

import copy

import numpy as np
import pytest

from composite_layers import to_composite
from repro import nn, optim
from repro.core import make_trainer
from repro.data import DataLoader, gaussian_blobs
from repro.models import MLP
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, dtype_context


class VectorModel(Module):
    def __init__(self, w0):
        super().__init__()
        self.w = Parameter(np.asarray(w0, dtype=np.float64))

    def forward(self, _x):
        return self.w


def run_one_step(model, loss_fn, **kwargs):
    opt = optim.SGD(model.parameters(), lr=1e-12)
    trainer = make_trainer("hero", model, loss_fn, opt, regularizer="exact_hvp", **kwargs)
    trainer.training_step(np.zeros(1), np.zeros(1))
    return model.w.grad.data


class TestClosedForms:
    def test_quadratic_penalty_gradient_vanishes(self):
        """On a quadratic, H is constant so the exact penalty grad is 0 —
        the combined gradient reduces to the perturbed gradient."""
        rng = np.random.default_rng(0)
        n = 5
        a_raw = rng.standard_normal((n, n))
        a_mat = a_raw @ a_raw.T + np.eye(n)
        b_vec = rng.standard_normal(n)
        w0 = rng.standard_normal(n)

        def loss_fn(w, _y):
            return 0.5 * (w * (Tensor(a_mat) @ w.reshape(n, 1)).reshape(n)).sum() + (
                Tensor(b_vec) * w
            ).sum()

        got = run_one_step(VectorModel(w0), loss_fn, h=0.3, gamma=5.0, penalty="sq_norm")
        g0 = a_mat @ w0 + b_vec
        hz = 0.3 * np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        expected = a_mat @ (w0 + hz) + b_vec  # no reg term at all
        assert np.allclose(got, expected, atol=1e-8)

    def test_quartic_closed_form(self):
        """L = 1/4 sum w^4: Hz = 3w^2 z, d||Hz||^2/dw = 36 w^3 z^2."""
        w0 = np.array([1.0, -2.0, 0.5])
        h, gamma = 0.3, 0.7

        def loss_fn(w, _y):
            return (w ** 4).sum() * 0.25

        got = run_one_step(VectorModel(w0), loss_fn, h=h, gamma=gamma, penalty="sq_norm")
        g0 = w0 ** 3
        z = np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        perturbed = (w0 + h * z) ** 3
        reg = 36.0 * w0 ** 3 * z ** 2
        expected = perturbed + gamma * reg
        assert np.allclose(got, expected, atol=1e-8)

    def test_norm_penalty_quartic(self):
        """penalty='norm': d||Hz||/dw = (Hz * dHz/dw) / ||Hz||."""
        w0 = np.array([0.8, -1.5, 2.0])
        h, gamma = 0.2, 0.4

        def loss_fn(w, _y):
            return (w ** 4).sum() * 0.25

        got = run_one_step(VectorModel(w0), loss_fn, h=h, gamma=gamma, penalty="norm")
        g0 = w0 ** 3
        z = np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        hz = 3.0 * w0 ** 2 * z
        d_hz = 6.0 * w0 * z  # elementwise dHz_i/dw_i
        reg = hz * d_hz / np.linalg.norm(hz)
        expected = (w0 + h * z) ** 3 + gamma * reg
        assert np.allclose(got, expected, atol=1e-7)

    def test_weights_restored(self):
        w0 = np.array([1.0, 2.0, 3.0])

        def loss_fn(w, _y):
            return (w ** 4).sum()

        model = VectorModel(w0)
        before = model.w.data.copy()
        run_one_step(model, loss_fn, h=0.1, gamma=0.3)
        assert np.array_equal(model.w.data, before)

    def test_invalid_regularizer_name(self):
        model = VectorModel(np.ones(2))
        opt = optim.SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            make_trainer(
                "hero", model, lambda w, y: (w ** 2).sum(), opt, regularizer="spectral"
            )


class TestOnRealModel:
    def test_trains_mlp(self):
        ds = gaussian_blobs(n=60, num_classes=3, spread=2.5, noise=0.4, seed=0)
        model = MLP(2, hidden=(8,), num_classes=3, rng=np.random.default_rng(0))
        loss_fn = nn.CrossEntropyLoss()
        opt = optim.SGD(model.parameters(), lr=0.2, momentum=0.9)
        trainer = make_trainer(
            "hero", model, loss_fn, opt, h=0.01, gamma=0.02, regularizer="exact_hvp"
        )
        history = trainer.fit(DataLoader(ds, batch_size=30, seed=0), epochs=4)
        assert history["train_loss"][-1] < history["train_loss"][0]
        assert all(np.isfinite(v) for v in history["train_loss"])

    def test_matches_finite_diff_direction_on_smooth_model(self):
        """For small h the FD rule approximates d(h^2 ||Hz||^2); directions
        of the two regularizer gradients should correlate positively on a
        tanh MLP (smooth, third-order nonzero)."""
        ds = gaussian_blobs(n=30, num_classes=2, spread=2.0, noise=0.3, seed=1)
        x, y = ds[np.arange(30)]

        def grads_for(regularizer, h):
            model = MLP(2, hidden=(6,), num_classes=2, activation="tanh",
                        rng=np.random.default_rng(3))
            opt = optim.SGD(model.parameters(), lr=1e-12)
            trainer = make_trainer(
                "hero", model, nn.CrossEntropyLoss(), opt,
                h=h, gamma=1.0, penalty="sq_norm", regularizer=regularizer,
            )
            trainer.training_step(x, y)
            full = np.concatenate([p.grad.data.reshape(-1) for p in trainer.params])
            # isolate the reg component by subtracting the gamma=0 run
            model2 = MLP(2, hidden=(6,), num_classes=2, activation="tanh",
                         rng=np.random.default_rng(3))
            opt2 = optim.SGD(model2.parameters(), lr=1e-12)
            trainer2 = make_trainer(
                "hero", model2, nn.CrossEntropyLoss(), opt2,
                h=h, gamma=0.0, penalty="sq_norm", regularizer=regularizer,
            )
            trainer2.training_step(x, y)
            base = np.concatenate([p.grad.data.reshape(-1) for p in trainer2.params])
            return full - base

        h = 1e-3
        fd = grads_for("finite_diff", h) / h ** 2  # FD penalty ~ h^2 ||Hz||^2
        exact = grads_for("exact_hvp", h)
        cosine = np.dot(fd, exact) / (np.linalg.norm(fd) * np.linalg.norm(exact) + 1e-30)
        assert cosine > 0.5, f"cosine similarity only {cosine:.3f}"


class TestThroughCoarseLayers:
    @pytest.mark.parametrize("penalty", ["norm", "sq_norm"])
    def test_conv_bn_step_matches_composite_oracle(self, penalty):
        """The exact-HVP step differentiates the conv and BatchNorm adjoint
        ops a third time; on a conv + BN net it must match the same step
        through the composite-primitive oracle, whose third derivatives
        come from the primitives' rules."""

        def step(model):
            opt = optim.SGD(model.parameters(), lr=1e-12)
            trainer = make_trainer(
                "hero", model, nn.CrossEntropyLoss(), opt,
                h=0.05, gamma=0.5, penalty=penalty, regularizer="exact_hvp",
            )
            trainer.training_step(x, y)
            return [p.grad.data for p in model.parameters()]

        with dtype_context("float64"):
            rng = np.random.default_rng(4)
            model = nn.Sequential(
                nn.Conv2d(2, 4, 3, padding=1, rng=rng),
                nn.BatchNorm2d(4),
                nn.Tanh(),
                nn.Conv2d(4, 4, 3, stride=2, padding=1, groups=2, bias=False, rng=rng),
                nn.BatchNorm2d(4),
                nn.ReLU(),
                nn.GlobalAvgPool2d(),
                nn.Linear(4, 3, rng=rng),
            )
            oracle = to_composite(copy.deepcopy(model))
            x = rng.standard_normal((6, 2, 5, 5))
            y = rng.integers(0, 3, size=6)
            got, want = step(model), step(oracle)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-10)
