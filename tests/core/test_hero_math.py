"""Analytic validation of HERO's update rule (Eq. 15-17, Algorithm 1).

On losses with closed-form gradients and Hessians the combined HERO
gradient can be written down exactly; these tests pin every piece:
the Eq. 15 perturbation, the first-order (perturbed gradient) term and
the double-backprop Hessian-penalty term.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.core import HEROTrainer, SAMTrainer, GradL1Trainer, make_trainer
from repro.core.perturbation import layer_adaptive_perturbation
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, dtype_context


class VectorModel(Module):
    """A bare parameter vector; the "network" is the identity."""

    def __init__(self, w0):
        super().__init__()
        self.w = Parameter(np.asarray(w0, dtype=np.float64))

    def forward(self, _x):
        return self.w


def quadratic_loss(a_mat, b_vec):
    a_t = Tensor(a_mat)
    b_t = Tensor(b_vec)
    n = len(b_vec)

    def loss_fn(w, _y):
        return 0.5 * (w * (a_t @ w.reshape(n, 1)).reshape(n)).sum() + (b_t * w).sum()

    return loss_fn


@pytest.fixture
def quadratic():
    rng = np.random.default_rng(0)
    n = 5
    a_raw = rng.standard_normal((n, n))
    a_mat = a_raw @ a_raw.T + np.eye(n)  # SPD Hessian
    b_vec = rng.standard_normal(n)
    w0 = rng.standard_normal(n)
    return a_mat, b_vec, w0


def run_one_step(trainer_name, model, loss_fn, **kwargs):
    opt = optim.SGD(model.parameters(), lr=1e-12)
    trainer = make_trainer(trainer_name, model, loss_fn, opt, **kwargs)
    trainer.training_step(np.zeros(1), np.zeros(1))
    return model.w.grad.data


class TestEq15Perturbation:
    def test_direction_and_scale(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        from repro.core.perturbation import layer_adaptive_perturbation

        model = VectorModel(w0)
        g0 = a_mat @ w0 + b_vec
        offsets = layer_adaptive_perturbation([model.w], [g0], h=0.25)
        expected = 0.25 * np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        assert np.allclose(offsets[0], expected)

    def test_zero_gradient_gives_zero_offset(self, quadratic):
        _a, _b, w0 = quadratic
        from repro.core.perturbation import layer_adaptive_perturbation

        model = VectorModel(w0)
        offsets = layer_adaptive_perturbation([model.w], [np.zeros_like(w0)], h=0.5)
        assert np.allclose(offsets[0], 0.0)

    def test_global_variant_single_tensor_matches(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        from repro.core.perturbation import (
            global_perturbation,
            layer_adaptive_perturbation,
        )

        model = VectorModel(w0)
        g0 = a_mat @ w0 + b_vec
        # with exactly one layer, both variants coincide
        la = layer_adaptive_perturbation([model.w], [g0], h=0.1)
        gl = global_perturbation([model.w], [g0], h=0.1)
        assert np.allclose(la[0], gl[0])


class TestHEROGradient:
    def test_sq_norm_penalty_closed_form(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        h, gamma = 0.3, 0.7
        model = VectorModel(w0)
        got = run_one_step(
            "hero", model, quadratic_loss(a_mat, b_vec), h=h, gamma=gamma, penalty="sq_norm"
        )
        g0 = a_mat @ w0 + b_vec
        hz = h * np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        w_star = w0 + hz
        # G(W*) = ||A W* + b - g0||^2 ; dG/dW* = 2 A^T (A hz)
        expected = (a_mat @ w_star + b_vec) + gamma * 2.0 * a_mat.T @ (a_mat @ hz)
        assert np.allclose(got, expected, atol=1e-8)

    def test_norm_penalty_closed_form(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        h, gamma = 0.3, 0.7
        model = VectorModel(w0)
        got = run_one_step(
            "hero", model, quadratic_loss(a_mat, b_vec), h=h, gamma=gamma, penalty="norm"
        )
        g0 = a_mat @ w0 + b_vec
        hz = h * np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        w_star = w0 + hz
        diff = a_mat @ hz
        expected = (a_mat @ w_star + b_vec) + gamma * a_mat.T @ diff / np.linalg.norm(diff)
        assert np.allclose(got, expected, atol=1e-6)

    def test_quartic_closed_form(self):
        w0 = np.array([1.0, -2.0, 0.5])
        h, gamma = 0.3, 0.7
        model = VectorModel(w0)

        def loss_fn(w, _y):
            return (w ** 4).sum() * 0.25

        got = run_one_step("hero", model, loss_fn, h=h, gamma=gamma, penalty="sq_norm")
        g0 = w0 ** 3
        hz = h * np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        ws = w0 + hz
        # G = ||ws^3 - w0^3||^2 -> dG/dws = 2 (ws^3 - g0) * 3 ws^2
        expected = ws ** 3 + gamma * 2 * (ws ** 3 - g0) * 3 * ws ** 2
        assert np.allclose(got, expected, atol=1e-8)

    def test_weights_restored_after_step(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        model = VectorModel(w0)
        before = model.w.data.copy()
        run_one_step("hero", model, quadratic_loss(a_mat, b_vec), h=0.3, gamma=0.5)
        assert np.array_equal(model.w.data, before)

    def test_gamma_zero_equals_sam(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        loss_fn = quadratic_loss(a_mat, b_vec)
        hero_grad = run_one_step("hero", VectorModel(w0), loss_fn, h=0.3, gamma=0.0)
        sam_grad = run_one_step("first_order", VectorModel(w0), loss_fn, h=0.3)
        assert np.allclose(hero_grad, sam_grad, atol=1e-10)

    def test_validation(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        model = VectorModel(w0)
        loss_fn = quadratic_loss(a_mat, b_vec)
        opt = optim.SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            HEROTrainer(model, loss_fn, opt, h=-1.0)
        with pytest.raises(ValueError):
            HEROTrainer(model, loss_fn, opt, gamma=-0.1)
        with pytest.raises(ValueError):
            HEROTrainer(model, loss_fn, opt, penalty="cubic")
        with pytest.raises(ValueError):
            HEROTrainer(model, loss_fn, opt, perturbation="random")


class TestSAMGradient:
    def test_perturbed_gradient(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        got = run_one_step("first_order", VectorModel(w0), quadratic_loss(a_mat, b_vec), h=0.3)
        g0 = a_mat @ w0 + b_vec
        hz = 0.3 * np.linalg.norm(w0) * g0 / np.linalg.norm(g0)
        expected = a_mat @ (w0 + hz) + b_vec
        assert np.allclose(got, expected, atol=1e-10)

    def test_weights_restored(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        model = VectorModel(w0)
        before = model.w.data.copy()
        run_one_step("first_order", model, quadratic_loss(a_mat, b_vec), h=0.3)
        assert np.array_equal(model.w.data, before)

    def test_validation(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        model = VectorModel(w0)
        opt = optim.SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            SAMTrainer(model, quadratic_loss(a_mat, b_vec), opt, h=0.0)


class TestGradL1Gradient:
    def test_closed_form(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        lam = 0.05
        got = run_one_step(
            "grad_l1", VectorModel(w0), quadratic_loss(a_mat, b_vec), lambda_l1=lam
        )
        g0 = a_mat @ w0 + b_vec
        # d/dw ||g||_1 = A^T sign(g)
        expected = g0 + lam * a_mat.T @ np.sign(g0)
        assert np.allclose(got, expected, atol=1e-10)

    def test_lambda_zero_equals_sgd(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        loss_fn = quadratic_loss(a_mat, b_vec)
        gl1 = run_one_step("grad_l1", VectorModel(w0), loss_fn, lambda_l1=0.0)
        sgd = run_one_step("sgd", VectorModel(w0), loss_fn)
        assert np.allclose(gl1, sgd, atol=1e-12)

    def test_validation(self, quadratic):
        a_mat, b_vec, w0 = quadratic
        model = VectorModel(w0)
        opt = optim.SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            GradL1Trainer(model, quadratic_loss(a_mat, b_vec), opt, lambda_l1=-1.0)


class TestHEROOptimizesTarget:
    def test_hero_reduces_hessian_eigenvalue_vs_sgd(self):
        """On a quartic valley, HERO should converge to flatter weights.

        Loss: f(w) = sum_i (w_i^2 - 1)^2 has minima at w_i = +-1 with
        Hessian 8 I; adding a gamma-weighted curvature penalty biases
        the optimum toward smaller |w| where the Hessian is smaller.
        """
        def loss_fn(w, _y):
            return ((w * w - 1.0) ** 2).sum()

        def train(method, **kwargs):
            model = VectorModel(np.full(4, 0.8))
            opt = optim.SGD(model.parameters(), lr=0.01)
            trainer = make_trainer(method, model, loss_fn, opt, **kwargs)
            for _ in range(150):
                trainer.training_step(np.zeros(1), np.zeros(1))
                opt.step()
            return model.w.data

    # Hessian of f: diag(12 w^2 - 4); smaller |w| => smaller curvature
        w_sgd = train("sgd")
        w_hero = train("hero", h=0.05, gamma=0.5, penalty="sq_norm")
        curvature_sgd = np.abs(12 * w_sgd ** 2 - 4).max()
        curvature_hero = np.abs(12 * w_hero ** 2 - 4).max()
        assert curvature_hero <= curvature_sgd + 1e-9


class TestEq17OnConvBNNet:
    """Eq. 17 on a real layer stack: a conv -> BatchNorm -> ReLU -> linear
    net in float64, where the Hessian penalty's gradient runs through the
    conv and BatchNorm adjoint ops.

    With ``z`` and ``g`` frozen at the base point ``W`` (the Eq. 16
    approximation), HERO's combined gradient is the gradient of
    ``Phi(V) = L(V + h z) + gamma * sum_i penalty(dL/dW_i(V + h z) - g_i)``
    at ``V = W``, checked coordinate by coordinate against a central
    finite difference of ``Phi``.
    """

    H, GAMMA, EPS = 0.05, 0.5, 1e-6

    @staticmethod
    def build():
        rng = np.random.default_rng(3)
        net = nn.Sequential(
            nn.Conv2d(2, 3, 3, padding=1, rng=rng),
            nn.BatchNorm2d(3),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(3, 2, rng=rng),
        )
        x = rng.standard_normal((6, 2, 4, 4))
        y = rng.integers(0, 2, size=6)
        return net, x, y

    @pytest.mark.parametrize("penalty", ["norm", "sq_norm"])
    def test_combined_gradient_matches_finite_difference(self, penalty):
        with dtype_context("float64"):
            net, x, y = self.build()
            loss_fn = nn.CrossEntropyLoss()
            params = list(net.parameters())
            base = [p.data.copy() for p in params]

            def loss_and_grads(weights):
                for p, w in zip(params, weights):
                    p.data = w.copy()
                    p.grad = None
                loss = loss_fn(net(Tensor(x)), y)
                loss.backward()
                return float(loss.data), [p.grad.data.copy() for p in params]

            _, g = loss_and_grads(base)
            offsets = layer_adaptive_perturbation(params, g, self.H)  # h * z at W

            def phi(weights):
                loss, grads = loss_and_grads([w + o for w, o in zip(weights, offsets)])
                diffs = [gp - gc for gp, gc in zip(grads, g)]
                if penalty == "norm":
                    reg = sum(np.sqrt((d * d).sum() + 1e-12) for d in diffs)
                else:
                    reg = sum((d * d).sum() for d in diffs)
                return loss + self.GAMMA * reg

            numerical = []
            for i, w in enumerate(base):
                grad = np.zeros_like(w)
                for j in range(w.size):
                    shifted = [b.copy() for b in base]
                    shifted[i].reshape(-1)[j] += self.EPS
                    up = phi(shifted)
                    shifted[i].reshape(-1)[j] -= 2 * self.EPS
                    grad.reshape(-1)[j] = (up - phi(shifted)) / (2 * self.EPS)
                numerical.append(grad)

            for p, w in zip(params, base):
                p.data = w.copy()
            opt = optim.SGD(params, lr=1e-12)
            HEROTrainer(net, loss_fn, opt, h=self.H, gamma=self.GAMMA, penalty=penalty).training_step(x, y)
            for p, want in zip(params, numerical):
                np.testing.assert_allclose(p.grad.data, want, rtol=1e-5, atol=1e-7)
