"""Adam/AdamW updates and gradient clipping."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import Adam, AdamW, SGD, clip_grad_norm_, clip_grad_value_
from repro.tensor import Tensor


def make_param(value):
    return Parameter(np.array(value, dtype=np.float64))


class TestAdam:
    def test_first_step_matches_reference(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        p.grad = Tensor(np.array([0.5]))
        opt.step()
        # bias-corrected m_hat = g, v_hat = g^2 -> update = lr * g/(|g|+eps)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert np.isclose(p.data[0], expected)

    def test_two_step_reference_trace(self):
        p = make_param([0.0])
        opt = Adam([p], lr=0.01, betas=(0.9, 0.999), eps=1e-8)
        m = v = 0.0
        w = 0.0
        for t, g in enumerate((1.0, -2.0), start=1):
            p.grad = Tensor(np.array([g]))
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            w = w - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.isclose(p.data[0], w)

    def test_coupled_weight_decay_in_gradient(self):
        p = make_param([2.0])
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = Tensor(np.array([0.0]))
        opt.step()
        # g_eff = 0.5*2 = 1 -> first step moves by ~lr
        assert p.data[0] < 2.0

    def test_convergence_on_quadratic(self):
        target = np.array([1.0, -3.0])
        p = make_param([0.0, 0.0])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.grad = Tensor(2 * (p.data - target))
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], lr=0.1, betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], lr=0.1, eps=0.0)
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], lr=0.1, weight_decay=-1)

    def test_state_dict_roundtrip(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.05)
        p.grad = Tensor(np.array([1.0]))
        opt.step()
        state = opt.state_dict()
        opt2 = Adam([p], lr=0.9)
        opt2.load_state_dict(state)
        assert opt2.lr == 0.05
        assert opt2._step_count == 1
        assert np.allclose(opt2._exp_avg[0], opt._exp_avg[0])

    @pytest.mark.parametrize("cls", [Adam, AdamW])
    def test_none_grad_moments_frozen(self, cls):
        # A grad-less parameter is skipped: its weights and moments stay
        # put, while the shared step count (bias correction) advances.
        p = Parameter(np.array([1.0, -1.0], dtype=np.float32))
        q = Parameter(np.array([0.5], dtype=np.float32))
        opt = cls([p, q], lr=1e-2, weight_decay=0.05)
        p.grad = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        q.grad = Tensor(np.array([1.0], dtype=np.float32))
        opt.step()
        frozen = [p.data.tobytes(), opt._exp_avg[0].tobytes(), opt._exp_avg_sq[0].tobytes()]
        for step in (2, 3):
            p.grad = None
            q.grad = Tensor(np.array([1.0], dtype=np.float32))
            opt.step()
            assert opt._step_count == step
            assert [p.data.tobytes(), opt._exp_avg[0].tobytes(), opt._exp_avg_sq[0].tobytes()] == frozen

    @pytest.mark.parametrize("cls", [Adam, AdamW])
    def test_float32_param_and_moments_stay_float32(self, cls):
        p = Parameter(np.ones((2, 3), dtype=np.float32))
        opt = cls([p], lr=1e-2, weight_decay=0.01)
        for _ in range(2):
            p.grad = Tensor(np.full((2, 3), 0.3), dtype=np.float64)
            opt.step()
        assert p.data.dtype == np.float32
        assert opt._exp_avg[0].dtype == np.float32
        assert opt._exp_avg_sq[0].dtype == np.float32

    @pytest.mark.parametrize("cls", [Adam, AdamW])
    def test_state_dict_with_none_entries_continues_identically(self, cls):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.standard_normal(shape)) for shape in [(3, 2), (4,)]]
        opt = cls(params, lr=1e-2, weight_decay=0.01)
        params[0].grad = Tensor(rng.standard_normal((3, 2)))
        opt.step()
        state = opt.state_dict()
        assert state["exp_avg"][1] is None and state["exp_avg_sq"][1] is None
        clones = [Parameter(p.data.copy()) for p in params]
        restored = cls(clones, lr=0.5)
        restored.load_state_dict(state)
        for _ in range(3):
            grads = [rng.standard_normal(p.data.shape) for p in params]
            for side in (params, clones):
                for p, g in zip(side, grads):
                    p.grad = Tensor(g)
            opt.step()
            restored.step()
        assert [p.data.tobytes() for p in params] == [c.data.tobytes() for c in clones]


class TestAdamW:
    def test_decoupled_decay_moves_weights_directly(self):
        p = make_param([2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = Tensor(np.array([0.0]))
        opt.step()
        # zero grad -> moments stay 0 -> only the decay acts:
        # w <- w - lr*wd*w = 2 - 0.1*0.5*2 = 1.9
        assert np.isclose(p.data[0], 1.9)

    def test_differs_from_adam_with_decay(self):
        pa = make_param([2.0])
        pw = make_param([2.0])
        adam = Adam([pa], lr=0.1, weight_decay=0.5)
        adamw = AdamW([pw], lr=0.1, weight_decay=0.5)
        for _ in range(3):
            pa.grad = Tensor(np.array([1.0]))
            pw.grad = Tensor(np.array([1.0]))
            adam.step()
            adamw.step()
        assert not np.isclose(pa.data[0], pw.data[0])


class TestClipping:
    def test_norm_clip_scales_globally(self):
        p1, p2 = make_param([0.0, 0.0]), make_param([0.0])
        p1.grad = Tensor(np.array([3.0, 0.0]))
        p2.grad = Tensor(np.array([4.0]))
        total = clip_grad_norm_([p1, p2], max_norm=1.0)
        assert np.isclose(total, 5.0)
        new_total = np.sqrt(np.sum(p1.grad.data ** 2) + np.sum(p2.grad.data ** 2))
        assert np.isclose(new_total, 1.0, rtol=1e-6)
        # direction preserved
        assert np.isclose(p1.grad.data[0] / p2.grad.data[0], 3.0 / 4.0)

    def test_norm_clip_noop_below_threshold(self):
        p = make_param([0.0])
        p.grad = Tensor(np.array([0.5]))
        clip_grad_norm_([p], max_norm=1.0)
        assert np.isclose(p.grad.data[0], 0.5)

    def test_value_clip(self):
        p = make_param([0.0, 0.0])
        p.grad = Tensor(np.array([5.0, -0.2]))
        clip_grad_value_([p], max_value=1.0)
        assert np.allclose(p.grad.data, [1.0, -0.2])

    def test_none_grads_ignored(self):
        p = make_param([1.0])
        p.grad = None
        assert clip_grad_norm_([p], max_norm=1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_grad_norm_([], max_norm=0.0)
        with pytest.raises(ValueError):
            clip_grad_value_([], max_value=-1.0)

    def test_hero_with_clipping_trains(self):
        """Clipping composes with the HERO trainer's gradients."""
        from repro import nn
        from repro.core import make_trainer
        from repro.data import DataLoader, gaussian_blobs
        from repro.models import MLP

        ds = gaussian_blobs(n=60, num_classes=3, spread=2.5, noise=0.4, seed=0)
        model = MLP(2, hidden=(8,), num_classes=3, rng=np.random.default_rng(0))
        opt = SGD(model.parameters(), lr=0.2, momentum=0.9)
        trainer = make_trainer("hero", model, nn.CrossEntropyLoss(), opt, h=0.01, gamma=0.05)
        for x, y in DataLoader(ds, batch_size=30, seed=0):
            trainer.training_step(x, y)
            clip_grad_norm_(trainer.params, max_norm=1.0)
            opt.step()
        total = np.sqrt(sum(np.sum(p.grad.data ** 2) for p in trainer.params))
        assert total <= 1.0 + 1e-9
