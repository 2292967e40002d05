"""SGD update math and convergence."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD
from repro.tensor import Tensor, dtype_context


def make_param(value):
    return Parameter(np.array(value, dtype=np.float64))


class TestUpdateRule:
    def test_vanilla_step(self):
        p = make_param([1.0, 2.0])
        p.grad = Tensor(np.array([0.5, -0.5]))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95, 2.05])

    def test_weight_decay_added_to_grad(self):
        p = make_param([2.0])
        p.grad = Tensor(np.array([0.0]))
        SGD([p], lr=0.1, weight_decay=0.5).step()
        # grad_eff = 0 + 0.5*2 = 1 -> p = 2 - 0.1
        assert np.allclose(p.data, [1.9])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = Tensor(np.array([1.0]))
        opt.step()  # v=1, p=-1
        p.grad = Tensor(np.array([1.0]))
        opt.step()  # v=1.5, p=-2.5
        assert np.allclose(p.data, [-2.5])

    def test_nesterov(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5, nesterov=True)
        p.grad = Tensor(np.array([1.0]))
        opt.step()  # v=1; update = g + mu*v = 1.5
        assert np.allclose(p.data, [-1.5])

    def test_none_grad_skipped(self):
        p = make_param([1.0])
        p.grad = None
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_none_grad_velocity_frozen(self, dtype):
        # A grad-less parameter is skipped, not zero-filled: its velocity
        # does not decay while the other parameter keeps stepping.
        with dtype_context(dtype):
            p = Parameter([1.0, -1.0])
            q = Parameter([0.5])
            opt = SGD([p, q], lr=0.1, momentum=0.9, weight_decay=1e-3)
            p.grad = Tensor([1.0, 2.0])
            q.grad = Tensor([1.0])
            opt.step()
            frozen_data, frozen_velocity = p.data.tobytes(), opt._velocity[0].tobytes()
            for _ in range(2):
                p.grad = None
                q.grad = Tensor([1.0])
                q_before = q.data[0]
                opt.step()
                assert p.data.tobytes() == frozen_data
                assert opt._velocity[0].tobytes() == frozen_velocity
                assert q.data[0] < q_before
        assert p.data.dtype == dtype

    def test_param_and_state_keep_their_dtype(self):
        # float32 parameters stay float32 however their gradients arrive,
        # and a float64 parameter in the same optimizer stays float64.
        dtypes = [np.float32, np.float64, np.float32]
        params = []
        for dtype in dtypes:
            with dtype_context(dtype):
                params.append(Parameter(np.ones((2, 3))))
        opt = SGD(params, lr=0.1, momentum=0.9, weight_decay=1e-2, nesterov=True)
        for _ in range(2):
            for p in params:
                p.grad = Tensor(np.full((2, 3), 0.3), dtype=np.float64)
            opt.step()
        assert [p.data.dtype for p in params] == dtypes
        assert [v.dtype for v in opt._velocity] == dtypes

    @pytest.mark.parametrize("write", ["rebind", "inplace"])
    def test_next_step_updates_externally_written_data(self, write):
        # QAT and Module.load_state_dict rebind ``param.data`` between
        # steps; apply_offsets writes into it in place.  Either way the
        # next step updates the values the parameter holds now.
        p = make_param([1.0, 2.0])
        ones = np.ones(2, dtype=p.data.dtype)
        new = np.array([5.0, -5.0], dtype=p.data.dtype)
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = Tensor(ones)
        opt.step()
        if write == "rebind":
            p.data = new.copy()
        else:
            p.data[...] = new
        p.grad = Tensor(ones)
        opt.step()
        assert p.data.tobytes() == (new - 0.1 * (0.9 * ones + ones)).tobytes()

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = Tensor(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_matches_pytorch_convention_sequence(self):
        # Hand-computed 3-step trace with momentum 0.9 and wd 0.1.
        p = make_param([1.0])
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.1)
        expected_p = 1.0
        velocity = 0.0
        for g in (0.3, -0.2, 0.1):
            p.grad = Tensor(np.array([g]))
            opt.step()
            g_eff = g + 0.1 * expected_p
            velocity = 0.9 * velocity + g_eff
            expected_p = expected_p - 0.1 * velocity
            assert np.isclose(p.data[0], expected_p)


class TestValidation:
    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=-0.1)

    def test_bad_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, momentum=-0.5)

    def test_nesterov_without_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, nesterov=True)


class TestConvergence:
    def test_quadratic_bowl(self):
        # minimize ||p - target||^2
        target = np.array([3.0, -2.0])
        p = make_param([0.0, 0.0])
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(300):
            p.grad = Tensor(2 * (p.data - target))
            opt.step()
        assert np.allclose(p.data, target, atol=1e-4)

    def test_state_dict_roundtrip(self):
        p = make_param([1.0])
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = Tensor(np.array([1.0]))
        opt.step()
        state = opt.state_dict()
        opt2 = SGD([p], lr=0.5)
        opt2.load_state_dict(state)
        assert opt2.lr == 0.1
        assert opt2.momentum == 0.9
        assert np.allclose(opt2._velocity[0], opt._velocity[0])

    def test_state_dict_with_none_entries_continues_identically(self):
        # A parameter that never saw a gradient has no velocity yet; the
        # ``None`` survives the round-trip and training resumes bit-exact.
        rng = np.random.default_rng(0)
        params = [Parameter(rng.standard_normal(shape).astype(np.float32)) for shape in [(3, 2), (4,)]]
        opt = SGD(params, lr=0.1, momentum=0.9, weight_decay=1e-3)
        params[0].grad = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
        opt.step()
        state = opt.state_dict()
        assert state["velocity"][1] is None
        clones = [Parameter(p.data.copy()) for p in params]
        restored = SGD(clones, lr=0.5)
        restored.load_state_dict(state)
        for _ in range(3):
            grads = [rng.standard_normal(p.data.shape).astype(np.float32) for p in params]
            for side in (params, clones):
                for p, g in zip(side, grads):
                    p.grad = Tensor(g)
            opt.step()
            restored.step()
        assert [p.data.tobytes() for p in params] == [c.data.tobytes() for c in clones]
