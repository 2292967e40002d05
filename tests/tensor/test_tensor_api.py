"""Tensor construction helpers and miscellaneous API surface."""

import numpy as np
import pytest

from repro.tensor import Tensor, default_dtype


class TestConstructors:
    def test_zeros_ones_full_eye(self):
        assert np.all(Tensor.zeros(2, 3).data == 0)
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert np.all(Tensor.ones(4).data == 1)
        assert np.all(Tensor.full((2, 2), 7.5).data == 7.5)
        assert np.allclose(Tensor.eye(3).data, np.eye(3))

    def test_randn_seeded(self):
        a = Tensor.randn(3, 3, rng=np.random.default_rng(0))
        b = Tensor.randn(3, 3, rng=np.random.default_rng(0))
        assert np.allclose(a.data, b.data)

    def test_requires_grad_flag(self):
        t = Tensor.zeros(2, requires_grad=True)
        assert t.requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0, 2.0])
        assert Tensor.as_tensor(t) is t
        wrapped = Tensor.as_tensor([3.0])
        assert isinstance(wrapped, Tensor)

    def test_dtype_coercion(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.dtype == default_dtype()

    def test_explicit_dtype_overrides_policy(self):
        t = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        assert t.dtype == np.float64


class TestAccessors:
    def test_shape_ndim_size_len(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_item(self):
        assert Tensor(5.0).item() == 5.0
        assert Tensor(np.array([[3.5]])).item() == 3.5
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()

    def test_T_property(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.T.shape == (3, 2)

    def test_numpy_shares_buffer(self):
        t = Tensor(np.zeros(3))
        t.numpy()[0] = 5.0
        assert t.data[0] == 5.0

    def test_copy_data_detaches_and_copies(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        c = t.copy_data()
        c.data[0] = 9.0
        assert t.data[0] == 0.0
        assert not c.requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))


class TestCloneAndComparisons:
    def test_clone_is_differentiable(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        c = t.clone()
        (c * 3).backward(grad=np.ones(1))
        assert np.allclose(t.grad.data, 3.0)

    def test_comparisons_return_numpy_bool(self):
        a = Tensor(np.array([1.0, 3.0]))
        b = Tensor(np.array([2.0, 2.0]))
        assert (a > b).tolist() == [False, True]
        assert (a < 2.0).tolist() == [True, False]
        assert (a >= 1.0).tolist() == [True, True]
        assert (a <= b).tolist() == [True, False]

    def test_min_max_full_reduction(self):
        t = Tensor(np.array([[1.0, -2.0], [5.0, 0.0]]))
        assert t.max().item() == 5.0
        assert t.min().item() == -2.0


class TestNumpyOnTheLeft:
    """A numpy value on the left of a Tensor defers to the Tensor's
    reflected operators instead of building an object array."""

    @pytest.mark.parametrize(
        "left", [np.float32(2.0), np.full(3, 2.0, dtype=np.float32)], ids=["scalar", "array"]
    )
    def test_product_is_a_tensor_on_the_graph(self, left):
        t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = left * t
        assert isinstance(out, Tensor)
        out.sum().backward()
        assert np.array_equal(t.grad.data, np.full(3, 2.0, dtype=t.dtype))

    def test_reflected_add_sub_div(self):
        t = Tensor(np.array([1.0, 2.0, 4.0]))
        two = np.float32(2.0)
        for out, expected in (
            (two + t, [3.0, 4.0, 6.0]),
            (two - t, [1.0, 0.0, -2.0]),
            (two / t, [2.0, 1.0, 0.5]),
            (np.ones(3, dtype=np.float32) - t, [0.0, -1.0, -3.0]),
        ):
            assert isinstance(out, Tensor)
            assert np.allclose(out.data, expected)
