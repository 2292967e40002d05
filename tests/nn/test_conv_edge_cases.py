"""Additional convolution/pooling edge cases."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradient


class TestConvVariants:
    def test_asymmetric_kernel(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 1, 3))
        out = nn.conv2d(Tensor(x), Tensor(w), padding=(0, 1))
        assert out.shape == (1, 3, 6, 6)
        check_gradient(
            lambda ww: (nn.conv2d(Tensor(x), ww, padding=(0, 1)) ** 2).sum(), [w], eps=1e-5
        )

    def test_asymmetric_stride(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 3, 3))
        out = nn.conv2d(Tensor(x), Tensor(w), stride=(1, 2), padding=1)
        assert out.shape == (1, 1, 8, 4)

    def test_dilation_gradcheck(self, rng):
        x = rng.standard_normal((1, 1, 7, 7))
        w = rng.standard_normal((1, 1, 3, 3))
        check_gradient(
            lambda xx, ww: (nn.conv2d(xx, ww, dilation=2) ** 2).sum(), [x, w], index=0,
            eps=1e-5,
        )
        check_gradient(
            lambda xx, ww: (nn.conv2d(xx, ww, dilation=2) ** 2).sum(), [x, w], index=1,
            eps=1e-5,
        )

    def test_batch_of_one(self, rng):
        layer = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 3, 5, 5))))
        assert out.shape == (1, 4, 5, 5)

    def test_kernel_equals_input_size(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((5, 2, 4, 4))
        out = nn.conv2d(Tensor(x), Tensor(w))
        assert out.shape == (2, 5, 1, 1)
        ref = np.einsum("nchw,ochw->no", x, w)
        assert np.allclose(out.data.reshape(2, 5), ref)

    def test_stride_larger_than_kernel(self, rng):
        x = rng.standard_normal((1, 1, 9, 9))
        w = rng.standard_normal((1, 1, 2, 2))
        out = nn.conv2d(Tensor(x), Tensor(w), stride=3)
        assert out.shape == (1, 1, 3, 3)

    def test_pair_argument_validation(self):
        from repro.nn.conv import _pair

        assert _pair(3) == (3, 3)
        assert _pair((1, 2)) == (1, 2)
        with pytest.raises(ValueError):
            _pair((1, 2, 3))

    def test_index_cache_reused(self, rng):
        from repro.nn.conv import _row_index

        geometry = (3, 11, 11, (3, 3), (1, 1), (1, 1))
        before = _row_index.cache_info().currsize
        first = _row_index(*geometry)
        mid = _row_index.cache_info().currsize
        assert _row_index(*geometry) is first
        assert _row_index.cache_info().currsize == mid
        assert mid >= before


class TestPoolingEdgeCases:
    def test_pool_window_equals_input(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = nn.max_pool2d(Tensor(x), 4)
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out.data[..., 0, 0], x.max(axis=(2, 3)))

    def test_overlapping_windows_grad(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        check_gradient(lambda xx: (nn.max_pool2d(xx, 3, stride=1) ** 2).sum(), [x], eps=1e-5)

    def test_avg_pool_with_padding_counts_zeros(self, rng):
        x = np.ones((1, 1, 2, 2))
        out = nn.avg_pool2d(Tensor(x), 2, stride=2, padding=1).data
        # corner windows contain 1 real pixel + 3 zero pads -> mean 0.25
        assert np.isclose(out[0, 0, 0, 0], 0.25)

    def test_global_pool_matches_avg_pool_full_window(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        a = nn.global_avg_pool2d(Tensor(x)).data
        b = nn.avg_pool2d(Tensor(x), 4).data.reshape(2, 3)
        assert np.allclose(a, b)
