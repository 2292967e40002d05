"""The conv row index: one entry per geometry, bounded, and the scatter
and pooling built on it bitwise equal to a flat ``np.add.at`` scatter."""

import sys
import threading

import numpy as np
import pytest

from repro import nn, optim
from repro.core import make_trainer
from repro.nn.conv import _col2im, _pair, _row_index, conv_output_size
from repro.tensor import Tensor, dtype_context
from test_coarse_ops import CONV_CASES

MAXSIZE = _row_index.cache_info().maxsize


@pytest.fixture(autouse=True)
def fresh_cache():
    _row_index.cache_clear()
    yield
    _row_index.cache_clear()


def flat_index(in_shape, kernel, stride, dilation):
    """Flat positions in a padded NCHW input of its ``(N, OHW, C, KK)``
    patches: the batch-major im2col gather the row index replaced."""
    n, c, hp, wp = in_shape
    (kh, kw), (sh, sw), (dh, dw) = kernel, stride, dilation
    oh = conv_output_size(hp, kh, sh, 0, dh)
    ow = conv_output_size(wp, kw, sw, 0, dw)
    out_rows, out_cols = np.divmod(np.arange(oh * ow), ow)
    ker_rows, ker_cols = np.divmod(np.arange(kh * kw), kw)
    rows = out_rows[:, None] * sh + ker_rows * dh  # (OHW, KK)
    cols = out_cols[:, None] * sw + ker_cols * dw
    planes = np.arange(n)[:, None, None, None] * c + np.arange(c)[:, None]
    return (planes * hp + rows[:, None, :]) * wp + cols[:, None, :]


class TestZeroRecomputation:
    def test_repeated_shape_never_recomputes(self):
        for _ in range(5):
            _row_index(3, 8, 8, (3, 3), (1, 1), (1, 1))
        info = _row_index.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)

    def test_one_entry_serves_every_batch_size(self):
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for n in (32, 64, 96):
            x = Tensor(rng.standard_normal((n, 3, 8, 8)), requires_grad=True)
            conv(x).sum().backward()
        info = _row_index.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_training_steps_hit_after_warmup(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(4, 4, 3, padding=1, groups=4, bias=False, rng=rng),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 3, rng=rng),
        )
        trainer = make_trainer(
            "hero", model, nn.CrossEntropyLoss(), optim.SGD(model.parameters(), lr=0.01),
            h=0.05, gamma=0.5,
        )
        x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8)
        trainer.training_step(x, y)
        warm = _row_index.cache_info()
        for _ in range(3):
            trainer.training_step(x, y)
        info = _row_index.cache_info()
        assert (info.misses, info.currsize) == (warm.misses, warm.currsize)
        assert info.hits > warm.hits

    def test_identical_result_object_on_hit(self):
        first = _row_index(2, 6, 6, (2, 2), (2, 2), (1, 1))
        second = _row_index(2, 6, 6, (2, 2), (2, 2), (1, 1))
        assert second is first  # memoized, not rebuilt
        assert not first.flags.writeable  # shared, so read-only


class TestBoundedLRU:
    def test_eviction_beyond_cap(self):
        for h in range(MAXSIZE + 8):
            _row_index(1, 8 + h, 8, (3, 3), (1, 1), (1, 1))
        assert _row_index.cache_info().currsize == MAXSIZE

    def test_lru_order_keeps_recently_used(self):
        keys = [(1, 8 + h, 8, (3, 3), (1, 1), (1, 1)) for h in range(MAXSIZE)]
        for key in keys:
            _row_index(*key)
        # Touch the oldest entry, then overflow by one: the second-oldest
        # should be evicted, not the refreshed one.
        refreshed = _row_index(*keys[0])
        _row_index(1, 500, 8, (3, 3), (1, 1), (1, 1))
        assert _row_index(*keys[0]) is refreshed  # still cached (hit)
        misses = _row_index.cache_info().misses
        _row_index(*keys[1])
        assert _row_index.cache_info().misses == misses + 1


class TestSharedByThreads:
    def test_concurrent_lookups_with_evictions(self):
        """A served model's worker threads share the cache.  With more
        threads than cores, a tiny switch interval and more geometries
        than the bound, every lookup returns the right rows and every
        one is counted once."""
        heights = [4 + h for h in range(MAXSIZE + 16)]
        lookups_per_thread = 3 * len(heights)
        errors = []

        def worker(offset):
            try:
                for i in range(lookups_per_thread):
                    h = heights[(offset * 7 + i) % len(heights)]
                    index = _row_index(1, h, 4, (3, 3), (1, 1), (1, 1))
                    assert index.shape == (9 * (h - 2) * 2,)
                    assert index[-1] == h * 4 - 1
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = _row_index.cache_info()
        assert info.hits + info.misses == 4 * lookups_per_thread
        assert info.currsize <= MAXSIZE


class TestScatter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_CASES))
    def test_col2im_matches_add_at(self, name, dtype):
        """Each pixel sums its terms in the order of a scatter over the
        batch-major patches, so the result is bitwise that scatter's."""
        (n, c, h, w), (_oc, _cg, kh, kw), kwargs = CONV_CASES[name]
        stride = _pair(kwargs.get("stride", 1))
        padding = _pair(kwargs.get("padding", 0))
        dilation = _pair(kwargs.get("dilation", 1))
        geometry = ((kh, kw), stride, padding, dilation, kwargs.get("groups", 1))
        padded = (n, c, h + 2 * padding[0], w + 2 * padding[1])
        index = flat_index(padded, (kh, kw), stride, dilation)
        oh_ow = index.shape[1]
        cols = np.random.default_rng(0).standard_normal(c * kh * kw * oh_ow * n).astype(dtype)
        patches = cols.reshape(c, kh * kw, oh_ow, n).transpose((3, 2, 0, 1))
        want = np.zeros(np.prod(padded), dtype=dtype)
        np.add.at(want, index.reshape(-1), patches.reshape(-1))
        want = want.reshape(padded)[:, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w]
        got = _col2im(cols, (n, c, h, w), geometry)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_kernel_that_does_not_fit_raises(self, rng):
        with pytest.raises(ValueError, match="does not fit"):
            _row_index(1, 3, 3, (5, 5), (1, 1), (1, 1))
        with pytest.raises(ValueError, match="does not fit"):
            nn.conv2d(Tensor(rng.standard_normal((2, 1, 3, 3))), Tensor(rng.standard_normal((1, 1, 3, 5))))
        with pytest.raises(ValueError, match="does not fit"):
            nn.max_pool2d(Tensor(rng.standard_normal((2, 1, 3, 3))), 4)
        assert _row_index.cache_info().currsize == 0


def flat_max_pool2d(x, kernel, stride, padding):
    """Max pooling through a flat gather of the batch-major patches."""
    ph, pw = padding
    if padding != (0, 0):
        x = x.pad(((0, 0), (0, 0), (ph, ph), (pw, pw)), value=-np.inf)
    n, c = x.shape[:2]
    index = flat_index(x.shape, kernel, stride, (1, 1))  # (N, OHW, C, KK)
    oh = conv_output_size(x.shape[2], kernel[0], stride[0], 0)
    ow = conv_output_size(x.shape[3], kernel[1], stride[1], 0)
    return x.take_flat(index).max(axis=3).transpose((0, 2, 1)).reshape(n, c, oh, ow)


POOL_CASES = {
    "2x2": ((2, 2), (2, 2), (0, 0)),
    "3x3_overlapping": ((3, 3), (1, 1), (0, 0)),
    "3x3_stride2_padding1": ((3, 3), (2, 2), (1, 1)),
    "3x2_stride1x2": ((3, 2), (1, 2), (1, 0)),
}


class TestMaxPoolParity:
    @pytest.mark.parametrize("create_graph", [False, True], ids=["first_order", "graph"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(POOL_CASES))
    def test_outputs_and_gradients_match_flat_gather(self, name, dtype, create_graph):
        kernel, stride, padding = POOL_CASES[name]
        rng = np.random.default_rng(3)
        with dtype_context(dtype):
            x = rng.standard_normal((3, 2, 7, 6))
            results = []
            for pool in (nn.max_pool2d, flat_max_pool2d):
                leaf = Tensor(x, requires_grad=True)
                out = pool(leaf, kernel, stride, padding)
                g = np.random.default_rng(4).standard_normal(out.shape)
                (out * Tensor(g)).sum().backward(create_graph=create_graph)
                results.append((out.data, leaf.grad.data))
        (out, grad), (want_out, want_grad) = results
        assert out.dtype == want_out.dtype == np.dtype(dtype)
        assert out.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
