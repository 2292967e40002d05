"""im2col index memoization: zero recomputation at steady state, bounded growth."""

import numpy as np
import pytest

from repro import nn
from repro.nn.conv import (
    _INDEX_CACHE_MAX,
    im2col_cache_clear,
    im2col_cache_info,
    im2col_indices,
)
from repro.tensor import Tensor


@pytest.fixture(autouse=True)
def fresh_cache():
    im2col_cache_clear()
    yield
    im2col_cache_clear()


class TestZeroRecomputation:
    def test_repeated_shape_never_recomputes(self):
        for _ in range(5):
            im2col_indices((2, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        info = im2col_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 4

    def test_training_steps_hit_after_warmup(self):
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 3, 8, 8)).astype(np.float32)
        conv(Tensor(x)).sum().backward()
        warm = im2col_cache_info()["misses"]
        for _ in range(4):
            conv(Tensor(x)).sum().backward()
        info = im2col_cache_info()
        assert info["misses"] == warm  # zero recomputation after step one
        assert info["hits"] >= 4

    def test_identical_result_object_on_hit(self):
        first = im2col_indices((1, 2, 6, 6), (2, 2), (2, 2), (1, 1))
        second = im2col_indices((1, 2, 6, 6), (2, 2), (2, 2), (1, 1))
        assert second is first  # memoized, not rebuilt


class TestBoundedLRU:
    def test_eviction_beyond_cap(self):
        for n in range(_INDEX_CACHE_MAX + 8):
            im2col_indices((1, 1, 8 + n, 8), (3, 3), (1, 1), (1, 1))
        info = im2col_cache_info()
        assert info["size"] <= _INDEX_CACHE_MAX
        assert info["evictions"] == 8

    def test_lru_order_keeps_recently_used(self):
        keys = [((1, 1, 8 + n, 8), (3, 3), (1, 1), (1, 1)) for n in range(_INDEX_CACHE_MAX)]
        for key in keys:
            im2col_indices(*key)
        # Touch the oldest entry, then overflow by one: the second-oldest
        # should be evicted, not the refreshed one.
        refreshed = im2col_indices(*keys[0])
        im2col_indices((1, 1, 200, 8), (3, 3), (1, 1), (1, 1))
        assert im2col_indices(*keys[0]) is refreshed  # still cached (hit)
        info = im2col_cache_info()
        assert info["evictions"] == 1

    def test_clear_resets(self):
        im2col_indices((1, 1, 8, 8), (3, 3), (1, 1), (1, 1))
        im2col_cache_clear()
        info = im2col_cache_info()
        assert info == {"hits": 0, "misses": 0, "evictions": 0, "size": 0,
                        "maxsize": _INDEX_CACHE_MAX}


class TestSharedByThreads:
    def test_concurrent_lookups_with_evictions(self):
        """A served model's worker threads share the cache.  With more
        threads than cores, a tiny switch interval and more shapes than
        the bound, every lookup succeeds and every one is counted once."""
        import sys
        import threading

        shapes = [(1, 1, 4 + n, 4) for n in range(_INDEX_CACHE_MAX + 16)]
        lookups_per_thread = 3 * len(shapes)
        errors = []

        def worker(offset):
            try:
                for i in range(lookups_per_thread):
                    shape = shapes[(offset * 7 + i) % len(shapes)]
                    indices, _oh, _ow = im2col_indices(shape, (3, 3), (1, 1), (1, 1))
                    assert indices.shape == (1, (shape[2] - 2) * 2, 1, 9)
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
        info = im2col_cache_info()
        assert info["hits"] + info["misses"] == 4 * lookups_per_thread
        assert info["size"] <= _INDEX_CACHE_MAX
