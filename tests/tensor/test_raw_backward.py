"""Raw-route backward (``create_graph=False``) vs graph-route parity.

Each op has one ``backward`` rule, and ``Tensor.backward`` is one
traversal that runs it on one of two input types:
``backward(create_graph=True)`` hands it Tensors and records a
differentiable graph; first-order ``backward()`` hands it the inputs'
ndarrays (no graph nodes, no Tensor wrapping).  Both routes accumulate
with ``existing + new``.  These tests check that every rule is written
the same for both types (only operations the two share, every constant
cast to the policy dtype), so the two routes give **bit-identical**
gradients.  Pinned with ``tobytes()`` equality across ops, dtypes,
precision policies, broadcasting patterns, accumulation orders, and
backpropagation through a ``create_graph`` gradient (HERO's penalty
backward).

The memory layouts agree too: adjoints that slice or broadcast the
gradient copy on both routes, so a later ``sum``, which reduces in
layout order, rounds the same way.  Layer graphs (conv + BatchNorm,
grouped, depthwise, BatchNorm1d) pin it.

A first-order leaf gradient owns its array: no other leaf and not the
caller's seed shares its memory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.tensor import Tensor, dtype_context


def grads_via(fn, arrays, create_graph, seed_grad=None):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    if seed_grad is None:
        out.backward(create_graph=create_graph)
    else:
        out.backward(Tensor(seed_grad.copy()), create_graph=create_graph)
    return [
        None if leaf.grad is None else np.array(leaf.grad.data, copy=True)
        for leaf in leaves
    ]


def assert_parity(fn, *arrays, seed_grad=None):
    raw = grads_via(fn, arrays, create_graph=False, seed_grad=seed_grad)
    graph = grads_via(fn, arrays, create_graph=True, seed_grad=seed_grad)
    for r, g in zip(raw, graph):
        assert (r is None) == (g is None)
        if r is not None:
            assert r.dtype == g.dtype, (r.dtype, g.dtype)
            assert r.shape == g.shape
            assert r.tobytes() == g.tobytes()


def rand(shape, dtype, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


DTYPES = [np.float32, np.float64]


class TestElementwiseOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: (x.exp()).sum(),
            lambda x: ((x * x) + 1.0).log().sum(),
            lambda x: x.tanh().sum(),
            lambda x: x.sigmoid().sum(),
            lambda x: x.relu().sum(),
            lambda x: x.abs().sum(),
            lambda x: x.clip(-0.5, 0.5).sum(),
            lambda x: (x ** 3).sum(),
            lambda x: (x ** 2).sum(),
            lambda x: (x ** 1).sum(),
            lambda x: (x ** 0.5).abs().sum(),
            lambda x: (-x).sum(),
            lambda x: (x ** -1.0).sum(),
        ],
    )
    def test_unary(self, dtype, fn):
        assert_parity(fn, rand((5, 7), dtype, 0) + 2.5)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "fn",
        [
            lambda a, b: (a + b).sum(),
            lambda a, b: (a - b).sum(),
            lambda a, b: (a * b).sum(),
            lambda a, b: (a / (b.abs() + 1.0)).sum(),
            lambda a, b: a.maximum(b).sum(),
            lambda a, b: a.minimum(b).sum(),
        ],
    )
    def test_binary_same_shape(self, dtype, fn):
        assert_parity(fn, rand((4, 6), dtype, 1), rand((4, 6), dtype, 2))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_broadcasting(self, dtype):
        a = rand((3, 1, 5), dtype, 3)
        b = rand((4, 5), dtype, 4)
        assert_parity(lambda x, y: (x * y).sum(), a, b)
        assert_parity(lambda x, y: (x + y).sum(), a, b)
        assert_parity(lambda x, y: x.maximum(y).sum(), a, b)
        # scalar-array broadcast
        assert_parity(lambda x, y: (x * y).sum(), rand((), dtype, 5), b)


class TestReduceShapeOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: x.sum(),
            lambda x: x.sum(axis=0).sum(),
            lambda x: x.sum(axis=(0, 2), keepdims=True).sum(),
            lambda x: x.max().sum(),
            lambda x: x.max(axis=1).sum(),
            lambda x: x.reshape(6, 10).sum(axis=1).sum(),
            lambda x: x.transpose((2, 0, 1)).sum(),
            lambda x: x.expand_to((7, 3, 4, 5)).sum(),
            lambda x: x.pad(((1, 1), (0, 0), (2, 0))).sum(),
            lambda x: x[1:, ::2, :3].sum(),
            lambda x: x.take_flat(np.array([[0, 5], [3, 3]])).sum(),
        ],
    )
    def test_structural(self, dtype, fn):
        assert_parity(fn, rand((3, 4, 5), dtype, 6))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_max_with_ties(self, dtype):
        # Repeated maxima split the gradient by a 1/k tie mask — a
        # non-dyadic value whose policy-dtype cast the raw rule must
        # replicate exactly.
        x = np.array([[1.0, 3.0, 3.0, 3.0], [2.0, 2.0, 0.0, 1.0]], dtype=dtype)
        assert_parity(lambda t: t.max(axis=1).sum(), x)
        assert_parity(lambda t: t.max().sum(), x)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_concat_and_where(self, dtype):
        from repro.tensor import concat, where

        a = rand((2, 3), dtype, 7)
        b = rand((4, 3), dtype, 8)
        assert_parity(lambda x, y: concat([x, y], axis=0).sum(), a, b)
        cond = rand((2, 3), dtype, 9) > 0
        assert_parity(
            lambda x, y: where(cond, x, y * 2.0).sum(),
            a,
            rand((2, 3), dtype, 10),
        )


class TestMatMul:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_2d(self, dtype):
        assert_parity(
            lambda a, b: (a @ b).sum(), rand((4, 6), dtype, 11), rand((6, 3), dtype, 12)
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batched_broadcast(self, dtype):
        a = rand((5, 2, 4, 6), dtype, 13)
        b = rand((2, 6, 3), dtype, 14)
        assert_parity(lambda x, y: (x @ y).sum(), a, b)


class TestAccumulationAliasing:
    """Graphs where rules hand one array to several parents or pass it
    through, and several paths accumulate into one node."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "fn",
        [
            # Add hands the same upstream array to both parents.
            lambda x: (x + x).sum(),
            # Pow p=1 passes the gradient array through unchanged.
            lambda x: ((x ** 1) * (x ** 1)).sum(),
            # Diamond: two paths accumulate into one node.
            lambda x: ((x * 2.0) + (x * 3.0)).sum(),
            lambda x: ((x.exp()) * (x.exp())).sum(),
            # Leaf feeding many consumers.
            lambda x: (x * x * x + x.tanh() + x.relu()).sum(),
            # Sum's raw adjoint is a read-only broadcast view; the
            # accumulator must never write into it.
            lambda x: (x.sum(axis=0).expand_to((4, 5)) + x).sum(),
        ],
    )
    def test_aliased_paths(self, dtype, fn):
        assert_parity(fn, rand((4, 5), dtype, 15))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_repeated_backward_accumulates(self, dtype):
        def run(create_graph):
            x = Tensor(rand((3, 4), dtype, 16), requires_grad=True)
            for _ in range(3):
                ((x * x).sum()).backward(create_graph=create_graph)
            return np.array(x.grad.data, copy=True)

        assert run(False).tobytes() == run(True).tobytes()

    @pytest.mark.parametrize("first", ["raw", "graph"])
    def test_mixed_route_accumulation(self, first):
        def run(order):
            x = Tensor(rand((3, 4), np.float64, 18), requires_grad=True)
            for route in order:
                (x * x).sum().backward(create_graph=(route == "graph"))
            return x.grad

        a = run([first, "raw" if first == "graph" else "graph"])
        b = run(["graph", "graph"])
        assert a.data.tobytes() == b.data.tobytes()
        if first == "graph":
            # A raw backward onto a graph-valued .grad sums the arrays
            # and leaves a detached gradient.
            assert a._ctx is None and not a.requires_grad

    def test_seed_tensor_stays_in_graph(self):
        # d/dv of sum(v * dy/dx) for y = x * x is 2x: the seed must stay
        # connected on the graph route, not be wrapped as a constant.
        x = Tensor(rand((3, 4), np.float64, 25), requires_grad=True)
        v = Tensor(rand((3, 4), np.float64, 26), requires_grad=True)
        (x * x).backward(v, create_graph=True)
        x.grad.sum().backward()
        assert v.grad is not None
        np.testing.assert_array_equal(v.grad.data, 2.0 * x.data)


class TestLeafGradientOwnership:
    """A first-order leaf gradient shares memory with nothing another
    leaf or the caller holds, so an in-place edit of one stays local."""

    def test_leaves_fed_one_array_do_not_alias(self):
        # Add hands its upstream array, here the caller's seed, to both
        # parents unchanged.
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        g = np.arange(3, dtype=a.dtype)
        (a + b).backward(g)
        assert not np.shares_memory(a.grad.data, b.grad.data)
        assert not np.shares_memory(a.grad.data, g)
        assert not np.shares_memory(b.grad.data, g)
        a.grad.data *= 10
        np.testing.assert_array_equal(b.grad.data, [0, 1, 2])
        np.testing.assert_array_equal(g, [0, 1, 2])

    def test_leaf_seed_is_copied(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = np.arange(3, dtype=x.dtype)
        x.backward(g)
        assert x.grad.data is not g
        assert not np.shares_memory(x.grad.data, g)


class TestTraversalMemory:
    @staticmethod
    def backward_peak(depth):
        x = Tensor(rand(2**17, np.float32, 27), requires_grad=True)  # 0.5 MiB
        h = x
        for _ in range(depth):
            h = h * 2.0 + h * 3.0 + h * 0.5
        loss = h.sum()
        tracemalloc.start()
        try:
            loss.backward()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_first_order_peak_does_not_grow_with_depth(self):
        # Each interior gradient is freed once its node has run, so the
        # first-order peak is a few gradients whatever the depth.
        shallow, deep = self.backward_peak(5), self.backward_peak(40)
        assert deep <= 1.5 * shallow, (shallow, deep)


class TestPolicyInteraction:
    def test_f64_graph_under_f32_policy(self):
        # Scalar wrapping (Tensor(c)) casts to the *policy* dtype; raw
        # rules must replicate that cast even when the graph runs in a
        # wider dtype than the policy.
        with dtype_context("float32"):
            x64 = rand((4, 5), np.float64, 19)
            assert_parity(lambda x: (x ** 3).sum(), x64)
            assert_parity(lambda x: x.tanh().sum(), x64)
            assert_parity(lambda x: x.sigmoid().sum(), x64)
            assert_parity(lambda x: x.max(axis=0).sum(), np.repeat(x64[:1], 4, axis=0))

    def test_f32_graph_under_f64_policy(self):
        with dtype_context("float64"):
            x32 = rand((4, 5), np.float32, 20)
            assert_parity(lambda x: (x ** 3).sum(), x32)
            assert_parity(lambda x: x.tanh().sum(), x32)


class TestSeededBackward:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nonscalar_output_with_seed(self, dtype):
        seed = rand((4, 3), dtype, 21)
        assert_parity(
            lambda a, b: a @ b,
            rand((4, 6), dtype, 22),
            rand((6, 3), dtype, 23),
            seed_grad=seed,
        )

    def test_model_loss_parity(self):
        # End-to-end: a small MLP + cross-entropy, the same graph every
        # trainer builds per step.
        from repro import nn
        from repro.models import MLP

        def run(create_graph):
            model = MLP(6, hidden=(8,), num_classes=3, rng=np.random.default_rng(0))
            x = rand((10, 6), np.float32, 24)
            y = np.random.default_rng(1).integers(0, 3, size=10)
            loss = nn.CrossEntropyLoss()(model(Tensor(x)), y)
            loss.backward(create_graph=create_graph)
            return [np.array(p.grad.data, copy=True) for p in model.parameters()]

        for r, g in zip(run(False), run(True)):
            assert r.tobytes() == g.tobytes()



def second_order_via(fn, arrays, directions, create_graph):
    """Backpropagate ``sum(g * v)`` for the ``create_graph`` gradient ``g``
    of ``fn`` — the pattern of HERO's penalty backward and of
    ``HVPOperator.matvec`` — and return each leaf's gradient."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*leaves).backward(create_graph=True)
    grads = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.zero_grad()
    inner = None
    for grad, direction in zip(grads, directions):
        term = (grad * Tensor(direction)).sum()
        inner = term if inner is None else inner + term
    inner.backward(create_graph=create_graph)
    return [
        None if leaf.grad is None else np.array(leaf.grad.data, copy=True)
        for leaf in leaves
    ]


def _concat(x, y):
    from repro.tensor import concat

    return concat([x, y], axis=0)


def _where(x, y):
    from repro.tensor import where

    cond = rand((2, 3), np.float64, 37) > 0
    return where(cond, x, y * 2.0)


#: One function per primitive, each with a nonzero second derivative so
#: the first pass's gradient depends on the leaves: name -> (fn, shapes).
SECOND_ORDER_CASES = {
    "add_neg": (lambda x, y: ((x + y) * (x - y)).sum(), [(3, 1, 5), (4, 5)]),
    "mul": (lambda x, y: (x * y * x).sum(), [(3, 1, 5), (4, 5)]),
    "pow": (lambda x: (x ** 3).sum(), [(3, 4, 5)]),
    "pow_rsqrt": (lambda x: ((x * x) + 1.0).pow(-0.5).sum(), [(3, 4, 5)]),
    "matmul": (lambda x, y: ((x @ y) ** 2).sum(), [(5, 2, 4, 6), (2, 6, 3)]),
    "exp": (lambda x: x.exp().sum(), [(3, 4, 5)]),
    "log": (lambda x: ((x * x) + 1.0).log().sum(), [(3, 4, 5)]),
    "tanh": (lambda x: x.tanh().sum(), [(3, 4, 5)]),
    "sigmoid": (lambda x: x.sigmoid().sum(), [(3, 4, 5)]),
    "relu": (lambda x: (x.relu() * x).sum(), [(3, 4, 5)]),
    "abs": (lambda x: (x.abs() * x).sum(), [(3, 4, 5)]),
    "clip": (lambda x: (x.clip(-0.5, 0.5) * x).sum(), [(3, 4, 5)]),
    "maximum": (lambda x, y: (x.maximum(y) * x).sum(), [(3, 1, 5), (4, 5)]),
    "minimum": (lambda x, y: (x.minimum(y) * y).sum(), [(3, 1, 5), (4, 5)]),
    "where": (lambda x, y: (_where(x, y) ** 3).sum(), [(2, 3), (2, 3)]),
    "sum": (lambda x: (x.sum(axis=0) * x.sum(axis=0)).sum(), [(3, 4, 5)]),
    "max": (lambda x: (x.max(axis=1) * x.max(axis=1)).sum(), [(3, 4, 5)]),
    "reshape_transpose": (lambda x: (x.reshape(6, 10).transpose() ** 2).sum(), [(3, 4, 5)]),
    "expand": (lambda x: (x.expand_to((2, 3, 4, 5)) * x).sum(), [(3, 4, 5)]),
    "pad": (lambda x: (x.pad(((1, 1), (0, 0), (2, 0))) ** 2).sum(), [(3, 4, 5)]),
    "slice": (lambda x: (x[1:, ::2, :3] ** 2).sum(), [(3, 4, 5)]),
    "take_flat": (lambda x: (x.take_flat(np.array([[0, 5], [3, 3]])) ** 2).sum(), [(3, 4, 5)]),
    "concat": (lambda x, y: (_concat(x, y) ** 2).sum(), [(2, 3), (4, 3)]),
}


class TestSecondOrderParity:
    """Backpropagating through a ``create_graph`` gradient runs each op's
    rule on the first pass's graph — the adjoint ops ``Unslice``,
    ``ScatterAddFlat`` and ``Expand`` included — and gives the same bits
    raw and graph-valued."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", sorted(SECOND_ORDER_CASES))
    def test_primitive(self, dtype, name):
        fn, shapes = SECOND_ORDER_CASES[name]
        arrays = [rand(shape, dtype, 30 + i) + 0.5 for i, shape in enumerate(shapes)]
        directions = [rand(shape, dtype, 100 + i) for i, shape in enumerate(shapes)]
        raw = second_order_via(fn, arrays, directions, create_graph=False)
        graph = second_order_via(fn, arrays, directions, create_graph=True)
        for r, g in zip(raw, graph):
            assert r is not None and g is not None
            assert r.dtype == g.dtype, (r.dtype, g.dtype)
            assert r.shape == g.shape
            assert r.tobytes() == g.tobytes()


def _conv_bn(x, w, gamma, beta):
    """``nn.Conv2d(3, 4, 3, padding=1)`` -> ``nn.BatchNorm2d(4)``, cubed."""
    from repro import nn

    bn = nn.BatchNorm2d(4)
    bn.weight, bn.bias = gamma, beta
    out = bn(nn.conv2d(x, w, padding=1))
    return (out * out * out).sum()


def _grouped_strided(x, w, b):
    from repro import nn

    return (nn.conv2d(x, w, b, stride=2, padding=1, groups=2) ** 3).sum()


def _depthwise(x, w):
    from repro import nn

    return (nn.conv2d(x, w, padding=1, groups=4).tanh() * x).sum()


def _batch_norm_1d(x, gamma, beta):
    from repro import nn

    bn = nn.BatchNorm1d(5)
    bn.weight, bn.bias = gamma, beta
    out = bn(x)
    return (out * out * out + out * x).sum()


#: Layer graphs whose layouts differ between the routes unless every
#: adjoint returns the same layout on both: name -> (fn, shapes).
LAYER_CASES = {
    "conv_bn": (_conv_bn, [(2, 3, 6, 6), (4, 3, 3, 3), (4,), (4,)]),
    "grouped_strided_conv": (_grouped_strided, [(2, 4, 7, 7), (6, 2, 3, 3), (6,)]),
    "depthwise_conv": (_depthwise, [(2, 4, 5, 5), (4, 1, 3, 3)]),
    "batch_norm_1d": (_batch_norm_1d, [(6, 5), (5,), (5,)]),
}


class TestLayerParity:
    """Conv and BatchNorm graphs give the same bits raw and graph-valued,
    at first order and through a ``create_graph`` gradient."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", sorted(LAYER_CASES))
    def test_first_order(self, dtype, name):
        fn, shapes = LAYER_CASES[name]
        with dtype_context(dtype):
            assert_parity(fn, *(rand(shape, dtype, 40 + i) for i, shape in enumerate(shapes)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", sorted(LAYER_CASES))
    def test_second_order(self, dtype, name):
        fn, shapes = LAYER_CASES[name]
        arrays = [rand(shape, dtype, 50 + i) for i, shape in enumerate(shapes)]
        directions = [rand(shape, dtype, 60 + i) for i, shape in enumerate(shapes)]
        with dtype_context(dtype):
            raw = second_order_via(fn, arrays, directions, create_graph=False)
            graph = second_order_via(fn, arrays, directions, create_graph=True)
        for r, g in zip(raw, graph):
            assert r.dtype == g.dtype, (r.dtype, g.dtype)
            assert r.tobytes() == g.tobytes()
