"""The coarse conv and BatchNorm ops: derivatives and oracle parity.

``nn.conv2d`` and the BatchNorm layers are one autograd node each, with
hand-written adjoint ops.  They are checked against float64 finite
differences (first order, and Hessian-vector products through the
adjoints) over a matrix of conv geometries and BatchNorm modes, and
against the composite-primitive chains they replaced
(``tests/composite_layers.py``): forward outputs bitwise, gradients of
first and second order within float tolerance.
"""

import copy

import numpy as np
import pytest

from composite_layers import composite_batch_norm, composite_conv2d, to_composite
from repro import nn
from repro.models import create_model
from repro.tensor import Tensor, check_gradient, check_hvp, dtype_context

#: name -> (input shape, weight shape, conv2d keyword arguments)
CONV_CASES = {
    "stride2": ((2, 3, 7, 7), (4, 3, 3, 3), dict(stride=2, padding=1)),
    "padding2": ((1, 2, 4, 5), (3, 2, 3, 3), dict(padding=2)),
    "dilation2": ((1, 2, 7, 6), (3, 2, 3, 3), dict(dilation=2, padding=1)),
    "groups2": ((2, 4, 5, 5), (6, 2, 3, 3), dict(groups=2, padding=1)),
    "depthwise_stride2": ((2, 3, 6, 6), (3, 1, 3, 3), dict(groups=3, stride=2, padding=1)),
    "pointwise": ((2, 3, 4, 4), (5, 3, 1, 1), {}),
    "kernel3x1": ((2, 2, 5, 4), (3, 2, 3, 1), dict(padding=(1, 0))),
}


def conv_arrays(name, bias, seed=0):
    x_shape, w_shape, kwargs = CONV_CASES[name]
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape) * 0.5]
    if bias:
        arrays.append(rng.standard_normal(w_shape[0]))
    return arrays, kwargs


def conv_loss(conv, kwargs):
    """A scalar with nonzero second derivatives in every input."""

    def loss(x, w, b=None):
        out = conv(x, w, b, **kwargs)
        return (out * out * out).sum() * 0.1

    return loss


class TestConvDerivatives:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("name", sorted(CONV_CASES))
    def test_gradient(self, name, bias):
        arrays, kwargs = conv_arrays(name, bias)
        for index in range(len(arrays)):
            check_gradient(conv_loss(nn.conv2d, kwargs), arrays, index=index, eps=1e-6)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("name", sorted(CONV_CASES))
    def test_hvp(self, name, bias):
        arrays, kwargs = conv_arrays(name, bias)
        rng = np.random.default_rng(1)
        for index in range(len(arrays)):
            v = rng.standard_normal(arrays[index].shape)
            check_hvp(conv_loss(nn.conv2d, kwargs), arrays, v, index=index, atol=1e-5, rtol=1e-5)


#: name -> (module factory, input shape)
BN_CASES = {
    "bn2d": (lambda affine: nn.BatchNorm2d(3, affine=affine), (4, 3, 3, 2)),
    "bn1d_2d": (lambda affine: nn.BatchNorm1d(3, affine=affine), (6, 3)),
    "bn1d_3d": (lambda affine: nn.BatchNorm1d(3, affine=affine), (4, 3, 5)),
}


def bn_module(name, affine, train, dtype="float64"):
    factory, shape = BN_CASES[name]
    with dtype_context(dtype):
        bn = factory(affine)
    rng = np.random.default_rng(2)
    bn.set_buffer("running_mean", rng.standard_normal(3))
    bn.set_buffer("running_var", rng.random(3) + 0.5)
    bn.train(train)
    return bn, shape


def bn_arrays(shape, affine, seed=3):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) * 2.0 + 0.5]
    if affine:
        arrays += [rng.random(3) + 0.5, rng.standard_normal(3)]
    return arrays


def bn_loss(bn, layer):
    """A scalar with nonzero second derivatives in every input; ``layer``
    runs ``bn`` (the module or its composite oracle) on ``x``."""

    def loss(x, weight=None, bias=None):
        if bn.affine:
            bn.weight, bn.bias = weight, bias
        out = layer(bn, x)
        return (out * out * out).sum() * 0.1 + (out * x).sum()

    return loss


def run_module(bn, x):
    return bn(x)


MODES = [True, False]
MODE_IDS = ["train", "eval"]


class TestBatchNormDerivatives:
    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
    @pytest.mark.parametrize("train", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("name", sorted(BN_CASES))
    def test_gradient(self, name, train, affine):
        bn, shape = bn_module(name, affine, train)
        arrays = bn_arrays(shape, affine)
        for index in range(len(arrays)):
            check_gradient(bn_loss(bn, run_module), arrays, index=index, eps=1e-6)

    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
    @pytest.mark.parametrize("train", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("name", sorted(BN_CASES))
    def test_hvp(self, name, train, affine):
        bn, shape = bn_module(name, affine, train)
        arrays = bn_arrays(shape, affine)
        rng = np.random.default_rng(4)
        for index in range(len(arrays)):
            v = rng.standard_normal(arrays[index].shape)
            check_hvp(bn_loss(bn, run_module), arrays, v, index=index, atol=1e-5, rtol=1e-5)


def derivatives(fn, arrays, directions):
    """``fn``'s gradient, and the gradient of ``sum(grad * direction)``
    (one HVP row per input) — first and second order, raw route."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*leaves).backward(create_graph=True)
    grads = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.zero_grad()
    inner = None
    for grad, direction in zip(grads, directions):
        term = (grad * Tensor(direction)).sum()
        inner = term if inner is None else inner + term
    inner.backward()
    return [g.data.copy() for g in grads], [leaf.grad.data.copy() for leaf in leaves]


def assert_close(got, want, dtype):
    tol = 1e-4 if dtype == np.float32 else 1e-10
    for a, b in zip(got, want):
        scale = max(1.0, float(np.abs(b).max()))
        np.testing.assert_allclose(a, b, rtol=0, atol=tol * scale)


DTYPES = [np.float32, np.float64]


class TestCompositeOracle:
    """Against the composite-primitive chains: forward bitwise, first-
    and second-order derivatives within float tolerance."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("name", sorted(CONV_CASES))
    def test_conv(self, name, bias, dtype):
        arrays, kwargs = conv_arrays(name, bias)
        arrays = [a.astype(dtype) for a in arrays]
        with dtype_context(dtype):
            coarse = nn.conv2d(*(Tensor(a) for a in arrays), **kwargs).data
            oracle = composite_conv2d(*(Tensor(a) for a in arrays), **kwargs).data
            assert coarse.dtype == oracle.dtype
            assert coarse.tobytes() == oracle.tobytes()
            rng = np.random.default_rng(5)
            directions = [rng.standard_normal(a.shape).astype(dtype) for a in arrays]
            got = derivatives(conv_loss(nn.conv2d, kwargs), arrays, directions)
            want = derivatives(conv_loss(composite_conv2d, kwargs), arrays, directions)
        for order in range(2):
            assert_close(got[order], want[order], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
    @pytest.mark.parametrize("train", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("name", sorted(BN_CASES))
    def test_batch_norm(self, name, train, affine, dtype):
        with dtype_context(dtype):
            bn, shape = bn_module(name, affine, train, dtype)
            twin = copy.deepcopy(bn)
            arrays = [a.astype(dtype) for a in bn_arrays(shape, affine)]
            coarse = bn_loss(bn, run_module)
            oracle = bn_loss(twin, composite_batch_norm)
            x = Tensor(arrays[0])
            params = [Tensor(a) for a in arrays[1:]]
            if affine:
                bn.weight, bn.bias = params
                twin.weight, twin.bias = params
            out, want_out = bn(x).data, composite_batch_norm(twin, x).data
            assert out.dtype == want_out.dtype
            assert out.tobytes() == want_out.tobytes()
            for buf, want_buf in zip(bn._buffers.values(), twin._buffers.values()):
                assert buf.tobytes() == want_buf.tobytes()
            rng = np.random.default_rng(6)
            directions = [rng.standard_normal(a.shape).astype(dtype) for a in arrays]
            got = derivatives(coarse, arrays, directions)
            want = derivatives(oracle, arrays, directions)
        for order in range(2):
            assert_close(got[order], want[order], dtype)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("model_name", ["resnet8", "mobilenetv2", "vgg6_bn"])
    def test_model_forward_bitwise(self, model_name, dtype):
        """Published artifacts and served responses depend on these bits."""
        with dtype_context(dtype):
            model = create_model(model_name, num_classes=10, scale=0.5, seed=0)
            twin = to_composite(copy.deepcopy(model))
            x = np.random.default_rng(7).standard_normal((6, 3, 8, 8))
            for train in MODES:
                model.train(train)
                twin.train(train)
                out, want = model(Tensor(x)).data, twin(Tensor(x)).data
                assert out.dtype == want.dtype
                assert out.tobytes() == want.tobytes()
                for (name, buf), (_, want_buf) in zip(model.named_buffers(), twin.named_buffers()):
                    assert buf.tobytes() == want_buf.tobytes(), name
