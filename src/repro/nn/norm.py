"""Batch normalization as one autograd node, with closed-form adjoints.

A BatchNorm layer — ``weight * (x - mean) * (var + eps) ** -0.5 + bias``
with the batch's statistics in training mode and the running estimates
in eval mode — is one :class:`BatchNormOp` node.  Its backward rule
returns nodes of two adjoint ops and a ``sum``:

* :class:`BatchNormInputGrad` — the input gradient in closed form:
  ``weight * rstd * (g - mean(g) - x_hat * mean(g * x_hat))`` with batch
  statistics (they depend on ``x``), ``weight * rstd * g`` with running
  ones;
* :class:`BatchNormScaleGrad` — the weight gradient, ``sum(g * x_hat)``
  per channel;
* the bias gradient, ``sum(g)`` per channel.

BatchNormScaleGrad's adjoints are a BatchNormOp and a
BatchNormInputGrad; BatchNormInputGrad's are closed-form terms in
``x_hat`` and ``rstd``, which a graph-valued backward rebuilds from
``x`` so that a further derivative sees their dependence on it.  Second
and third derivatives therefore flow through BN exactly — HERO's
Hessian penalty sees the full curvature contribution of normalization
layers.

Running statistics are plain numpy buffers updated outside the graph,
with PyTorch's convention: biased variance normalizes the batch,
unbiased variance accumulates into the running estimate.
"""

import numpy as np

from ..tensor import Tensor, default_dtype
from ..tensor.function import Function, as_array, call
from .module import Module, Parameter


def _normalize(x, axes, eps, inv_count, running=None):
    """``(mean, var, x_hat, rstd)`` of ``x``, a Tensor or an ndarray, with
    the batch's statistics or with ``running = (mean, var)``."""
    if running is None:
        mean = x.sum(axis=axes, keepdims=True) * inv_count
        centered = x - mean
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    else:
        mean, var = running
        centered = x - mean
    rstd = (var + as_array(eps)) ** -0.5
    return mean, var, centered * rstd, rstd


class Normalization:
    """The normalization of one BatchNorm input, shared by its ops.

    Holds ``x_hat`` and ``rstd = (var + eps) ** -0.5`` of the array
    ``x``, computed once per layer call with the batch's statistics
    (``running=None``) or with ``running = (mean, var)``.
    """

    __slots__ = ("axes", "shape", "inv_count", "eps", "batch", "mean", "var", "rstd", "x_hat")

    def __init__(self, x, axes, eps, running=None):
        self.axes = axes
        self.inv_count = 1.0 / (x.size // x.shape[1])
        self.eps = eps
        self.batch = running is None
        self.mean, self.var, self.x_hat, self.rstd = _normalize(
            x, axes, eps, as_array(self.inv_count), running
        )
        self.shape = self.mean.shape

    def statistics(self, x):
        """``(x_hat, rstd)`` typed like ``x`` (the layer's input).

        An ndarray gets the cached arrays.  A Tensor gets graph values
        rebuilt from ``x`` by the same float operations, so that a
        further derivative sees their dependence on ``x`` through the
        batch statistics (running ones are constants).
        """
        if not isinstance(x, Tensor):
            return self.x_hat, self.rstd
        running = None
        if not self.batch:
            running = tuple(Tensor(a, dtype=a.dtype) for a in (self.mean, self.var))
        _mean, _var, x_hat, rstd = _normalize(
            x, self.axes, self.eps, as_array(self.inv_count), running
        )
        return x_hat, rstd

    def channel_sum(self, a, b=None):
        """Per-channel sum of the array ``a`` (times ``b``), keepdims shape.

        One ``einsum`` pass, about three times faster than ``sum`` over
        the normalized axes; the adjoints' forwards use it, while the
        forward statistics keep the composite layer's ``sum``, whose
        bits the outputs inherit.
        """
        subscripts = "nchw"[: a.ndim]
        if b is None:
            out = np.einsum(f"{subscripts}->c", a)
        else:
            out = np.einsum(f"{subscripts},{subscripts}->c", a, b)
        return out.reshape(self.shape)


def _center(v, x_hat, axes, inv_count):
    """``(v - mean(v) - x_hat * mean(v * x_hat), mean(v * x_hat))`` per
    channel: the projection batch statistics put on an input gradient,
    and its second mean (Tensor or ndarray)."""
    mean_v = v.sum(axis=axes, keepdims=True) * inv_count
    mean_vx = (v * x_hat).sum(axis=axes, keepdims=True) * inv_count
    return v - mean_v - x_hat * mean_vx, mean_vx


class BatchNormOp(Function):
    """``weight * x_hat + bias`` for the :class:`Normalization` ``norm`` of ``x``."""

    def forward(self, x, weight=None, bias=None, *, norm):
        self.norm = norm
        out = norm.x_hat
        if weight is not None:
            out = out * weight.reshape(norm.shape)
        if bias is not None:
            out = out + bias.reshape(norm.shape)
        return out

    def backward(self, grad_out, x, weight=None, bias=None):
        norm = self.norm
        needs = [t.requires_grad for t in self.inputs]
        params = () if weight is None else (weight,)
        grads = [call(BatchNormInputGrad, grad_out, x, *params, norm=norm) if needs[0] else None]
        if weight is not None:
            grads.append(call(BatchNormScaleGrad, grad_out, x, norm=norm) if needs[1] else None)
        if bias is not None:
            grads.append(grad_out.sum(axis=norm.axes) if needs[2] else None)
        return tuple(grads)


class BatchNormInputGrad(Function):
    """Input gradient of BatchNorm for the output gradient ``grad``."""

    def forward(self, grad, x, weight=None, *, norm):
        self.norm = norm
        scale = norm.rstd if weight is None else norm.rstd * weight.reshape(norm.shape)
        if norm.batch:
            inv_count = as_array(norm.inv_count)
            mean_g = norm.channel_sum(grad) * inv_count
            mean_gx = norm.channel_sum(grad, norm.x_hat) * inv_count
            grad = grad - mean_g - norm.x_hat * mean_gx
        return grad * scale

    def backward(self, grad_out, grad, x, weight=None):
        norm = self.norm
        needs = [t.requires_grad for t in self.inputs]
        x_hat, rstd = norm.statistics(x)
        scaled = grad_out if weight is None else grad_out * weight.reshape(norm.shape)
        if not norm.batch:
            # weight * rstd * grad: bilinear in (grad, weight), constant in x.
            grads = [scaled * rstd if needs[0] else None, None]
            if weight is not None:
                grads.append((grad_out * grad * rstd).sum(axis=norm.axes) if needs[2] else None)
            return tuple(grads)
        inv_count = as_array(norm.inv_count)
        centered_grad, mean_gx = _center(grad, x_hat, norm.axes, inv_count)
        centered_out, mean_ox = _center(scaled, x_hat, norm.axes, inv_count)
        # sum(grad_out * centered_grad) per channel: the weight gradient's
        # reduction, and (times weight) a term of the input gradient.
        dot = (grad_out * centered_grad).sum(axis=norm.axes, keepdims=True)
        grads = [centered_out * rstd if needs[0] else None, None]
        if needs[1]:
            # d/dx of sum(scaled * rstd * centered_grad), both factors
            # depending on x through the batch statistics.
            mean_oc = dot * inv_count if weight is None else dot * (weight.reshape(norm.shape) * inv_count)
            terms = x_hat * mean_oc + centered_out * mean_gx + centered_grad * mean_ox
            grads[1] = terms * (rstd * rstd * as_array(-1.0))
        if weight is not None:
            grads.append((dot * rstd).reshape(weight.shape) if needs[2] else None)
        return tuple(grads)


class BatchNormScaleGrad(Function):
    """Weight gradient of BatchNorm: ``sum(grad * x_hat)`` per channel."""

    def forward(self, grad, x, *, norm):
        self.norm = norm
        return norm.channel_sum(grad, norm.x_hat).reshape(-1)

    def backward(self, grad_out, grad, x):
        g_t, x_t = self.inputs
        return (
            call(BatchNormOp, x, grad_out, norm=self.norm) if g_t.requires_grad else None,
            call(BatchNormInputGrad, grad, x, grad_out, norm=self.norm) if x_t.requires_grad else None,
        )


class _BatchNorm(Module):
    def __init__(self, num_features, eps=1e-5, momentum=0.1, affine=True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        dtype = default_dtype()
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=dtype))
            self.bias = Parameter(np.zeros(num_features, dtype=dtype))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=dtype))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=dtype))

    def _axes(self, ndim):
        raise NotImplementedError

    def _param_shape(self, ndim):
        raise NotImplementedError

    def forward(self, x):
        axes = self._axes(x.ndim)
        if self.training:
            norm = Normalization(x.data, axes, self.eps)
            count = x.size // self.num_features
            if count > 1:
                unbiased = norm.var * (count / (count - 1))
            else:
                unbiased = norm.var
            m = self.momentum
            self.set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * norm.mean.reshape(-1),
            )
            self.set_buffer(
                "running_var",
                (1 - m) * self.running_var + m * unbiased.reshape(-1),
            )
            self.set_buffer("num_batches_tracked", self.num_batches_tracked + 1)
        else:
            shape = self._param_shape(x.ndim)
            running = (self.running_mean.reshape(shape), self.running_var.reshape(shape))
            norm = Normalization(x.data, axes, self.eps, running)
        params = (self.weight, self.bias) if self.affine else ()
        return BatchNormOp.apply(x, *params, norm=norm)

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.num_features}, eps={self.eps}, "
            f"momentum={self.momentum}, affine={self.affine})"
        )


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (N, C) or (N, C, L) inputs."""

    def _axes(self, ndim):
        return (0,) if ndim == 2 else (0, 2)

    def _param_shape(self, ndim):
        return (1, self.num_features) if ndim == 2 else (1, self.num_features, 1)

    def forward(self, x):
        if x.ndim not in (2, 3):
            raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got {x.ndim}-D")
        return super().forward(x)


class BatchNorm2d(_BatchNorm):
    """Batch normalization over NCHW inputs."""

    def _axes(self, ndim):
        return (0, 2, 3)

    def _param_shape(self, ndim):
        return (1, self.num_features, 1, 1)

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got {x.ndim}-D")
        return super().forward(x)
