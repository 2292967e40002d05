"""Hessian-vector products for the loss of a model.

Two implementations are provided and cross-checked in the tests:

* :func:`hvp_exact` — double backpropagation (``create_graph=True``),
  mathematically exact;
* :func:`hvp_finite_diff` — central difference of gradients, the
  approximation HERO's training objective itself is built on (Eq. 14).

Both operate per-parameter-tensor, on a fixed batch, with BatchNorm
buffers snapshotted and restored so measurement has no side effects.
"""

import numpy as np

from ..tensor import Tensor


def model_params(model):
    """List the model's trainable parameters (fixed order)."""
    return list(model.parameters())


def snapshot_buffers(model):
    """Copy all registered buffers (e.g. BN running stats)."""
    return {name: buf.copy() for name, buf in model.named_buffers()}


def restore_buffers(model, snapshot):
    """Restore buffers saved by :func:`snapshot_buffers`."""
    for name, value in snapshot.items():
        owner = model
        parts = name.split(".")
        for part in parts[:-1]:
            owner = owner._modules[part]
        owner.set_buffer(parts[-1], value)


def batch_gradients(model, loss_fn, x, y, create_graph=False):
    """Gradients of the batch loss w.r.t. all parameters.

    Returns ``(loss_value, grads)`` where grads are numpy copies when
    ``create_graph`` is false, and graph tensors otherwise.  Parameter
    ``.grad`` slots are left clean.
    """
    params = model_params(model)
    for p in params:
        p.grad = None
    loss = loss_fn(model(Tensor(x)), y)
    loss.backward(create_graph=create_graph)
    grads = []
    for p in params:
        if p.grad is None:
            grads.append(
                Tensor(np.zeros_like(p.data)) if create_graph else np.zeros_like(p.data)
            )
        else:
            grads.append(p.grad if create_graph else p.grad.data.copy())
        p.grad = None
    return float(loss.data), grads


class HVPOperator:
    """Exact Hessian-vector products that share one forward graph.

    Construction runs the forward pass and the first (differentiable)
    backward pass once; every :meth:`matvec` afterwards costs only the
    double-backprop sweep through the retained gradient graph.  Probing
    ``k`` directions therefore does ``1`` forward + ``1 + k`` backward
    passes instead of ``k`` of each — the dominant saving for dense
    Hessian assembly and Lanczos/Hutchinson style estimators.

    The graph holds the forward activations captured at construction
    time, so results correspond to the weights as they were then; BN
    buffers are snapshotted around the forward and restored immediately,
    leaving the model untouched.  Do not mutate parameter data between
    matvecs.
    """

    def __init__(self, model, loss_fn, x, y):
        self.params = model_params(model)
        buffers = snapshot_buffers(model)
        try:
            self.loss, self._grads = batch_gradients(
                model, loss_fn, x, y, create_graph=True
            )
        finally:
            restore_buffers(model, buffers)

    def matvec(self, vectors):
        """Exact ``H v`` for one probe (list of per-parameter arrays)."""
        params = self.params
        if len(vectors) != len(params):
            raise ValueError("vectors must match the number of parameters")
        for p in params:
            p.grad = None
        inner = None
        for grad, vec in zip(self._grads, vectors):
            term = (grad * Tensor(np.asarray(vec))).sum()
            inner = term if inner is None else inner + term
        inner.backward()
        result = []
        for p in params:
            result.append(np.zeros_like(p.data) if p.grad is None else p.grad.data.copy())
            p.grad = None
        return result

    def matvec_many(self, probes):
        """``[H v for v in probes]`` against the shared graph."""
        return [self.matvec(vectors) for vectors in probes]


def hvp_exact(model, loss_fn, x, y, vectors):
    """Exact ``H v`` via double backprop.

    ``vectors`` is a list of numpy arrays matching the parameter
    shapes; the result has the same structure.  For several probes at
    the same weights/batch, build an :class:`HVPOperator` once instead —
    identical results, one shared forward graph.
    """
    return HVPOperator(model, loss_fn, x, y).matvec(vectors)


def hvp_finite_diff(model, loss_fn, x, y, vectors, eps=1e-3):
    """Central-difference ``H v ~ (g(W + eps v) - g(W - eps v)) / 2 eps``.

    ``eps`` is scaled by the vector norm so the probe stays well inside
    the quadratic regime regardless of ``v``'s magnitude.
    """
    params = model_params(model)
    if len(vectors) != len(params):
        raise ValueError("vectors must match the number of parameters")
    norm = np.sqrt(sum(float(np.sum(np.asarray(v) ** 2)) for v in vectors))
    if norm == 0:
        return [np.zeros_like(p.data) for p in params]
    step = eps / norm
    buffers = snapshot_buffers(model)
    try:
        for p, v in zip(params, vectors):
            p.data = p.data + step * np.asarray(v)
        _, grads_up = batch_gradients(model, loss_fn, x, y)
        for p, v in zip(params, vectors):
            p.data = p.data - 2.0 * step * np.asarray(v)
        _, grads_down = batch_gradients(model, loss_fn, x, y)
        for p, v in zip(params, vectors):
            p.data = p.data + step * np.asarray(v)
    finally:
        restore_buffers(model, buffers)
    return [(gu - gd) / (2.0 * step) for gu, gd in zip(grads_up, grads_down)]
