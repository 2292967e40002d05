"""The :class:`Tensor` — a numpy-backed array with reverse-mode autograd.

The design follows the PyTorch model closely:

* tensors created by operations keep a pointer (``_ctx``) to the
  :class:`~repro.tensor.function.Function` that produced them;
* ``backward()`` runs a reverse topological traversal accumulating
  vector-Jacobian products;
* ``backward(create_graph=True)`` builds the backward pass itself as a
  differentiable graph, enabling Hessian-vector products and the
  double-backpropagation HERO requires.

Both are one traversal over two input types.  First-order
``backward()`` (``create_graph=False``) hands each op's one ``backward``
rule the inputs' numpy arrays instead of the Tensors — no Tensor
wrapping, no graph bookkeeping — and sums gradients as arrays.  Both
routes run the same rules and accumulate with ``existing + new``, so
they perform the same float operations in the same order.
"""

from contextlib import nullcontext
from operator import attrgetter

import numpy as np

from ._gradmode import enable_grad
from . import function
from .function import as_array
from .policy import resolve_dtype


class Tensor:
    """A multi-dimensional array supporting reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray``.  Stored in the
        engine dtype set by the precision policy
        (:mod:`repro.tensor.policy`; float32 unless overridden) — pass
        ``dtype`` to pin a tensor to another precision, e.g. float64
        for verification-grade numerics.
    requires_grad:
        When ``True`` the tensor is a graph leaf that accumulates into
        ``.grad`` during ``backward()``.
    dtype:
        Optional explicit dtype; ``None`` follows the policy.
    """

    __slots__ = ("data", "requires_grad", "grad", "_ctx")

    # An ndarray or numpy scalar on the left of a Tensor defers to the
    # Tensor's reflected operators instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._ctx = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def as_tensor(value):
        """Return ``value`` if it is a Tensor, else wrap it (no grad)."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @staticmethod
    def zeros(*shape, requires_grad=False, dtype=None):
        dtype = resolve_dtype(dtype)
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)

    @staticmethod
    def ones(*shape, requires_grad=False, dtype=None):
        dtype = resolve_dtype(dtype)
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)

    @staticmethod
    def full(shape, fill_value, requires_grad=False, dtype=None):
        dtype = resolve_dtype(dtype)
        return Tensor(
            np.full(shape, fill_value, dtype=dtype), requires_grad=requires_grad, dtype=dtype
        )

    @staticmethod
    def eye(n, requires_grad=False, dtype=None):
        dtype = resolve_dtype(dtype)
        return Tensor(np.eye(n, dtype=dtype), requires_grad=requires_grad, dtype=dtype)

    @staticmethod
    def randn(*shape, rng=None, requires_grad=False, dtype=None):
        rng = rng if rng is not None else np.random.default_rng()
        # Draw in float64 then cast: the sample stream is identical for
        # every engine dtype, so float32/float64 runs stay comparable.
        dtype = resolve_dtype(dtype)
        data = rng.standard_normal(shape).astype(dtype, copy=False)
        return Tensor(data, requires_grad=requires_grad, dtype=dtype)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self):
        return self.transpose()

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array_repr(self.data)}{grad_note})"

    def numpy(self):
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def item(self):
        """Return the scalar value of a one-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    def _raise_item(self):
        raise ValueError(f"item() called on tensor with {self.data.size} elements")

    # ------------------------------------------------------------------
    # Graph manipulation
    # ------------------------------------------------------------------
    def detach(self):
        """Return a new tensor sharing data but cut from the graph."""
        out = Tensor(self.data, requires_grad=False, dtype=self.data.dtype)
        return out

    def clone(self):
        """Return a differentiable copy of this tensor."""
        return ops_shape.Reshape.apply(self, shape=self.shape)

    def copy_data(self):
        """Return a detached tensor with a *copied* numpy buffer."""
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad=None, create_graph=False):
        """Accumulate gradients of this tensor w.r.t. graph leaves.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` for scalar tensors.
        create_graph:
            When ``True`` the backward computation is itself recorded,
            so the resulting ``.grad`` tensors are differentiable (used
            for Hessian-vector products and HERO's Eq. 16/17).  When
            ``False`` each op's rule runs on its inputs' ndarrays and the
            leaves receive detached gradients.

        A first-order leaf gradient owns its array: it shares memory
        with no other leaf's gradient and not with ``grad``, so editing
        ``.grad.data`` in place touches that leaf alone.  The graph
        route stores the gradient Tensor itself, which leaves may share
        with each other and with ``grad``: graph Tensors are never
        mutated in place, and a copy would add a node to every step.
        """
        if not self.requires_grad and self._ctx is None:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = Tensor(np.ones_like(self.data), dtype=self.data.dtype)
        else:
            grad = Tensor.as_tensor(grad)

        topo = self._topological_order()
        grads = {id(self): grad if create_graph else grad.data}

        with enable_grad() if create_graph else nullcontext():
            for node in topo:
                node_grad = grads.pop(id(node), None)
                if node_grad is None:
                    continue
                ctx = node._ctx
                if ctx is None:
                    # Leaf: accumulate into .grad.  Graph-valued grads
                    # keep their history (HVPs and HERO's double
                    # backprop differentiate through it); raw ones are
                    # summed as arrays into a fresh detached Tensor.
                    if create_graph:
                        node.grad = node_grad if node.grad is None else node.grad + node_grad
                    else:
                        # Copy the first gradient (in its own layout): a
                        # rule may hand one array to several parents, and
                        # the seed is the caller's.
                        node_grad = (
                            np.array(node_grad) if node.grad is None else node.grad.data + node_grad
                        )
                        node.grad = Tensor(node_grad, dtype=node_grad.dtype)
                    continue
                inputs = ctx.inputs if create_graph else map(_data, ctx.inputs)
                input_grads = ctx.backward(node_grad, *inputs)
                if len(input_grads) != len(ctx.inputs):
                    raise RuntimeError(
                        f"{type(ctx).__name__}.backward returned "
                        f"{len(input_grads)} grads for {len(ctx.inputs)} inputs"
                    )
                for parent, parent_grad in zip(ctx.inputs, input_grads):
                    if parent_grad is None:
                        continue
                    if not (parent.requires_grad or parent._ctx is not None):
                        continue
                    existing = grads.get(id(parent))
                    grads[id(parent)] = (
                        parent_grad if existing is None else existing + parent_grad
                    )

    def _topological_order(self):
        """Return graph nodes in reverse-dependency order (self first)."""
        order = []
        visited = set()
        # Iterative DFS to avoid recursion limits on deep graphs
        # (double backprop through a CNN easily exceeds 1000 frames).
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.inputs:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Operator overloads (implementations live in the ops_* modules,
    # statically bound at module bottom — a per-call `from . import`
    # here costs a measurable slice of every training step).
    # ------------------------------------------------------------------
    def __add__(self, other):
        return ops_basic.Add.apply(self, other)

    __radd__ = __add__

    def __neg__(self):
        return ops_basic.Neg.apply(self)

    def __sub__(self, other):
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other):
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other):
        return ops_basic.Mul.apply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.as_tensor(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other):
        return Tensor.as_tensor(other) * self.pow(-1.0)

    def __matmul__(self, other):
        return ops_basic.MatMul.apply(self, other)

    def __pow__(self, exponent):
        return self.pow(exponent)

    def pow(self, exponent):
        return ops_basic.Pow.apply(self, exponent=float(exponent))

    # Comparisons produce detached boolean masks — useful for `where`.
    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self):
        return ops_elementwise.Exp.apply(self)

    def log(self):
        return ops_elementwise.Log.apply(self)

    def sqrt(self):
        return self.pow(0.5)

    def abs(self):
        return ops_elementwise.Abs.apply(self)

    def tanh(self):
        return ops_elementwise.Tanh.apply(self)

    def sigmoid(self):
        return ops_elementwise.Sigmoid.apply(self)

    def relu(self):
        return ops_elementwise.Relu.apply(self)

    def clip(self, low, high):
        return ops_elementwise.Clip.apply(self, low=low, high=high)

    def maximum(self, other):
        return ops_elementwise.Maximum.apply(self, other)

    def minimum(self, other):
        return ops_elementwise.Minimum.apply(self, other)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        return ops_reduce.Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return functional.mean(self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims=False):
        return functional.var(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return ops_reduce.Max.apply(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims=False):
        return -((-self).max(axis=axis, keepdims=keepdims))

    def norm(self, eps=0.0):
        """Frobenius / l2 norm of the full tensor as a scalar tensor."""
        sq = (self * self).sum()
        if eps:
            sq = sq + eps
        return sq.sqrt()

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops_shape.Reshape.apply(self, shape=shape)

    def flatten(self, start_dim=0):
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, axes=None):
        return ops_shape.Transpose.apply(self, axes=axes)

    def swapaxes(self, a, b):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def expand_to(self, shape):
        return ops_shape.Expand.apply(self, shape=tuple(shape))

    def pad(self, pad_width, value=0.0):
        return ops_shape.Pad.apply(self, pad_width=tuple(map(tuple, pad_width)), value=value)

    def __getitem__(self, key):
        return ops_shape.Slice.apply(self, key=key)

    def take_flat(self, flat_indices):
        """Differentiable gather from the flattened tensor.

        ``out[i...] = self.ravel()[flat_indices[i...]]`` — the backbone of
        pooling window extraction and label lookup.
        """
        return ops_shape.TakeFlat.apply(self, indices=np.asarray(flat_indices))


def _raw(value):
    return value.data if isinstance(value, Tensor) else value


_data = attrgetter("data")


# Give Function.apply a direct reference to Tensor (breaking the
# module cycle without per-call imports), then bind the op modules.
# These imports sit at the bottom on purpose: the ops modules import
# Tensor from here, which works because the class is defined by now.
function._Tensor = Tensor

from . import ops_basic  # noqa: E402
from . import ops_elementwise  # noqa: E402
from . import ops_reduce  # noqa: E402
from . import ops_shape  # noqa: E402
from . import functional  # noqa: E402
