"""``repro.tensor`` — a numpy-backed autograd engine with double backprop.

This package is the foundational substrate of the HERO reproduction:
the paper's update rule (Eq. 16-17) differentiates through a gradient,
which requires ``backward(create_graph=True)`` support.  Each op has
one backward rule: run on Tensors it records a graph, so derivatives of
any order are available (and are validated against finite differences
in the tests); run on ndarrays it is the first-order ``backward()``.

Public API
----------
``Tensor``
    The array type; construction helpers ``zeros/ones/full/eye/randn``.
``no_grad`` / ``enable_grad`` / ``is_grad_enabled``
    Grad-mode control.
``default_dtype`` / ``set_default_dtype`` / ``dtype_context``
    The precision policy: the engine allocates in float32 by default
    (``REPRO_DTYPE`` overrides), float64 on explicit request
    (``VERIFY_DTYPE`` for verification-grade numerics).
``functional``-style helpers re-exported at package level:
``mean, var, std, logsumexp, softmax, log_softmax, where, concat,
stack, dot, flatten_params``.
"""

from ._gradmode import no_grad, enable_grad, is_grad_enabled, set_grad_enabled
from .policy import (
    DTYPE_ENV,
    VERIFY_DTYPE,
    default_dtype,
    dtype_context,
    dtype_from_env,
    dtype_name,
    resolve_dtype,
    set_default_dtype,
)
from .tensor import Tensor
from .function import Function
from .functional import (
    mean,
    var,
    std,
    logsumexp,
    softmax,
    log_softmax,
    where,
    concat,
    stack,
    dot,
    flatten_params,
)
from .grad_check import (
    check_gradient,
    check_hvp,
    numerical_gradient,
    analytic_gradient,
    numerical_hvp,
    analytic_hvp,
)

__all__ = [
    "Tensor",
    "Function",
    "DTYPE_ENV",
    "VERIFY_DTYPE",
    "default_dtype",
    "dtype_context",
    "dtype_from_env",
    "dtype_name",
    "resolve_dtype",
    "set_default_dtype",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "mean",
    "var",
    "std",
    "logsumexp",
    "softmax",
    "log_softmax",
    "where",
    "concat",
    "stack",
    "dot",
    "flatten_params",
    "check_gradient",
    "check_hvp",
    "numerical_gradient",
    "analytic_gradient",
    "numerical_hvp",
    "analytic_hvp",
]
