"""Gradient-mode switch for the autograd engine (thread-local).

The engine builds a computation graph only while grad mode is enabled
(the default).  ``no_grad`` disables graph construction (evaluation
loops, optimizer updates); ``enable_grad`` turns it back on, which
``Tensor.backward(create_graph=True)`` does for its traversal.

The mode is **per thread**: concurrent inference threads (the serving
layer's workers) each toggle their own flag, so interleaved
``no_grad`` blocks cannot restore another thread's stale "previous"
value and strand the whole process in no-grad mode.  Every new thread
starts with grad enabled.
"""

import threading
from contextlib import contextmanager


class _GradMode(threading.local):
    def __init__(self):
        self.enabled = True


_MODE = _GradMode()


def is_grad_enabled():
    """Return ``True`` when operations record the autograd graph."""
    return _MODE.enabled


def set_grad_enabled(mode):
    """Set this thread's grad mode to ``mode``; return the previous mode."""
    previous = _MODE.enabled
    _MODE.enabled = bool(mode)
    return previous


@contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Example
    -------
    >>> from repro.tensor import Tensor, no_grad
    >>> x = Tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2.0
    >>> y.requires_grad
    False
    """
    previous = set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(previous)


@contextmanager
def enable_grad():
    """Context manager that re-enables graph construction inside ``no_grad``."""
    previous = set_grad_enabled(True)
    try:
        yield
    finally:
        set_grad_enabled(previous)
