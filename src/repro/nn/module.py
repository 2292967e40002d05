"""Module/Parameter system — the container layer of ``repro.nn``.

Mirrors the familiar PyTorch contract: attribute assignment registers
parameters, buffers and submodules; ``parameters()`` walks the tree;
``train()``/``eval()`` toggle mode (:func:`eval_mode` for a block that
puts the caller's mode back); ``state_dict`` round-trips weights.
"""

from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from ..tensor import Tensor, default_dtype


def _as_buffer(array, dtype=None):
    """Coerce buffer state to the engine dtype (or an existing buffer's)."""
    return np.asarray(array, dtype=default_dtype() if dtype is None else dtype)


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf of a module tree."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def __repr__(self):
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all neural-network building blocks."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        """Register non-trainable state (e.g. BatchNorm running stats).

        Buffers live in the engine dtype of the precision policy, like
        parameters.
        """
        self._buffers[name] = _as_buffer(array)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name, array):
        """Replace a registered buffer's value."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = _as_buffer(array, dtype=self._buffers[name].dtype)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix=""):
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        for _name, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix=""):
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix=""):
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self):
        for _name, module in self.named_modules():
            yield module

    def num_parameters(self):
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode & grads
    # ------------------------------------------------------------------
    def train(self, mode=True):
        object.__setattr__(self, "training", bool(mode))
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return a flat ``name -> numpy array`` copy of all state."""
        state = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"{name}"] = buf.copy()
        return state

    def load_state_dict(self, state):
        """Load parameters and buffers from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = []
        for name, value in state.items():
            if name in params:
                if params[name].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].shape} vs {value.shape}"
                    )
                params[name].data = value.astype(params[name].data.dtype)
            else:
                if not self._load_buffer(name, value):
                    missing.append(name)
        if missing:
            raise KeyError(f"state entries not found in module: {missing}")

    def _load_buffer(self, dotted_name, value):
        parts = dotted_name.split(".")
        target = self
        for part in parts[:-1]:
            if part not in target._modules:
                return False
            target = target._modules[part]
        leaf = parts[-1]
        if leaf in target._buffers:
            target.set_buffer(leaf, value)
            return True
        return False

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self):
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


@contextmanager
def eval_mode(model):
    """Run the block with ``model`` in eval mode, then put back every
    submodule's own ``training`` flag, error or not."""
    modes = [(module, module.training) for module in model.modules()]
    model.eval()
    try:
        yield
    finally:
        for module, training in modes:
            object.__setattr__(module, "training", training)


class Sequential(Module):
    """Chain modules; the output of each feeds the next."""

    def __init__(self, *modules):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)

    def __getitem__(self, index):
        return list(self._modules.values())[index]

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x


class Identity(Module):
    """Pass-through module (handy for optional branches)."""

    def forward(self, x):
        return x
