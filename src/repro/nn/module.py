"""Module base class and the :class:`Sequential` container.

The framework is layer-based rather than tape-based: every module knows how
to run three passes over a cached forward activation,

``forward(x)``
    compute outputs and cache whatever the backward passes need;
``backward(grad_out)``
    standard reverse-mode gradient pass (Eq. 12/13 of the paper) which
    accumulates ``Parameter.grad`` and returns the gradient w.r.t. input;
``backward_second(curv_out)``
    the paper's single-pass diagonal second-derivative recursion
    (Eq. 8/10), which accumulates ``Parameter.curvature`` and returns the
    curvature w.r.t. input.

``backward_second`` must be called after ``backward`` for the same forward
pass: activations with non-zero second derivative (tanh, sigmoid) need the
first-order gradient term of Eq. 9, which ``backward`` caches for them.

No pass writes into its argument.  A forward pass computes output values
only and caches references to what its backward passes need (often its
input or its output, which is the next layer's input); the backward
passes derive masks and routing from that cache when they run.  A layer
that wrote into its input would therefore corrupt the backward of the
layer before it.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Module", "Sequential"]

_BUFFER_PREFIX = "buffer::"


class Module:
    """Base class for all layers, blocks, and models."""

    def __init__(self):
        self._parameters = OrderedDict()
        self._modules = OrderedDict()
        self._buffer_names = []
        self.training = True

    # ---------------------------------------------------------------- setup

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())
            self._parameters[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name, module):
        """Register a child module under ``name`` (for list containers)."""
        if not isinstance(module, Module):
            raise TypeError(f"expected Module, got {type(module)!r}")
        self._modules[str(name)] = module
        return module

    def register_buffer_name(self, name):
        """Declare an attribute as persistent state (saved in state_dict).

        Buffers are non-trainable state a model needs at inference time:
        batch-norm running statistics, activation-quantizer ranges.  The
        attribute must already exist on the module.
        """
        if not hasattr(self, name):
            raise AttributeError(f"no attribute {name!r} to register")
        self._buffer_names.append(str(name))

    def named_buffers(self, prefix=""):
        """Yield ``(qualified_name, value)`` for all registered buffers."""
        for name in self._buffer_names:
            yield (f"{prefix}{name}", getattr(self, name))
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # ------------------------------------------------------------ traversal

    def named_parameters(self, prefix=""):
        """Yield ``(qualified_name, Parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self):
        """Yield all parameters, depth first."""
        for _, param in self.named_parameters():
            yield param

    def modules(self):
        """Yield this module and all descendants, depth first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix=""):
        """Yield ``(qualified_name, module)`` pairs, depth first.

        The root module itself is yielded with its prefix (empty for the
        top-level call), matching the naming used by
        :meth:`named_parameters`.
        """
        yield (prefix.rstrip("."), self)
        for name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self):
        """Total scalar parameter count."""
        return int(sum(p.size for p in self.parameters()))

    # ----------------------------------------------------------------- mode

    def train(self, mode=True):
        """Set training mode recursively; returns self."""
        for module in self.modules():
            module.training = bool(mode)
        return self

    def eval(self):
        """Set inference mode recursively; returns self."""
        return self.train(False)

    # ------------------------------------------------------------- buffers

    def zero_grad(self):
        """Zero all gradient accumulators."""
        for param in self.parameters():
            param.zero_grad()

    def zero_curvature(self):
        """Zero all curvature accumulators."""
        for param in self.parameters():
            param.zero_curvature()

    def state_dict(self, prefix=""):
        """Return ``name -> array copy`` of all parameters and buffers."""
        state = {name: p.data.copy() for name, p in self.named_parameters(prefix)}
        for name, value in self.named_buffers(prefix):
            state[f"{_BUFFER_PREFIX}{name}"] = np.asarray(value).copy()
        return state

    def load_state_dict(self, state):
        """Load parameters and buffers saved by :meth:`state_dict`."""
        params = {k: v for k, v in state.items() if not k.startswith(_BUFFER_PREFIX)}
        buffers = {
            k[len(_BUFFER_PREFIX):]: v
            for k, v in state.items()
            if k.startswith(_BUFFER_PREFIX)
        }
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(params))
        unexpected = sorted(set(params) - set(own))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            param.copy_(np.asarray(params[name], dtype=param.dtype))
        own_buffers = dict(self.named_modules())
        for qual_name, value in buffers.items():
            mod_path, _, attr = qual_name.rpartition(".")
            module = own_buffers.get(mod_path)
            if module is None or attr not in module._buffer_names:
                raise KeyError(f"unexpected buffer {qual_name!r}")
            current = getattr(module, attr)
            if np.isscalar(current) or np.asarray(current).ndim == 0:
                setattr(module, attr, float(value))
            else:
                setattr(module, attr, np.asarray(value, dtype=np.asarray(current).dtype))

    # ---------------------------------------------------------------- passes

    def forward(self, x):
        """Compute outputs from inputs; must be overridden."""
        raise NotImplementedError

    def backward(self, grad_out):
        """Backpropagate gradients; must be overridden by layers."""
        raise NotImplementedError

    def backward_second(self, curv_out):
        """Backpropagate diagonal second derivatives (paper Sec. 3.3)."""
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(x)

    def __repr__(self):
        child_repr = ", ".join(
            f"{name}={type(mod).__name__}" for name, mod in self._modules.items()
        )
        return f"{type(self).__name__}({child_repr})"


class Sequential(Module):
    """Chain of modules applied in order; passes reverse through the chain."""

    def __init__(self, *layers):
        super().__init__()
        self._layers = []
        for index, layer in enumerate(layers):
            self.register_module(str(index), layer)
            self._layers.append(layer)

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, index):
        return self._layers[index]

    def __iter__(self):
        return iter(self._layers)

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x

    def backward(self, grad_out):
        for layer in reversed(self._layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_second(self, curv_out):
        for layer in reversed(self._layers):
            curv_out = layer.backward_second(curv_out)
        return curv_out
