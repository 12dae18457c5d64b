"""Module base class and the :class:`Sequential` container.

The framework is layer-based rather than tape-based: every module knows how
to run three passes over a cached forward activation,

``forward(x)``
    compute outputs and cache whatever the backward passes need;
``backward(grad_out, input_grad=True)``
    standard reverse-mode gradient pass (Eq. 12/13 of the paper) which
    accumulates ``Parameter.grad`` and returns the gradient w.r.t. input;
``backward_second(curv_out, input_grad=True)``
    the paper's single-pass diagonal second-derivative recursion
    (Eq. 8/10), which accumulates ``Parameter.curvature`` and returns the
    curvature w.r.t. input.

``backward_second`` must be called after ``backward`` for the same forward
pass: activations with non-zero second derivative (tanh, sigmoid) need the
first-order gradient term of Eq. 9, which ``backward`` caches for them.
``input_grad=False`` tells a pass that its caller discards the input
derivative: a module that owns parameters then skips computing it and
returns None.  A :class:`Sequential` hands the flag to its first module
only, since every later module's input derivative feeds the one before
it; a module without parameters returns the derivative anyway, as it is
the whole of its pass.

No pass writes into its argument.  A forward pass computes output values
only and caches references to what its backward passes need (often its
input or its output, which is the next layer's input); the backward
passes derive masks and routing from that cache when they run.  A layer
that wrote into its input would therefore corrupt the backward of the
layer before it.

A cache holds only what a backward pass reads, and only while one will
read it.  Forwards run under :meth:`Module.inference` cache nothing, so a
backward after one raises; the evaluation forwards (accuracy, Monte Carlo
and Fig. 1 evaluations) run under it, and trial-batched weights run only
under it.  The callers that run backward passes (training, the gradient
and curvature passes, in-situ training) call :meth:`Module.drop_caches`
when they return.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Module", "Sequential"]

_BUFFER_PREFIX = "buffer::"


class Module:
    """Base class for all layers, blocks, and models."""

    #: What the last forward kept for the backward passes, or None.
    _cache = None
    #: Set while :meth:`inference` runs: forwards keep no cache.
    _inference = False

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

    @contextmanager
    def inference(self):
        """Run the forwards inside the block without caching for backward.

        Every module's forward then drops its cache instead of keeping
        one, so a backward after such a forward raises.  Independent of
        :meth:`eval`: in-situ training runs backward in eval mode.  The
        previous setting of every module comes back on exit, so blocks
        nest.
        """
        modules = list(self.modules())
        before = [module._inference for module in modules]
        for module in modules:
            module._inference = True
        try:
            yield self
        finally:
            for module, flag in zip(modules, before):
                module._inference = flag

    def drop_caches(self):
        """Free every module's forward cache; a backward then raises."""
        for module in self.modules():
            module._cache = None

    def _save_for_backward(self, **cache):
        """Keep what this module's backward passes read (not in inference)."""
        self._cache = None if self._inference else cache

    def _saved(self, pass_name):
        """The cache of the last forward; raises when it kept none."""
        if self._cache is None:
            raise RuntimeError(
                f"{pass_name} called before forward, or after a forward "
                f"under inference(), which keeps no cache"
            )
        return self._cache

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

    def backward(self, grad_out, input_grad=True):
        """Backpropagate gradients; must be overridden by layers."""
        raise NotImplementedError

    def backward_second(self, curv_out, input_grad=True):
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

    # The flag goes to the first module positionally, so a wrapped pass
    # that forwards only positional arguments still receives it.
    def backward(self, grad_out, input_grad=True):
        for layer in reversed(self._layers[1:]):
            grad_out = layer.backward(grad_out)
        if not self._layers:
            return grad_out
        return self._layers[0].backward(grad_out, input_grad)

    def backward_second(self, curv_out, input_grad=True):
        for layer in reversed(self._layers[1:]):
            curv_out = layer.backward_second(curv_out)
        if not self._layers:
            return curv_out
        return self._layers[0].backward_second(curv_out, input_grad)
