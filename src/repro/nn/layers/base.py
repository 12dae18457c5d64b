"""Shared behaviour for layers that own a weight tensor.

Two hooks on :class:`WeightedLayer` make the CiM experiments possible
without touching the layer math:

``weight_override``
    When set, the forward/backward passes use this array instead of
    ``weight.data``.  The CiM accelerator uses it to run inference with the
    *programmed* (noisy) weights while keeping the ideal weights intact —
    i.e., it models the device conductances actually burned into the
    crossbar.

``weight_quantizer``
    When set, ``weight.data`` is passed through this callable in forward
    (fake quantization).  Gradients flow straight through to the float
    weights (straight-through estimator), which is the standard
    quantization-aware-training recipe the paper follows ([4]).

The override takes precedence over the quantizer: programmed conductances
are already quantized by construction.

``weight_override`` additionally accepts a *trial-batched* stack of shape
``(n_trials,) + weight.shape``: the forward pass then expects a trial-major
folded batch of ``n_trials * N`` samples and applies trial ``t``'s weights
to samples ``t*N .. (t+1)*N``.  This is how the Monte Carlo sweep
(:func:`repro.experiments.sweeps.run_method_sweep`) evaluates every variation draw of an experiment in
one vectorized pass.  Batched overrides are inference-only: a
trial-batched forward runs only under :meth:`~repro.nn.module.Module.
inference`, which keeps no cache, so no backward can follow it.
"""

from __future__ import annotations

from repro.nn.module import Module

__all__ = ["WeightedLayer"]


class WeightedLayer(Module):
    """Base class for Linear/Conv2d: weight override + fake quantization."""

    def __init__(self):
        super().__init__()
        self.weight_override = None
        self.weight_quantizer = None

    def effective_weight(self):
        """The weight array the forward pass should use."""
        if self.weight_override is not None:
            return self.weight_override
        if self.weight_quantizer is not None:
            return self.weight_quantizer(self.weight.data)
        return self.weight.data

    def set_weight_override(self, values):
        """Run subsequent passes with ``values`` in place of the weights.

        ``values`` may be the weight shape, or a trial-batched stack
        ``(n_trials,) + weight.shape`` (see the module docstring).
        """
        shape = self.weight.data.shape
        if values is not None and values.shape != shape and values.shape[1:] != shape:
            raise ValueError(
                f"override shape {values.shape} != weight shape {shape} "
                f"(nor a (n_trials,)+{shape} stack)"
            )
        self.weight_override = values

    def override_trials(self):
        """Trial count of a batched override, or ``None`` when not batched."""
        override = self.weight_override
        if override is None or override.ndim == self.weight.data.ndim:
            return None
        return override.shape[0]

    def _require_inference(self):
        """Refuse a trial-batched forward outside ``Module.inference()``."""
        if not self._inference:
            raise RuntimeError(
                f"{type(self).__name__}: trial-batched weights are "
                f"inference-only; run the forward under model.inference()"
            )

    def clear_weight_override(self):
        """Restore the ideal weights."""
        self.weight_override = None

    @staticmethod
    def _fold_size(total, n_trials):
        """Samples per trial of a trial-major folded batch (validated)."""
        if total % n_trials:
            raise ValueError(
                f"folded batch of {total} samples does not divide "
                f"into {n_trials} trials"
            )
        return total // n_trials

    @classmethod
    def _split_trials(cls, x, n_trials):
        """Reshape a trial-major folded batch to ``(T, N, ...)``."""
        per = cls._fold_size(x.shape[0], n_trials)
        return x.reshape((n_trials, per) + x.shape[1:])
