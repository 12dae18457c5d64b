"""Uniform quantization for weights and activations.

The paper quantizes weights and activations to 4 bits (LeNet) or 6 bits
(ConvNet, ResNet-18) before mapping (Sec. 4.2-4.4), with the desired weight
code defined by Eq. 14 as an M-bit *magnitude* plus sign (negative weights
map "in a similar manner", i.e. onto a differential device column).

Conventions implemented here:

- **Symmetric per-tensor scheme.**  A weight tensor with scale
  ``s = max|w| / qmax`` maps value ``w`` to integer code
  ``round(w / s)`` clipped to ``[-qmax, qmax]`` with ``qmax = 2^M - 1``
  (M magnitude bits, Eq. 14).
- **Straight-through estimator (STE).**  During quantization-aware
  training the forward pass sees quantized values while gradients flow to
  the float master copy unchanged (clipped outside the representable
  range for activations).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import WeightedLayer
from repro.nn.module import Module

__all__ = [
    "quantize_symmetric",
    "dequantize",
    "fake_quantize",
    "ActQuant",
    "attach_weight_quantizers",
]


def quantize_symmetric(values, bits, scale=None):
    """Quantize to signed integer codes in ``[-qmax, qmax]``.

    Parameters
    ----------
    values:
        Float array.
    bits:
        Magnitude bit count M; ``qmax = 2^M - 1``.
    scale:
        Optional fixed scale; defaults to ``max|values| / qmax``.

    Returns
    -------
    tuple
        ``(codes, scale)`` with ``codes`` an int64 array satisfying
        ``values ~= codes * scale``.
    """
    values = np.asarray(values, dtype=np.float64)
    qmax = (1 << int(bits)) - 1
    if scale is None:
        peak = float(np.max(np.abs(values), initial=0.0))
        scale = peak / qmax if peak > 0 else 1.0
    codes = np.clip(np.rint(values / scale), -qmax, qmax).astype(np.int64)
    return codes, float(scale)


def dequantize(codes, scale):
    """Map integer codes back to float values."""
    return np.asarray(codes, dtype=np.float64) * float(scale)


def fake_quantize(values, bits, scale=None):
    """Quantize-dequantize round trip (same dtype as input)."""
    values = np.asarray(values)
    codes, s = quantize_symmetric(values, bits, scale=scale)
    return dequantize(codes, s).astype(values.dtype)


class _WeightFakeQuant:
    """Callable attached to ``WeightedLayer.weight_quantizer``."""

    def __init__(self, bits):
        self.bits = int(bits)

    def __call__(self, weights):
        return fake_quantize(weights, self.bits)

    def __repr__(self):
        return f"_WeightFakeQuant(bits={self.bits})"


def attach_weight_quantizers(model, bits):
    """Enable STE weight fake-quantization on every weighted layer.

    Returns the number of layers affected.
    """
    count = 0
    for module in model.modules():
        if isinstance(module, WeightedLayer):
            module.weight_quantizer = _WeightFakeQuant(bits)
            count += 1
    return count


class ActQuant(Module):
    """Activation fake-quantization layer with running-range calibration.

    In training mode the layer tracks the maximum absolute activation with
    an exponential moving average and quantizes with the straight-through
    estimator (gradient clipped outside the representable range).  In
    inference mode the frozen range is used.  Placed after each activation
    in the quantized model definitions, mirroring the paper's "weights and
    activation are quantized" setting.

    ``forward`` computes values only (clip, divide, round, multiply, in
    place on clip's fresh buffer) and caches its input with the peak it
    used; ``backward`` and ``backward_second`` derive the STE mask
    ``|x| <= peak`` from that cache when they run.  With no range yet
    (peak 0) the layer passes its input through and the mask is all ones.
    """

    def __init__(self, bits, momentum=0.1):
        super().__init__()
        self.bits = int(bits)
        self.momentum = float(momentum)
        self.running_peak = 0.0
        self.register_buffer_name("running_peak")

    def forward(self, x):
        if self.training:
            peak = float(np.max(np.abs(x), initial=0.0))
            if self.running_peak == 0.0:
                self.running_peak = peak
            else:
                self.running_peak = (
                    (1 - self.momentum) * self.running_peak + self.momentum * peak
                )
        peak = self.running_peak
        self._save_for_backward(x=x, peak=peak)
        if peak <= 0.0:
            return x
        qmax = (1 << self.bits) - 1
        scale = peak / qmax
        out = np.clip(x, -peak, peak)
        np.divide(out, scale, out=out)
        np.rint(out, out=out)
        np.multiply(out, scale, out=out)
        return out

    def _mask(self, pass_name):
        """STE mask: the inputs inside the peak the last forward used."""
        cache = self._saved(pass_name)
        x, peak = cache["x"], cache["peak"]
        if peak <= 0.0:
            return np.ones_like(x, dtype=bool)
        return np.abs(x) <= peak

    def backward(self, grad_out, input_grad=True):
        return grad_out * self._mask("backward")

    def backward_second(self, curv_out, input_grad=True):
        return curv_out * self._mask("backward_second")

    def __repr__(self):
        return f"ActQuant(bits={self.bits}, peak={self.running_peak:.4g})"
