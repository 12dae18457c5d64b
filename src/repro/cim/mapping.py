"""Bit-sliced mapping of quantized weights onto K-bit devices (Eqs. 14-16).

An M-bit weight magnitude ``W_des = sum_i m_i 2^i`` (Eq. 14) is split into
``ceil(M/K)`` K-bit slices, each programmed onto one device (Eq. 15).  The
programmed weight then deviates from the desired value by a zero-mean
Gaussian whose variance is the bit-slice-weighted sum of the per-device
variances (Eq. 16)::

    W_map = W_des + N(0, sigma_lv^2 * sum_i 4^(i*K))

with ``sigma_lv`` the device noise in level units.  Negative weights map
"in a similar manner" (paper Sec. 4.1): the sign is carried by the
differential crossbar column pair, so the magnitude slices are programmed
identically; an optional ``differential`` mode also models the noise of
the complementary column's devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cim.devices.device import DeviceConfig
from repro.nn.quant import quantize_symmetric

__all__ = ["MappingConfig", "WeightMapper", "MappedTensor"]


@dataclass(frozen=True)
class MappingConfig:
    """How weights are quantized and sliced onto devices.

    Attributes
    ----------
    weight_bits:
        Magnitude bits M of the quantized weight (Eq. 14).
    device:
        The :class:`DeviceConfig` (bits per device K, noise sigma).
    differential:
        When True, each weight uses a positive *and* a negative column
        device pair (2x devices, hence 2x noise variance); when False the
        sign is ideal and only magnitude devices contribute noise — the
        literal Eq. 16 setting.
    """

    weight_bits: int = 4
    device: DeviceConfig = DeviceConfig()
    differential: bool = False

    def __post_init__(self):
        if self.weight_bits < 1:
            raise ValueError("weight_bits must be >= 1")

    @property
    def num_slices(self):
        """Devices per weight magnitude, ``ceil(M / K)``."""
        return -(-self.weight_bits // self.device.bits)

    @property
    def slice_bits(self):
        """Bits stored by each slice, LSB first.

        When M is not a multiple of K the *top* slice is a narrower cell
        holding only the remaining bits (e.g. 6-bit weights on 4-bit
        devices use a 4-bit cell plus a 2-bit cell).  Using a full K-bit
        cell there would amplify its programming noise by the slice's
        positional weight without storing more information.
        """
        k = self.device.bits
        remaining = self.weight_bits
        bits = []
        while remaining > 0:
            bits.append(min(k, remaining))
            remaining -= k
        return bits

    @property
    def slice_weights(self):
        """Positional weight ``2^(i*K)`` of each slice, LSB first."""
        k = self.device.bits
        return np.array([1 << (i * k) for i in range(self.num_slices)], dtype=np.int64)

    @property
    def slice_max_levels(self):
        """Conductance full-scale of each slice's cell, ``2^bits_i - 1``."""
        return np.array([(1 << b) - 1 for b in self.slice_bits], dtype=np.int64)

    @property
    def qmax(self):
        """Largest representable magnitude code, ``2^M - 1``."""
        return (1 << self.weight_bits) - 1

    def slice_sigma_levels(self, sigma_fs=None):
        """Per-slice programming-noise std in level units.

        ``sigma`` is a fraction of each cell's own full-scale, so narrower
        top slices carry proportionally less absolute noise.
        """
        sigma = self.device.sigma if sigma_fs is None else float(sigma_fs)
        return sigma * self.slice_max_levels.astype(np.float64)

    def code_noise_std(self, sigma_fs=None):
        """Eq. 16: std of the mapped integer code around the desired code.

        Parameters
        ----------
        sigma_fs:
            Per-device noise std (fraction of device full-scale) to use
            instead of the config's value — e.g. the smaller noise of an
            incremental update pulse.
        """
        sigmas = self.slice_sigma_levels(sigma_fs)
        weights = self.slice_weights.astype(np.float64)
        variance = float(np.sum((sigmas * weights) ** 2))
        if self.differential:
            variance *= 2.0
        return np.sqrt(variance)

    def slice_tolerance_levels(self, tolerance):
        """Per-slice verify tolerance in each cell's own level units.

        Each cell is verified to the same *relative* tolerance (the
        per-cell criterion of Shim et al. [8], the paper's calibration
        source).  Because the slice full-scales telescope —
        ``sum_i (2^bits_i - 1) * 2^(iK) = 2^M - 1`` — the worst-case
        *weight code* error is then exactly ``tolerance * qmax``, so
        "write-verify everything" bounds the weight error by the paper's
        0.06 full-scale figure for any M/K split.
        """
        return float(tolerance) * self.slice_max_levels.astype(np.float64)

    def relative_noise_std(self):
        """Mapped-weight noise std as a fraction of the weight full-scale."""
        return self.code_noise_std() / self.qmax


@dataclass
class MappedTensor:
    """A weight tensor quantized and sliced onto devices.

    Attributes
    ----------
    codes:
        Signed integer codes, shape = weight shape.
    scale:
        Dequantization scale: ``weight ~= code * scale``.
    levels:
        Desired device levels, shape ``(num_slices,) + weight shape``
        (LSB slice first).
    signs:
        ``+1/-1/0`` per weight (sign carried by the column pair).
    """

    codes: np.ndarray
    scale: float
    levels: np.ndarray
    signs: np.ndarray


class WeightMapper:
    """Quantize + slice float weight tensors; reassemble noisy readouts."""

    def __init__(self, config=None):
        self.config = config if config is not None else MappingConfig()

    # ------------------------------------------------------------- mapping

    def quantize(self, weights):
        """Symmetric per-tensor quantization to M magnitude bits + sign."""
        codes, scale = quantize_symmetric(weights, self.config.weight_bits)
        return codes, scale

    def slice_codes(self, codes):
        """Split magnitude codes into per-device levels (Eq. 14).

        Returns ``(levels, signs)`` with ``levels[i]`` the i-th (LSB-first)
        slice of ``|codes|`` (K bits each, except a possibly narrower top
        slice — see :attr:`MappingConfig.slice_bits`).
        """
        codes = np.asarray(codes, dtype=np.int64)
        magnitude = np.abs(codes)
        if magnitude.max(initial=0) > self.config.qmax:
            raise ValueError("codes exceed the representable magnitude")
        # Zero-valued weights live on the positive column: they keep sign +1
        # so their devices' programming noise still reaches the weight.
        signs = np.where(codes < 0, -1, 1).astype(np.int64)
        k = self.config.device.bits
        levels = np.stack(
            [
                (magnitude >> (i * k)) & ((1 << bits) - 1)
                for i, bits in enumerate(self.config.slice_bits)
            ]
        ).astype(np.float64)
        return levels, signs

    def assemble_codes(self, levels, signs):
        """Inverse of :func:`slice_codes` for (possibly noisy) levels.

        Noisy levels are *not* rounded: the analog conductance contributes
        proportionally to the matrix-vector product, so the readout code is
        the positionally weighted sum of raw conductances.
        """
        weights = self.config.slice_weights.astype(np.float64)
        magnitude = np.tensordot(weights, np.asarray(levels, dtype=np.float64), axes=(0, 0))
        return magnitude * signs

    def map_tensor(self, weights):
        """Quantize and slice a float tensor; returns a :class:`MappedTensor`."""
        codes, scale = self.quantize(weights)
        levels, signs = self.slice_codes(codes)
        return MappedTensor(codes=codes, scale=scale, levels=levels, signs=signs)

    # ------------------------------------------------------ noisy programming

    def program_levels(self, mapped, rng):
        """One-shot (no verify) programming of all devices (Eq. 15).

        Returns the programmed level array, same shape as ``mapped.levels``.
        Noise per slice scales with that slice's cell range (a narrower
        top cell has proportionally less absolute noise).  In differential
        mode the complementary column adds an independent noise draw (its
        desired level is 0, and its noise subtracts).
        """
        sigmas = self.config.slice_sigma_levels()
        shape = mapped.levels.shape
        per_slice = sigmas.reshape((-1,) + (1,) * (len(shape) - 1))
        programmed = mapped.levels + rng.normal(0.0, 1.0, size=shape) * per_slice
        if self.config.differential:
            programmed = programmed - rng.normal(0.0, 1.0, size=shape) * per_slice
        return programmed

    def readout_weights(self, mapped, programmed_levels):
        """Float weights corresponding to programmed device levels."""
        codes = self.assemble_codes(programmed_levels, mapped.signs)
        return (codes * mapped.scale).astype(np.float64)

    def ideal_weights(self, mapped):
        """Float weights with ideal (noise-free) programming."""
        return (mapped.codes * mapped.scale).astype(np.float64)
