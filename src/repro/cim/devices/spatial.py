"""Spatially correlated device variation (the paper's Sec. 2.1 extension).

The paper evaluates *temporal* variation (i.i.d. per device) and notes that
"spatial variations result from fabrication defects and have both local and
global correlations... The proposed framework can also be extended to other
sources of variations with modification."  This module provides that
extension: a Gaussian random field over the physical crossbar layout, with

- a *global* wafer-level offset shared by a whole array, and
- a *local* component correlated over a configurable length scale
  (filtered white noise),

normalized so the marginal per-device std matches the requested sigma.
Because correlated noise cannot be fought by re-programming alone (all
nearby devices err together), write-verify still works — the verify loop
measures each device individually — but *unverified* weights now fail in
clusters, which stresses selection quality differently than i.i.d. noise
(the ``runner spatial`` scenario, :mod:`repro.experiments.spatial`).

The local component is white noise smoothed by
:func:`scipy.ndimage.gaussian_filter` (wrap mode), then re-normalized to
the marginal sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["SpatialVariationModel"]


@dataclass(frozen=True)
class SpatialVariationModel:
    """Correlated programming-error field over crossbar coordinates.

    Attributes
    ----------
    sigma:
        Marginal per-device noise std as a fraction of full-scale (the
        same convention as :class:`~repro.cim.devices.device.DeviceConfig`).
    correlation_length:
        Length scale (in devices) of the local correlation; 0 reduces to
        i.i.d. noise.
    global_fraction:
        Fraction of the noise *variance* carried by the array-wide offset
        (fabrication-lot component).
    array_rows:
        Devices per physical column used to fold a flat weight tensor
        onto 2-D crossbar coordinates.
    """

    sigma: float = 0.1
    correlation_length: float = 8.0
    global_fraction: float = 0.2
    array_rows: int = 128

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.correlation_length < 0:
            raise ValueError("correlation_length must be >= 0")
        if not 0 <= self.global_fraction < 1:
            raise ValueError("global_fraction must be in [0, 1)")
        if self.array_rows < 1:
            raise ValueError("array_rows must be >= 1")

    def _layout(self, size):
        """Fold ``size`` devices into (rows, cols) crossbar coordinates."""
        rows = min(self.array_rows, size)
        cols = -(-size // rows)
        return rows, cols

    def sample_field(self, size, rng, device_max_level=15):
        """Sample a correlated error field for ``size`` devices.

        Parameters
        ----------
        size:
            Number of devices.
        rng:
            numpy Generator.
        device_max_level:
            Full-scale in level units (errors are returned in levels).

        Returns
        -------
        numpy.ndarray
            Flat error array of length ``size`` (level units) whose
            marginal std is ``sigma * device_max_level``.
        """
        if self.sigma == 0 or size == 0:
            return np.zeros(size)
        rows, cols = self._layout(size)
        white = rng.normal(0.0, 1.0, size=(rows, cols))
        if self.correlation_length > 0:
            local = ndimage.gaussian_filter(
                white, self.correlation_length, mode="wrap"
            )
            std = local.std()
            local = local / std if std > 0 else white
        else:
            local = white
        field = np.sqrt(1.0 - self.global_fraction) * local
        if self.global_fraction > 0:
            field = field + np.sqrt(self.global_fraction) * rng.normal()
        flat = field.reshape(-1)[:size]
        return flat * self.sigma * device_max_level

    def correlation_at_lag(self, lag, size=8192, seed=0, device_max_level=15):
        """Empirical autocorrelation of the field at a given row lag.

        Diagnostic used by the tests to demonstrate the difference from
        i.i.d. noise.
        """
        rng = np.random.default_rng(seed)
        field = self.sample_field(size, rng, device_max_level)
        rows, cols = self._layout(size)
        grid = np.resize(field, rows * cols).reshape(rows, cols)
        a = grid[: rows - lag, :].reshape(-1)
        b = grid[lag:, :].reshape(-1)
        a = a - a.mean()
        b = b - b.mean()
        denom = np.sqrt((a * a).mean() * (b * b).mean())
        return float((a * b).mean() / denom) if denom > 0 else 0.0
