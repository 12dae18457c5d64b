"""Conductance retention drift after programming.

Write-verify guarantees precision *at programming time*; NVM conductances
then drift (prominently in PCM, and as random telegraph/relaxation noise in
RRAM — the read-noise concern of Shim et al. [8], the paper's calibration
source).  This module models post-programming drift so ``runner
retention`` can ask a question the paper leaves open: *does a selectively
verified network lose its advantage over time?*

Model
-----
Power-law drift with device-to-device exponent variation, the standard PCM
form::

    g(t) = g(t0) * (t / t0) ** (-nu_i),   nu_i ~ N(nu, sigma_nu^2)

plus an optional zero-mean relaxation term growing as ``log(t/t0)``
(RRAM-style conductance relaxation).  ``t`` is in seconds, ``t0`` the
read-after-write reference time.

Trial batching
--------------
:meth:`RetentionModel.apply` drifts one trial from one generator; the
nonideality stack (:mod:`repro.cim.devices.stack`) batches trials by
giving each its own substream, so trial ``i`` of the batched path is
bitwise-identical to the scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetentionModel"]


def _norm_cdf(x):
    """Standard normal CDF via the error function (no SciPy needed)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class RetentionModel:
    """Post-programming conductance drift.

    Attributes
    ----------
    nu:
        Mean drift exponent (PCM literature: ~0.005-0.1; 0 disables).
    sigma_nu:
        Device-to-device std of the drift exponent.
    relaxation_sigma:
        Std (fraction of full-scale) of the log-time random relaxation
        accrued per decade.
    t0:
        Reference time (seconds) at which programming precision holds.
    """

    nu: float = 0.02
    sigma_nu: float = 0.005
    relaxation_sigma: float = 0.005
    t0: float = 1.0

    def __post_init__(self):
        if self.nu < 0 or self.sigma_nu < 0 or self.relaxation_sigma < 0:
            raise ValueError("drift parameters must be >= 0")
        if self.t0 <= 0:
            raise ValueError("t0 must be > 0")

    def apply(self, levels, t, rng, device_max_level=15):
        """Drift programmed ``levels`` to time ``t``.

        Parameters
        ----------
        levels:
            Programmed conductance levels (any shape, level units, >= 0
            entries drift multiplicatively; the array is not modified).
        t:
            Elapsed time in seconds (must be >= t0).
        rng:
            numpy Generator (per-device exponents and relaxation).
        device_max_level:
            Full-scale, for the relaxation term's units.

        Returns
        -------
        numpy.ndarray
            Drifted levels, same shape.
        """
        levels = np.asarray(levels, dtype=np.float64)
        if t < self.t0:
            raise ValueError(f"t={t} must be >= t0={self.t0}")
        ratio = t / self.t0
        if ratio == 1.0:
            return levels.copy()
        exponents = (
            rng.normal(self.nu, self.sigma_nu, size=levels.shape)
            if self.sigma_nu > 0
            else np.full(levels.shape, self.nu)
        )
        drifted = levels * np.power(ratio, -np.clip(exponents, 0.0, None))
        if self.relaxation_sigma > 0:
            decades = np.log10(ratio)
            drifted = drifted + rng.normal(
                0.0,
                self.relaxation_sigma * device_max_level * np.sqrt(decades),
                size=levels.shape,
            )
        return drifted

    def decay_moments(self, t):
        """Exact first two moments of the multiplicative decay at ``t``.

        The per-device decay is ``D = (t/t0) ** (-max(nu_i, 0))`` with
        ``nu_i ~ N(nu, sigma_nu^2)`` — the clipped-Gaussian exponent model
        :meth:`apply` draws from.  Both moments are closed-form through the
        truncated-Gaussian moment generating function::

            E[exp(-s max(X, 0))] = Phi(-mu/s_x)
                + exp(-s mu + s^2 s_x^2 / 2) * Phi(mu/s_x - s s_x)

        with ``s = k * ln(t/t0)``, so the analytic variance map and the
        drift-compensation rescale agree with Monte Carlo draws exactly
        (not just to first order in ``nu``).

        Returns
        -------
        tuple
            ``(E[D], E[D^2])``; both are 1.0 at ``t == t0``.
        """
        if t < self.t0:
            raise ValueError(f"t={t} must be >= t0={self.t0}")
        a = math.log(t / self.t0)
        if a == 0.0 or (self.nu == 0.0 and self.sigma_nu == 0.0):
            return 1.0, 1.0
        if self.sigma_nu == 0.0:
            m1 = math.exp(-a * self.nu)
            return m1, m1 * m1

        def moment(k):
            s = k * a
            z0 = self.nu / self.sigma_nu
            return _norm_cdf(-z0) + math.exp(
                -s * self.nu + 0.5 * (s * self.sigma_nu) ** 2
            ) * _norm_cdf(z0 - s * self.sigma_nu)

        return moment(1), moment(2)

    def mean_decay(self, t):
        """Expected multiplicative decay ``E[D]`` at time ``t``.

        This is the factor a drift-compensated platform divides out at
        read time (global conductance rescale calibrated on reference
        cells); see :class:`~repro.cim.devices.stack.DriftCompensationStage`.
        """
        return self.decay_moments(t)[0]

    def relaxation_variance(self, t, device_max_level=15):
        """Variance (level units^2) of the log-time relaxation term at ``t``."""
        if t < self.t0:
            raise ValueError(f"t={t} must be >= t0={self.t0}")
        if self.relaxation_sigma == 0.0:
            return 0.0
        decades = math.log10(t / self.t0)
        return (self.relaxation_sigma * device_max_level) ** 2 * decades

    def mean_relative_shift(self, t):
        """Expected multiplicative conductance loss at time ``t``."""
        return 1.0 - (t / self.t0) ** (-self.nu)
