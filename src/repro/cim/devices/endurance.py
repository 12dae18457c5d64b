"""Device endurance: write-verify consumes program/erase cycles.

NVM cells endure a finite number of programming pulses (RRAM: ~1e6-1e12
depending on technology).  Full write-verify spends ~10 pulses per device
at every deployment; SWIM's selective scheme concentrates pulses on the
sensitive weights and leaves the rest at one (parallel, verify-free)
write.  This module turns per-device cycle counts into wear statistics so
the endurance benefit — a side effect of the paper's speedup — can be
quantified.

:class:`EnduranceObserver` is the stack-facing half: it rides along the
nonideality stack (:mod:`repro.cim.devices.stack`) as a passive observer,
accumulating the cycle arrays each write-verify session produces so the
accelerator can report wear without the physics stages knowing about it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnduranceModel", "EnduranceObserver", "wear_statistics"]

#: Pulses of the initial parallel programming pass: one per device,
#: whether or not the device is later verified.
INITIAL_WRITES = 1


@dataclass(frozen=True)
class EnduranceModel:
    """Pulse budget and write-precision aging of the device technology.

    Attributes
    ----------
    endurance_cycles:
        Program/erase cycles a device survives (default 1e6: conservative
        multi-level RRAM).
    sigma_growth:
        Fractional programming-noise sigma increase of a cell that has
        consumed its whole endurance budget (0 = write precision does
        not age, the historical behavior).  Cycling degrades NVM write
        precision well before hard failure — filament instability in
        RRAM, ferroelectric fatigue in FeFET — and this is the
        first-order knob for it.
    growth_exponent:
        Shape of the sigma-growth-vs-cycling curve: sigma grows with
        ``consumed_fraction ** growth_exponent`` (1 = linear; < 1 =
        early-life degradation front-loaded).
    """

    endurance_cycles: float = 1e6
    sigma_growth: float = 0.0
    growth_exponent: float = 1.0

    def __post_init__(self):
        if self.endurance_cycles <= 0:
            raise ValueError("endurance_cycles must be > 0")
        if self.sigma_growth < 0:
            raise ValueError("sigma_growth must be >= 0")
        if self.growth_exponent <= 0:
            raise ValueError("growth_exponent must be > 0")

    def wear_inflation(self, consumed_fraction):
        """Programming-noise *variance* multiplier after cycling.

        The sigma of a cell that has consumed fraction ``f`` of its
        budget is ``sigma * (1 + sigma_growth * f ** growth_exponent)``,
        so the variance — what Eq. 5 selection pairs with the curvature
        — inflates by the square.  Fresh devices (``f = 0``) and
        non-aging models (``sigma_growth = 0``) return exactly 1.0.
        """
        fraction = float(np.clip(consumed_fraction, 0.0, 1.0))
        return float(
            (1.0 + self.sigma_growth * fraction ** self.growth_exponent) ** 2
        )


class EnduranceObserver:
    """Accumulates verify-cycle arrays as a nonideality-stack observer.

    The observer is passive: every write-verify session reports its
    per-device cycle arrays through :meth:`observe`; re-programming
    starts a new session (:meth:`reset`), which folds the previous one
    into running aggregates instead of discarding it.  :meth:`summary`
    therefore covers *every device-trial observed since construction* —
    a Monte Carlo sweep's trials are independent realizations of one
    deployment, so the mean and maximum over all of them are the right
    per-deployment wear statistics regardless of how the trials were
    blocked.  Trial-batched sessions simply report
    ``(num_slices, n_trials, ...)`` stacks; each stacked device counts
    once.
    """

    def __init__(self, model=None):
        self.model = model if model is not None else EnduranceModel()
        self._cycles = {}
        self._agg_devices = 0
        self._agg_cycles = 0
        self._agg_max = 0

    def reset(self):
        """Start a new session, folding the previous one into aggregates."""
        for cycles in self._cycles.values():
            flat = cycles.reshape(-1)
            if flat.size:
                self._agg_devices += flat.size
                self._agg_cycles += int(flat.sum())
                self._agg_max = max(self._agg_max, int(flat.max()))
        self._cycles = {}

    def observe(self, name, cycles):
        """Record one tensor's verify-cycle array for this session."""
        self._cycles[name] = np.asarray(cycles, dtype=np.int64)

    def summary(self):
        """Wear statistics over every device-trial observed so far.

        Returns
        -------
        dict
            ``{"endurance_cycles", "total_pulses",
            "mean_pulses_per_device", "max_pulses_per_device",
            "deployments_to_failure", "consumed_fraction"}`` or ``None``
            before any session.  ``consumed_fraction`` is the average
            device's endurance budget spent *per deployment*; scale it
            by the expected deployment count before feeding it to
            :meth:`EnduranceModel.wear_inflation`.
        """
        devices = self._agg_devices
        total_cycles = self._agg_cycles
        worst_cycles = self._agg_max
        for cycles in self._cycles.values():
            flat = cycles.reshape(-1)
            if flat.size:
                devices += flat.size
                total_cycles += int(flat.sum())
                worst_cycles = max(worst_cycles, int(flat.max()))
        if devices == 0:
            return None
        return wear_statistics(devices, total_cycles, worst_cycles,
                               self.model.endurance_cycles)


def wear_statistics(devices, verify_cycles, max_verify_cycles,
                    endurance_cycles):
    """The wear summary of ``devices`` device-trials.

    ``verify_cycles`` is their total verify-pulse count and
    ``max_verify_cycles`` the worst device's; ``endurance_cycles`` is
    the technology's pulse budget, of which ``consumed_fraction`` is the
    share (clipped to [0, 1]) the mean device spends.  Every float
    statistic is derived here from those integers, so summaries over disjoint trial subsets
    (work-rectangle tiles) merge exactly: sum ``devices`` and
    ``verify_cycles``, max ``max_verify_cycles``, and call this again
    (:func:`repro.robustness.checkpoint.merge_wear`).
    """
    worst = max_verify_cycles + INITIAL_WRITES
    mean_pulses = verify_cycles / devices + INITIAL_WRITES
    return {
        "endurance_cycles": endurance_cycles,
        "total_pulses": verify_cycles + devices * INITIAL_WRITES,
        "mean_pulses_per_device": mean_pulses,
        "max_pulses_per_device": worst,
        "deployments_to_failure": endurance_cycles / max(worst, 1),
        "consumed_fraction": float(
            np.clip(mean_pulses / endurance_cycles, 0.0, 1.0)
        ),
        # The integer aggregates the statistics above derive from.
        "devices": devices,
        "verify_cycles": verify_cycles,
        "max_verify_cycles": max_verify_cycles,
        "initial_writes": INITIAL_WRITES,
    }
