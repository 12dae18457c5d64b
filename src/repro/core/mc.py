"""Trial-window geometry of the Monte Carlo protocol.

Every headline number in the paper is a Monte Carlo average over
independent device-variation draws.  The one sweep that computes them,
:func:`repro.experiments.sweeps.run_method_sweep`, stacks a block of
trials on a leading ``(n_trials, ...)`` axis and advances them together:
one masked write-verify pulse loop per block
(:func:`repro.cim.write_verify.write_verify_trials`) and one folded
forward pass per deployment
(:func:`repro.core.metrics.evaluate_accuracy_trials`).

:class:`MonteCarloEngine` is the bookkeeping that sweep shares with the
work-rectangle scheduler (:mod:`repro.robustness.scheduler`):

- trial ``i`` derives all of its randomness from the named substream
  ``rng.child("mc", i)``, so batched, scalar and tiled runs see the same
  per-trial draws, and adding trials never perturbs earlier ones;
- trials run in blocks of :func:`default_trial_block` so activation
  memory stays bounded, and each block's shared verify stream is keyed
  on the block's first trial;
- a ``trial_range`` window runs a slice of the protocol with absolute
  trial indices — the scheduler's tile unit.  Parallelism lives in the
  scheduler's supervised fork pool, never here.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import EVAL_BATCH_SIZE
# Unused here, but perfbench/layers.py rebinds this module's name to time it.
from repro.core.metrics import evaluate_accuracy_trials  # noqa: F401

__all__ = ["MonteCarloEngine", "default_trial_block"]

#: Largest folded batch (n_trials_in_block * EVAL_BATCH_SIZE) the engine
#: feeds through the network at once.  Small folds win: the per-trial
#: forward work is compute-bound, so the only batching gains are shared
#: input unfolding and amortized dispatch — while oversized folds blow
#: the cache (measured ~2x slower at 4096 than at 512 on default LeNet).
DEFAULT_MAX_FOLD = 512


def default_trial_block():
    """The engine's trial-block width, ``DEFAULT_MAX_FOLD //
    EVAL_BATCH_SIZE`` trials: a block's folded evaluation batch stays
    within :data:`DEFAULT_MAX_FOLD` images.

    This is the granularity at which the batched sweep draws its shared
    verify RNG (one stream per block, keyed on the block's first trial)
    — and therefore the alignment grain the work-rectangle scheduler
    must respect when splitting a cell's trials into tiles.
    """
    return max(1, DEFAULT_MAX_FOLD // EVAL_BATCH_SIZE)


class MonteCarloEngine:
    """The trial window of one ``n_trials`` Monte Carlo protocol.

    Parameters
    ----------
    n_trials:
        Monte Carlo trial count (paper: 3000).
    rng:
        Parent :class:`~repro.utils.rng.RngStream`; trial ``i`` derives
        everything from ``rng.child("mc", i)``.
    trial_range:
        Optional ``(start, stop)`` half-open window: only trials
        ``start..stop-1`` of the ``n_trials`` protocol run, with
        *absolute* trial indices (substreams, block RNG keys), so a set
        of windows covering ``[0, n_trials)`` reproduces the full run's
        per-trial values bit for bit.  For the batched sweep ``start``
        must sit on a block boundary (see :func:`default_trial_block`):
        the shared verify stream is keyed per block, so only
        block-aligned windows see the draws of the unsplit run.  This is the
        work-rectangle scheduler's tile contract.
    """

    def __init__(self, n_trials, rng, trial_range=None):
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        self.n_trials = int(n_trials)
        self.rng = rng
        if trial_range is not None:
            start, stop = int(trial_range[0]), int(trial_range[1])
            if not 0 <= start < stop <= self.n_trials:
                raise ValueError(
                    f"trial_range {trial_range!r} outside [0, {self.n_trials}]"
                )
            trial_range = (start, stop)
        self.trial_range = trial_range

    @property
    def span(self):
        """The ``(start, stop)`` trial window this engine actually runs."""
        return self.trial_range or (0, self.n_trials)

    def substream(self, index):
        """The named RNG stream of one trial."""
        return self.rng.child("mc", index)

    def substreams(self, indices=None):
        """Per-trial streams for ``indices`` (default: the trial window)."""
        if indices is None:
            indices = range(*self.span)
        return [self.substream(int(i)) for i in indices]

    def blocks(self):
        """Yield trial-index arrays sized to bound folded-batch memory.

        Blocks always start at multiples of :func:`default_trial_block`
        counted from trial 0 — also under a ``trial_range`` window — so
        every window sees the same block starts (and the same per-block
        verify RNG keys) as the full run.
        """
        block = default_trial_block()
        start, stop = self.span
        for base in range((start // block) * block, stop, block):
            lo, hi = max(base, start), min(base + block, stop)
            if lo < hi:
                yield np.arange(lo, hi)
