"""The trial-block width of the Monte Carlo protocol.

Every headline number in the paper is a Monte Carlo average over
independent device-variation draws.  The one sweep that computes them,
:func:`repro.experiments.sweeps.run_method_sweep`, stacks a block of
trials on a leading ``(n_trials, ...)`` axis and advances them together:
one masked write-verify pulse loop per block
(:func:`repro.cim.write_verify.write_verify_trials`) and one folded
forward pass per deployment
(:func:`repro.core.metrics.evaluate_accuracy_trials`).

:func:`default_trial_block` is the block width.  The sweep walks its
trial window in blocks of that width and keys each block's shared
verify stream on the block's first trial; the work-rectangle scheduler
(:mod:`repro.robustness.scheduler`) splits each cell's trials into
tiles of whole blocks, so every tile sees the draws of the unsplit run.
"""

from __future__ import annotations

from repro.core.metrics import EVAL_BATCH_SIZE
# Unused here, but perfbench/layers.py rebinds this module's name to time it.
from repro.core.metrics import evaluate_accuracy_trials  # noqa: F401

__all__ = ["default_trial_block"]

#: Largest folded batch (n_trials_in_block * EVAL_BATCH_SIZE) the sweep
#: feeds through the network at once.  Small folds win: the per-trial
#: forward work is compute-bound, so the only batching gains are shared
#: input unfolding and amortized dispatch — while oversized folds blow
#: the cache (measured ~2x slower at 4096 than at 512 on default LeNet).
DEFAULT_MAX_FOLD = 512


def default_trial_block():
    """The trial-block width, ``DEFAULT_MAX_FOLD // EVAL_BATCH_SIZE``
    trials: a block's folded evaluation batch stays within
    :data:`DEFAULT_MAX_FOLD` images.

    This is the granularity at which the batched sweep draws its shared
    verify RNG (one stream per block, keyed on the block's first trial)
    — and therefore the alignment grain the work-rectangle scheduler
    must respect when splitting a cell's trials into tiles.
    """
    return max(1, DEFAULT_MAX_FOLD // EVAL_BATCH_SIZE)
