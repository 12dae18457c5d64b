"""Trial-batched Monte Carlo engine (the paper's 3,000-run protocol, fast).

Every headline number in the paper is a Monte Carlo average over
independent device-variation draws.  The scalar protocol — run the full
program / write-verify / deploy / evaluate pipeline once per trial — pays
the Python dispatch cost of every pipeline stage ``n_trials`` times.
:class:`MonteCarloEngine` instead stacks the trials on a leading
``(n_trials, ...)`` axis and advances all of them together:

- **programming** draws each trial's noise from its own named RNG
  substream (``rng.child("mc", i)``), so trial ``i`` sees bit-identical
  initial conductances to the scalar path regardless of batching;
- **write-verify** runs one masked pulse loop over the whole trial stack
  (:func:`repro.cim.write_verify.write_verify_trials`);
- **evaluation** deploys trial-batched weight overrides and scores every
  trial in one folded forward pass
  (:func:`repro.core.metrics.evaluate_accuracy_trials`);
- **Algorithm 1** becomes a masked while-loop over *trials*: each group
  step only re-deploys and re-evaluates the trials whose accuracy target
  is not yet met.

Trials are processed in blocks (``trial_block``) so activation memory
stays bounded.  Parallelism lives one level up: the work-rectangle
scheduler (:mod:`repro.robustness.scheduler`) fans trial windows
(``trial_range``) across its supervised fork pool, so the engine itself
always runs in-process.

The scalar implementations remain available behind ``batched=False``
everywhere, which is what the seeded equivalence tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import evaluate_accuracy_trials
from repro.core.selection import cumulative_groups
from repro.core.swim import SwimConfig, SwimResult
from repro.core.swim import sweep_nwc as sweep_nwc_scalar
from repro.robustness.faults import active_schedule
from repro.robustness.supervisor import run_with_retry
from repro.utils.stats import running_mean_converged

__all__ = ["MonteCarloEngine", "default_trial_block"]

#: Largest folded batch (n_trials_in_block * eval_batch_size) the engine
#: feeds through the network at once.  Small folds win: the per-trial
#: forward work is compute-bound, so the only batching gains are shared
#: input unfolding and amortized dispatch — while oversized folds blow
#: the cache (measured ~2x slower at 4096 than at 512 on default LeNet).
DEFAULT_MAX_FOLD = 512


def default_trial_block(eval_batch_size=256, trial_block=None):
    """The engine's natural trial-block width for a given eval batch.

    This is the granularity at which the batched pipelines draw their
    shared verify RNG (one stream per block, keyed on the block's first
    trial) — and therefore the alignment grain the work-rectangle
    scheduler must respect when splitting a cell's trials into tiles.
    """
    if trial_block is not None:
        return max(1, int(trial_block))
    return max(1, DEFAULT_MAX_FOLD // max(1, int(eval_batch_size)))


class MonteCarloEngine:
    """Drives ``n_trials`` independent variation draws through a pipeline.

    Parameters
    ----------
    n_trials:
        Monte Carlo trial count (paper: 3000).
    rng:
        Parent :class:`~repro.utils.rng.RngStream`; trial ``i`` derives
        everything from ``rng.child("mc", i)`` — the same naming the
        scalar :func:`repro.core.metrics.monte_carlo` harness uses, so
        adding trials never perturbs earlier ones.
    batched:
        When False, the engine delegates to the scalar per-trial path.
    trial_block:
        Trials batched per block.  Defaults to a memory-bounded guess
        from the evaluation batch size (``DEFAULT_MAX_FOLD`` folded
        samples).
    trial_range:
        Optional ``(start, stop)`` half-open window: the engine runs
        only trials ``start..stop-1`` of the ``n_trials`` protocol,
        with *absolute* trial indices (substreams, block RNG keys), so
        a set of windows covering ``[0, n_trials)`` reproduces the full
        run's per-trial values bit for bit.  For the batched pipelines
        ``start`` must sit on a block boundary (see :meth:`block_size`):
        the shared verify stream is keyed per block, so only
        block-aligned windows see the draws of the unsplit run.  This
        is the work-rectangle scheduler's tile contract.
    """

    def __init__(self, n_trials, rng, batched=True, trial_block=None,
                 trial_range=None):
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        self.n_trials = int(n_trials)
        self.rng = rng
        self.batched = bool(batched)
        self.trial_block = trial_block
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

    # ------------------------------------------------------------- streams

    def substream(self, index):
        """The named RNG stream of one trial."""
        return self.rng.child("mc", index)

    def substreams(self, indices=None):
        """Per-trial streams for ``indices`` (default: the trial window)."""
        if indices is None:
            indices = range(*self.span)
        return [self.substream(int(i)) for i in indices]

    def block_size(self, eval_batch_size=256):
        """Trials per block (see :func:`default_trial_block`)."""
        return default_trial_block(eval_batch_size, self.trial_block)

    def blocks(self, eval_batch_size=256):
        """Yield trial-index arrays sized to bound folded-batch memory.

        Blocks always start at multiples of :meth:`block_size` counted
        from trial 0 — also under a ``trial_range`` window — so every
        window sees the same block starts (and the same per-block
        verify RNG keys) as the full run.
        """
        block = self.block_size(eval_batch_size)
        start, stop = self.span
        for base in range((start // block) * block, stop, block):
            lo, hi = max(base, start), min(base + block, stop)
            if lo < hi:
                yield np.arange(lo, hi)

    # ------------------------------------------------------- generic driver

    def map_trials(self, trial_fn):
        """Run ``trial_fn(index) -> value`` for every trial in the window.

        Trials run in order, in-process; each one fires the ``trial``
        fault site (when a schedule is active) and is retried on
        retryable failures.  Results keep trial order.
        """
        start, stop = self.span
        if active_schedule() is not None:
            inner_fn = trial_fn

            def trial_fn(index):
                active_schedule().fire("trial", index)
                return inner_fn(index)

        return [
            run_with_retry(lambda i=i: trial_fn(i))[0]
            for i in range(start, stop)
        ]

    def run(self, run_fn, label="", check_convergence=True, convergence_tol=0.02):
        """Scalar-compatible harness: ``run_fn(stream) -> float`` per trial.

        Equivalent to :func:`repro.core.metrics.monte_carlo` (same
        substream naming, same convergence bookkeeping), restricted to
        the engine's trial window.
        """
        from repro.core.metrics import MonteCarloResult

        values = np.asarray(
            self.map_trials(lambda i: float(run_fn(self.substream(i)))),
            dtype=np.float64,
        )
        converged = (
            running_mean_converged(values, rel_tol=convergence_tol,
                                   window=max(3, self.n_trials // 5))
            if check_convergence and self.n_trials >= 8
            else False
        )
        return MonteCarloResult(values=values, converged=converged, label=label)

    # ------------------------------------------------------------ pipelines

    def sweep_nwc(self, model, accelerator, order, space, eval_x, eval_y,
                  nwc_targets, eval_batch_size=256, read_time=None,
                  scorer=None, sense_x=None, sense_y=None):
        """Accuracy at each NWC target for every trial.

        The trial-batched counterpart of
        :func:`repro.core.swim.sweep_nwc`: one program + verify
        simulation per block covers all of the block's trials, and each
        target's deployment is evaluated for the whole block in one
        folded forward pass.  ``read_time`` ages the deployed levels
        through the accelerator's nonideality stack (retention drift),
        with per-trial named substreams so batched and scalar paths see
        bit-identical drift.  ``order=None`` with a ``scorer`` computes
        the ranking once here (``rng.child("scorer")``) on the
        ``sense_x/sense_y`` training data — Algorithm 1's protocol;
        ranking must not see the evaluation set — and shares it across
        every trial and both Monte Carlo paths (the scalar fallback
        receives the resolved order, so batched and scalar stay
        comparable even for rng-dependent scorers).

        Returns
        -------
        tuple
            ``(accuracies, achieved_nwc)`` arrays of shape
            ``(n_trials, len(nwc_targets))``; under a ``trial_range``
            window only the window's rows are written (absolute trial
            indexing), the rest are unspecified.
        """
        if order is None:
            if scorer is None:
                raise ValueError(
                    "sweep_nwc needs a precomputed order or a scorer"
                )
            if sense_x is None:
                raise ValueError(
                    "scorer= needs sense_x/sense_y (rank on training "
                    "data, not the evaluation set)"
                )
            accelerator.clear()
            order = scorer.ranking(
                model, space, sense_x, sense_y, rng=self.rng.child("scorer")
            )
        n_targets = len(nwc_targets)
        accuracies = np.empty((self.n_trials, n_targets), dtype=np.float64)
        achieved = np.empty((self.n_trials, n_targets), dtype=np.float64)

        if not self.batched:
            def scalar_trial(i):
                return sweep_nwc_scalar(
                    model, accelerator, order, space, eval_x, eval_y,
                    nwc_targets, self.substream(i),
                    eval_batch_size=eval_batch_size, read_time=read_time,
                )

            for i, (acc, nwc) in zip(
                range(*self.span), self.map_trials(scalar_trial)
            ):
                accuracies[i] = acc
                achieved[i] = nwc
            accelerator.clear()
            return accuracies, achieved

        counts = [int(round(t * space.total_size)) for t in nwc_targets]
        # The ranking is noise-independent, so the per-target masks are
        # shared by every block (and every trial) — build them once.
        target_masks = [space.masks_from_indices(order[:count]) for count in counts]
        for block in self.blocks(eval_batch_size):
            streams = self.substreams(block)
            accelerator.program_trials(
                [s.child("program").generator for s in streams]
            )
            accelerator.write_verify_trials(
                rng=self.rng.child("verify-batch", int(block[0])).generator
            )
            for k, masks in enumerate(target_masks):
                achieved[block, k] = accelerator.apply_selection_trials(
                    masks, read_time=read_time, read_streams=streams
                )
                accuracies[block, k] = evaluate_accuracy_trials(
                    model, eval_x, eval_y, len(block), eval_batch_size
                )
        accelerator.clear()
        return accuracies, achieved

    def selective_write_verify(self, model, accelerator, scorer, eval_x,
                               eval_y, baseline_accuracy, config=None,
                               sense_x=None, sense_y=None,
                               eval_batch_size=None):
        """Algorithm 1 for every trial, with an active-trial masked loop.

        The batched path assumes the scorer's ranking does not depend on
        the variation draw (true for SWIM's curvature ranking and all
        deterministic baselines): it is computed once — from
        ``rng.child("scorer")`` — and shared by all trials, which is
        what lets every group step deploy one mask stack.  The scalar
        path (``batched=False``) re-ranks per trial, so an
        RNG-dependent scorer such as ``RandomScorer`` gives correlated
        trials here but independent trials there; use the scalar path
        when per-trial ranking randomness matters.  Each group step
        re-deploys and re-evaluates only the trials whose accuracy drop
        still exceeds ``delta_a`` — trials leave the active set as they
        converge, exactly like devices leave the pulse loop's active
        set.

        Returns
        -------
        list
            One :class:`~repro.core.swim.SwimResult` per trial.
        """
        from repro.core.selection import WeightSpace
        from repro.core.swim import selective_write_verify as scalar_swim

        config = config if config is not None else SwimConfig()
        batch_size = (
            config.eval_batch_size if eval_batch_size is None else eval_batch_size
        )

        if not self.batched:
            return self.map_trials(
                lambda i: scalar_swim(
                    model, accelerator, scorer, eval_x, eval_y,
                    baseline_accuracy, config=config, rng=self.substream(i),
                    sense_x=sense_x, sense_y=sense_y,
                )
            )

        space = WeightSpace.from_model(model)
        if sense_x is None:
            sense_x, sense_y = eval_x, eval_y

        accelerator.clear()
        order = scorer.ranking(
            model, space, sense_x, sense_y, rng=self.rng.child("scorer")
        )

        results = [
            SwimResult(
                achieved_accuracy=0.0, achieved_nwc=0.0,
                selected_fraction=0.0, met_target=False,
            )
            for _ in range(self.n_trials)
        ]
        for block in self.blocks(batch_size):
            streams = self.substreams(block)
            accelerator.program_trials(
                [s.child("program").generator for s in streams]
            )
            accelerator.write_verify_trials(
                rng=self.rng.child("verify-batch", int(block[0])).generator
            )

            # NWC = 0 deployment first: some trials need no verification.
            nwc = accelerator.apply_selection_trials({})
            accuracy = evaluate_accuracy_trials(
                model, eval_x, eval_y, len(block), batch_size
            )
            selected = np.zeros(len(block), dtype=np.int64)
            latest_accuracy = accuracy.copy()
            latest_nwc = nwc.copy()
            for j, trial in enumerate(block):
                results[trial].accuracy_history.append(float(accuracy[j]))
                results[trial].nwc_history.append(float(nwc[j]))

            active = baseline_accuracy - accuracy > config.delta_a
            for prefix in cumulative_groups(order, config.granularity):
                if not active.any():
                    break
                active_idx = np.nonzero(active)[0]
                masks = space.masks_from_indices(prefix)
                nwc_active = accelerator.apply_selection_trials(
                    masks, trial_indices=active_idx
                )
                acc_active = evaluate_accuracy_trials(
                    model, eval_x, eval_y, len(active_idx), batch_size
                )
                latest_accuracy[active_idx] = acc_active
                latest_nwc[active_idx] = nwc_active
                selected[active_idx] = prefix.size
                for j, trial_local in enumerate(active_idx):
                    trial = block[trial_local]
                    results[trial].accuracy_history.append(float(acc_active[j]))
                    results[trial].nwc_history.append(float(nwc_active[j]))
                active[active_idx] = (
                    baseline_accuracy - acc_active > config.delta_a
                )

            for j, trial in enumerate(block):
                results[trial].achieved_accuracy = float(latest_accuracy[j])
                results[trial].achieved_nwc = float(latest_nwc[j])
                results[trial].selected_fraction = selected[j] / space.total_size
                results[trial].met_target = bool(
                    baseline_accuracy - latest_accuracy[j] <= config.delta_a
                )
        accelerator.clear()
        return results
