"""Shared accuracy-vs-NWC sweep machinery for Table 1 and Figure 2.

One Monte Carlo run programs the devices once and evaluates *every*
(method, NWC-target) pair against that same noise draw — a paired design
that reduces the variance of method comparisons, exactly what matters for
the paper's "who wins at fixed NWC" claims.

By default the Monte Carlo trials run through the trial-batched engine
(:mod:`repro.core.mc`): each block of trials shares one masked verify
loop and one folded forward pass per (method, target) cell.  Pass
``batched=False`` for the scalar reference loop (the path for workloads
too large to batch in memory; the scenario orchestrator's ``workers=``
pool parallelizes it across trial windows).  Trial ``i`` draws its
programming noise from the same named substream in every mode, so the
paired design — and the per-trial noise draw itself — is identical
across paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cim import (
    CimAccelerator,
    DeviceConfig,
    MappingConfig,
    resolve_technology,
)
from repro.core import (
    InSituConfig,
    InSituTrainer,
    MagnitudeScorer,
    MonteCarloEngine,
    RandomScorer,
    SwimScorer,
    WeightSpace,
    evaluate_accuracy,
    rank_descending,
    variance_map_from_mapping,
    variance_map_from_stack,
)
from repro.core.metrics import evaluate_accuracy_trials
from repro.utils.stats import summarize

__all__ = ["MethodCurve", "SweepOutcome", "run_method_sweep", "WRITE_VERIFY_METHODS"]

WRITE_VERIFY_METHODS = ("swim", "magnitude", "random")


@dataclass
class MethodCurve:
    """Accuracy-vs-NWC samples for one method.

    ``accuracy_runs`` has shape ``(mc_runs, n_targets)``; ``achieved_nwc``
    is averaged over runs (it is nearly deterministic).
    """

    method: str
    nwc_targets: tuple
    accuracy_runs: np.ndarray
    achieved_nwc: np.ndarray

    def mean_std(self, target_index):
        """Paper-style mean +/- std at one NWC target."""
        return summarize(self.accuracy_runs[:, target_index])

    def means(self):
        """Mean accuracy per target."""
        return self.accuracy_runs.mean(axis=0)

    def stds(self):
        """Std of accuracy per target."""
        return self.accuracy_runs.std(axis=0)


@dataclass
class SweepOutcome:
    """All method curves for one workload at one device sigma.

    ``technology`` / ``read_time`` / ``wear`` are populated by
    technology-aware sweeps (the devices and retention scenarios) and
    stay at their defaults for the paper's plain sigma sweeps.
    """

    workload: str
    sigma: float
    clean_accuracy: float
    nwc_targets: tuple
    curves: dict = field(default_factory=dict)
    technology: str = ""
    read_time: float = None
    wear: dict = None

    def curve(self, method):
        """Look up one method's curve."""
        return self.curves[method]


def _insitu_row(zoo, accelerator, nwc_targets, run_rng, eval_x, eval_y,
                insitu_lr, eval_batch_size=256):
    """Accuracy at each NWC target for one in-situ training run."""
    trainer = InSituTrainer(
        zoo.model, accelerator, InSituConfig(lr=insitu_lr)
    )
    trainer.initialize(run_rng.child("init"))
    accuracies = np.empty(len(nwc_targets), dtype=np.float64)
    achieved = np.empty(len(nwc_targets), dtype=np.float64)

    checkpoint_iters = {}
    for i, target in enumerate(nwc_targets):
        iters = trainer.iterations_for_nwc(target)
        checkpoint_iters[i] = iters
    positive = sorted({v for v in checkpoint_iters.values() if v > 0})

    # NWC = 0: the freshly programmed, unverified network.
    baseline = evaluate_accuracy(zoo.model, eval_x, eval_y, eval_batch_size)

    history = None
    if positive:
        history = trainer.run(
            zoo.data.train_x, zoo.data.train_y, positive[-1],
            run_rng.child("train"),
            eval_x=eval_x, eval_y=eval_y, eval_at=set(positive),
            eval_batch_size=eval_batch_size,
        )
    recorded = (
        dict(zip(history.iterations, zip(history.accuracy, history.nwc)))
        if history is not None
        else {}
    )
    per_iteration = accelerator.num_weights() / accelerator.total_cycles()
    for i, target in enumerate(nwc_targets):
        iters = checkpoint_iters[i]
        if iters == 0:
            accuracies[i] = baseline
            achieved[i] = 0.0
        else:
            accuracy, nwc = recorded[iters]
            accuracies[i] = accuracy
            achieved[i] = nwc if nwc > 0 else iters * per_iteration
    return accuracies, achieved


def _batched_sweep(engine, zoo, accelerator, space, orders, methods, counts,
                   nwc_targets, eval_x, eval_y, insitu_lr, acc_store,
                   nwc_store, read_time=None):
    """Trial-batched sweep body: fills the per-method stores in place.

    Each block of trials is programmed from its per-trial substreams
    (bit-identical to the scalar path), verified through one masked pulse
    loop, and every (method, target) cell is evaluated for the whole
    block in one folded forward pass.  The in-situ baseline is an
    on-chip *training* loop, inherently sequential, so it keeps the
    scalar per-trial path — its substreams match the scalar mode too.
    """
    # Deterministic rankings are block-invariant: build each target's
    # masks once instead of once per block.
    shared_masks = {
        method: [space.masks_from_indices(orders[method][:count])
                 for count in counts]
        for method in methods
        if method not in ("insitu", "random")
    }
    for block in engine.blocks():
        streams = engine.substreams(block)
        accelerator.program_trials(
            [s.child("program").generator for s in streams]
        )
        accelerator.write_verify_trials(
            rng=engine.rng.child("verify-batch", int(block[0])).generator
        )

        random_orders = None
        if "random" in methods:
            random_orders = [
                RandomScorer().ranking(
                    zoo.model, space, None, None,
                    rng=s.child("random-order"),
                )
                for s in streams
            ]

        for method in methods:
            if method == "insitu":
                continue
            for i, count in enumerate(counts):
                if method == "random":
                    masks = space.masks_from_indices_trials(
                        [order[:count] for order in random_orders]
                    )
                else:
                    masks = shared_masks[method][i]
                nwc_store[method][block, i] = accelerator.apply_selection_trials(
                    masks, read_time=read_time, read_streams=streams
                )
                acc_store[method][block, i] = evaluate_accuracy_trials(
                    zoo.model, eval_x, eval_y, len(block)
                )

        if "insitu" in methods:
            for trial, stream in zip(block, streams):
                accelerator.program(stream.child("program").generator)
                accelerator.write_verify_all(stream.child("verify").generator)
                accuracies, achieved = _insitu_row(
                    zoo, accelerator, nwc_targets, stream.child("insitu"),
                    eval_x, eval_y, insitu_lr,
                )
                acc_store["insitu"][trial] = accuracies
                nwc_store["insitu"][trial] = achieved


def _scalar_sweep_trial(run_rng, zoo, accelerator, space, orders, methods,
                        counts, nwc_targets, eval_x, eval_y, insitu_lr,
                        read_time=None):
    """One scalar Monte Carlo trial: rows for every method.

    Returns ``method -> (accuracy_row, nwc_row)``.
    """
    accelerator.program(run_rng.child("program").generator)
    accelerator.write_verify_all(run_rng.child("verify").generator)

    run_orders = dict(orders)
    if "random" in methods:
        run_orders["random"] = RandomScorer().ranking(
            zoo.model, space, None, None, rng=run_rng.child("random-order")
        )

    rows = {}
    for method in methods:
        if method == "insitu":
            continue
        order = run_orders[method]
        accuracies = np.empty(len(counts), dtype=np.float64)
        achieved = np.empty(len(counts), dtype=np.float64)
        for i, count in enumerate(counts):
            masks = space.masks_from_indices(order[:count])
            achieved[i] = accelerator.apply_selection(
                masks, read_time=read_time, read_stream=run_rng
            )
            accuracies[i] = evaluate_accuracy(zoo.model, eval_x, eval_y)
        rows[method] = (accuracies, achieved)

    if "insitu" in methods:
        rows["insitu"] = _insitu_row(
            zoo, accelerator, nwc_targets, run_rng.child("insitu"),
            eval_x, eval_y, insitu_lr,
        )
    return rows


def run_method_sweep(
    zoo,
    sigma,
    nwc_targets,
    mc_runs,
    rng,
    eval_samples=400,
    sense_samples=512,
    methods=("swim", "magnitude", "random", "insitu"),
    insitu_lr=0.03,
    device_bits=4,
    curvature_batches=2,
    batched=True,
    trial_block=None,
    trial_range=None,
    technology=None,
    read_time=None,
    orders=None,
):
    """Run the full paired Monte Carlo sweep for one workload and sigma.

    Parameters
    ----------
    zoo:
        A :class:`~repro.experiments.model_zoo.ZooModel`.
    sigma:
        Device programming noise (fraction of full-scale) before verify.
        May be None when ``technology`` is given (the profile's sigma).
    nwc_targets:
        NWC grid, e.g. the paper's ``(0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)``.
    mc_runs:
        Monte Carlo trials (paper: 3000).
    rng:
        Root :class:`~repro.utils.rng.RngStream` for this sweep.
    eval_samples / sense_samples:
        Test subset for accuracy, train subset for sensitivity.
    methods:
        Subset of {swim, hetero_swim, magnitude, random, insitu}.
        ``hetero_swim`` is the Eq. 5 ranking with the per-weight variance
        map supplied by the technology's nonideality stack at this
        sweep's ``read_time`` (falling back to the per-tensor Eq. 16
        variance when no technology is given); it shares the curvature
        pass with ``swim``, so requesting both costs one extra ranking,
        not one extra sensitivity analysis.
    insitu_lr:
        On-chip learning rate of the in-situ baseline.
    device_bits:
        K (paper: 4).  Ignored when ``technology`` supplies the cell.
    curvature_batches:
        Batches accumulated in SWIM's curvature pass.
    batched:
        Drive the write-verify methods through the trial-batched Monte
        Carlo engine (default).  ``False`` selects the scalar reference
        loop; per-trial programming noise is identical either way.
    trial_block:
        Trials per batched block (default: memory-bounded heuristic).
    trial_range:
        Optional ``(start, stop)`` window: evaluate only trials
        ``start..stop-1`` of the ``mc_runs`` protocol, with absolute
        per-trial substreams — the work-rectangle scheduler's tile
        unit.  ``start`` must sit on a trial-block boundary in batched
        mode (the shared verify stream is keyed per block).  The
        returned curves then hold *raw per-trial rows*:
        ``accuracy_runs`` has ``stop - start`` rows and
        ``achieved_nwc`` is the per-trial ``(stop - start, n_targets)``
        slice rather than the across-trial mean, so adjacent windows
        merge exactly (:func:`repro.robustness.checkpoint.
        merge_outcomes`) into the full sweep's bits.
    technology:
        Registered :class:`~repro.cim.DeviceTechnology` name (or
        instance): derives the device config and the full nonideality
        stack (drift, spatial correlation, endurance) from the profile.
    read_time:
        Seconds since programming at which the deployed weights are
        read; only meaningful when the technology's stack models drift.
        The in-situ baseline has no deployment-time read, so it is not
        supported together with ``read_time``.
    orders:
        Precomputed ``method -> flat index ranking`` (a
        :class:`~repro.plan.SelectionPlan`'s ``orders``): methods found
        here skip their in-sweep scoring entirely — in particular, no
        curvature pass runs when both ``swim`` and ``hetero_swim``
        arrive planned.  Missing methods are scored inline as before,
        so partial plans compose.

    Returns
    -------
    SweepOutcome
    """
    model, data, spec = zoo.model, zoo.data, zoo.spec
    if read_time is not None and "insitu" in methods:
        raise ValueError("the insitu baseline does not support read_time")
    stack = None
    tech_name = ""
    if technology is not None:
        tech = resolve_technology(technology)
        tech_name = tech.name
        device = tech.device_config()
        if sigma is not None:
            device = device.with_sigma(sigma)
        stack = tech.build_stack()
    else:
        device = DeviceConfig(bits=device_bits, sigma=sigma)
    mapping = MappingConfig(weight_bits=spec.weight_bits, device=device)
    accelerator = CimAccelerator(model, mapping_config=mapping, stack=stack)
    space = WeightSpace.from_model(model)

    eval_x = data.test_x[:eval_samples]
    eval_y = data.test_y[:eval_samples]
    sense_x = data.train_x[:sense_samples]
    sense_y = data.train_y[:sense_samples]

    # Deterministic rankings are computed once (they do not depend on the
    # noise draw); random gets a fresh permutation per run.  swim and
    # hetero_swim share one curvature accumulation — they differ only in
    # the variance map multiplied in before ranking.  Methods arriving
    # in ``orders`` (planned by a PlanEngine, typically shared across a
    # whole scenario grid) skip their scoring here.
    accelerator.clear()
    orders = (
        {m: np.asarray(o, dtype=np.int64) for m, o in orders.items()
         if m in methods}
        if orders is not None
        else {}
    )
    if any(m in methods and m not in orders
           for m in ("swim", "hetero_swim")):
        curvature_scorer = SwimScorer(
            batch_size=min(256, sense_samples), max_batches=curvature_batches
        )
        curvature = curvature_scorer.scores(model, space, sense_x, sense_y)
        tie = curvature_scorer.tie_break(model, space)
    if "swim" in methods and "swim" not in orders:
        orders["swim"] = rank_descending(curvature, tie)
    if "hetero_swim" in methods and "hetero_swim" not in orders:
        variance = (
            variance_map_from_stack(
                space, model, mapping, stack, read_time=read_time
            )
            if stack is not None
            else variance_map_from_mapping(space, model, mapping)
        )
        orders["hetero_swim"] = rank_descending(curvature * variance, tie)
    if "magnitude" in methods and "magnitude" not in orders:
        orders["magnitude"] = MagnitudeScorer().ranking(
            model, space, sense_x, sense_y
        )

    n_targets = len(nwc_targets)
    acc_store = {m: np.empty((mc_runs, n_targets)) for m in methods}
    nwc_store = {m: np.zeros((mc_runs, n_targets)) for m in methods}

    counts = [int(round(t * space.total_size)) for t in nwc_targets]
    engine = MonteCarloEngine(
        mc_runs, rng, batched=batched,
        trial_block=trial_block, trial_range=trial_range,
    )
    if trial_range is not None and batched:
        block = engine.block_size()
        start, stop = engine.span
        if start % block or (stop % block and stop != mc_runs):
            raise ValueError(
                f"trial_range {trial_range!r} must align to the "
                f"{block}-trial block grid for the batched path: the "
                "shared verify stream is keyed per block, so a "
                "misaligned window would not reproduce the full run"
            )

    if batched:
        _batched_sweep(
            engine, zoo, accelerator, space, orders, methods, counts,
            nwc_targets, eval_x, eval_y, insitu_lr, acc_store, nwc_store,
            read_time=read_time,
        )
    else:
        rows_per_trial = engine.map_trials(
            lambda i: _scalar_sweep_trial(
                engine.substream(i), zoo, accelerator, space, orders,
                methods, counts, nwc_targets, eval_x, eval_y, insitu_lr,
                read_time=read_time,
            )
        )
        for run, rows in zip(range(*engine.span), rows_per_trial):
            for method, (accuracies, achieved) in rows.items():
                acc_store[method][run] = accuracies
                nwc_store[method][run] = achieved

    wear = accelerator.wear_summary()
    accelerator.clear()
    outcome = SweepOutcome(
        workload=spec.key,
        sigma=device.sigma,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(nwc_targets),
        technology=tech_name,
        read_time=read_time,
        wear=wear,
    )
    start, stop = engine.span
    for method in methods:
        if trial_range is None:
            accuracy_runs = acc_store[method]
            achieved_nwc = nwc_store[method].mean(axis=0)
        else:
            # Tile mode: return the window's raw rows (no mean) so the
            # scheduler can vstack adjacent tiles and reproduce the
            # full-run reduction bit for bit.
            accuracy_runs = acc_store[method][start:stop].copy()
            achieved_nwc = nwc_store[method][start:stop].copy()
        outcome.curves[method] = MethodCurve(
            method=method,
            nwc_targets=tuple(nwc_targets),
            accuracy_runs=accuracy_runs,
            achieved_nwc=achieved_nwc,
        )
    return outcome
