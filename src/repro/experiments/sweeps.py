"""Shared accuracy-vs-NWC sweep machinery for every scenario grid.

One Monte Carlo run programs the devices once and evaluates *every*
(method, NWC-target) pair against that same noise draw — a paired design
that reduces the variance of method comparisons, exactly what matters for
the paper's "who wins at fixed NWC" claims.

A scenario (Table 1, a Fig. 2 panel, devices, retention, spatial) is a
grid of :class:`~repro.plan.ScenarioCell`\\ s; :func:`run_grid` plans and
runs one and returns its :class:`GridResult`.  :func:`run_method_sweep`
is the repo's one Monte Carlo sweep: every cell runs through it, one
trial window (tile) at a time under the scenario orchestrator.  It
deploys a :class:`~repro.plan.SelectionPlan` and ranks nothing itself:
the plan carries the cell's physics, methods, NWC grid, selection counts
and the ``swim`` / ``hetero_swim`` / ``magnitude`` orders, all resolved
once per grid by :class:`~repro.plan.PlanEngine` (Sec. 3.3's one
sensitivity pass per model); only ``random`` re-draws its order per
trial.  Each block of trials shares one masked verify loop and one
folded forward pass per distinct deployment, whose result every
(method, target) cell deploying the same selection copies.  Trial ``i``
draws its programming noise from its own named substream,
``rng.child("mc", i)``, so the per-trial draw does not depend on the
block or tile that runs it.  The sweep walks its trial window in blocks
of :func:`~repro.core.mc.default_trial_block` trials.  Its reference in
the tests, ``tests/helpers.py::scalar_sweep``, runs one trial at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cim import CimAccelerator
from repro.core import (
    InSituConfig,
    InSituTrainer,
    RandomScorer,
    WeightSpace,
    evaluate_accuracy,
)
from repro.core.mc import default_trial_block
from repro.core.metrics import evaluate_accuracy_trials
from repro.plan import ScenarioOrchestrator
from repro.robustness.errors import ScenarioConfigError
from repro.utils.stats import summarize

__all__ = [
    "GridResult",
    "MethodCurve",
    "PAPER_METHODS",
    "SweepOutcome",
    "WRITE_VERIFY_METHODS",
    "run_grid",
    "run_method_sweep",
]

WRITE_VERIFY_METHODS = ("swim", "magnitude", "random")
#: Table 1's and Fig. 2's methods: the write-verify ones plus in-situ.
PAPER_METHODS = WRITE_VERIFY_METHODS + ("insitu",)


@dataclass
class MethodCurve:
    """Accuracy-vs-NWC samples for one method.

    ``accuracy_runs`` and ``nwc_runs`` have one row per Monte Carlo
    trial and one column per NWC target; ``achieved_nwc`` is the
    across-trial mean of ``nwc_runs`` (it is nearly deterministic).
    """

    method: str
    nwc_targets: tuple
    accuracy_runs: np.ndarray
    nwc_runs: np.ndarray

    @property
    def achieved_nwc(self):
        """Mean achieved NWC per target."""
        return self.nwc_runs.mean(axis=0)

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
                insitu_lr):
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
    baseline = evaluate_accuracy(zoo.model, eval_x, eval_y)

    history = None
    if positive:
        history = trainer.run(
            zoo.data.train_x, zoo.data.train_y, positive[-1],
            run_rng.child("train"),
            eval_x=eval_x, eval_y=eval_y, eval_at=set(positive),
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


def _selection_key(indices, total):
    """What a deployment selects: ``"none"``, ``"all"``, or a digest.

    Equal keys on one trial block deploy equal weights, so the sweep
    evaluates each key once per block.  ``indices`` is a prefix
    of a full ranking (a permutation of the weight space), so a prefix
    of ``total`` indices selects every weight.
    """
    if len(indices) == 0:
        return "none"
    if len(indices) == total:
        return "all"
    selected = np.sort(np.asarray(indices, dtype=np.int64))
    return hashlib.sha256(selected.tobytes()).hexdigest()


def _batched_sweep(rng, window, zoo, accelerator, space, orders, methods,
                   counts, nwc_targets, eval_x, eval_y, insitu_lr, acc_store,
                   nwc_store, read_time=None):
    """Trial-batched sweep body: fills the per-method stores in place.

    The ``(start, stop)`` trial ``window`` runs in blocks of
    :func:`~repro.core.mc.default_trial_block` trials from ``start``.
    Each block of trials is programmed from its per-trial substreams
    and verified through one masked pulse loop.  Each distinct
    deployment of the block is then evaluated once, in one folded
    forward pass, and its accuracy and NWC are copied into every
    (method, target) that deploys the same selection: no selection at
    NWC = 0, every weight at NWC = 1, or equal index sets of the
    deterministic orders.  ``random`` draws a new order per trial, so
    it shares only those two ends.  This is exact: equal selections on
    one block are equal weights, the programming and verify streams are
    per block, and drift draws are named substreams
    (:meth:`~repro.cim.CimAccelerator._drifted`).
    The in-situ baseline is an on-chip *training* loop, inherently
    sequential, so it runs one trial at a time on the trial's
    ``"insitu"`` substream and programs and verifies its own draw
    (:meth:`~repro.core.InSituTrainer.initialize`).
    """
    total = space.total_size
    # Each (method, target)'s selection key; None (random between the
    # ends, whose order is drawn per trial) is never shared.
    keys = {
        method: [
            {0: "none", total: "all"}.get(count) if method == "random"
            else _selection_key(orders[method][:count], total)
            for count in counts
        ]
        for method in methods
        if method != "insitu"
    }
    # Deterministic rankings are block-invariant: mask each distinct
    # selection once instead of once per block.
    shared_masks = {}
    for method, order in orders.items():
        for key, count in zip(keys[method], counts):
            if key not in shared_masks:
                shared_masks[key] = space.masks_from_indices(order[:count])
    start, stop = window
    width = default_trial_block()
    for first in range(start, stop, width):
        block = range(first, min(first + width, stop))
        rows = slice(first, block.stop)
        streams = [rng.child("mc", trial) for trial in block]
        accelerator.program_trials(
            [s.child("program").generator for s in streams]
        )
        accelerator.write_verify_trials(
            rng=rng.child("verify-batch", first).generator
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

        evaluated = {}  # selection key -> (nwc, accuracy) on this block
        for method, method_keys in keys.items():
            for i, (key, count) in enumerate(zip(method_keys, counts)):
                if key in evaluated:
                    nwc, accuracy = evaluated[key]
                else:
                    if key in shared_masks:
                        masks = shared_masks[key]
                    else:
                        masks = space.masks_from_indices_trials(
                            [order[:count] for order in random_orders]
                        )
                    nwc = accelerator.apply_selection_trials(
                        masks, read_time=read_time, read_streams=streams
                    )
                    accuracy = evaluate_accuracy_trials(
                        zoo.model, eval_x, eval_y, len(block)
                    )
                    if key is not None:
                        evaluated[key] = nwc, accuracy
                nwc_store[method][rows, i] = nwc
                acc_store[method][rows, i] = accuracy

        if "insitu" in methods:
            for trial, stream in zip(block, streams):
                accuracies, achieved = _insitu_row(
                    zoo, accelerator, nwc_targets, stream.child("insitu"),
                    eval_x, eval_y, insitu_lr,
                )
                acc_store["insitu"][trial] = accuracies
                nwc_store["insitu"][trial] = achieved


def run_method_sweep(zoo, plan, mc_runs, rng, eval_samples=400,
                     insitu_lr=0.03, trial_range=None):
    """Run the full paired Monte Carlo sweep of one planned cell.

    Parameters
    ----------
    zoo:
        A :class:`~repro.experiments.model_zoo.ZooModel`.
    plan:
        The cell's :class:`~repro.plan.SelectionPlan`, resolved by a
        :class:`~repro.plan.PlanEngine` over ``zoo.model`` at the
        workload's ``weight_bits`` (or loaded with
        :func:`~repro.plan.load_plans`); the sweep refuses a plan
        resolved for another model or bit width.  It supplies everything
        but the Monte Carlo envelope: the physics (technology, sigma,
        bits, and the ``read_time`` at which deployments are read), the
        methods, the NWC grid with its selection counts, and the orders
        of the planned methods.  ``random`` re-draws its order per trial
        and ``insitu`` trains on-chip; the in-situ baseline has no
        deployment-time read, so a plan with a ``read_time`` cannot
        carry it.
    mc_runs:
        Monte Carlo trials (paper: 3000).
    rng:
        Root :class:`~repro.utils.rng.RngStream` for this sweep.
    eval_samples:
        Test subset for accuracy.
    insitu_lr:
        On-chip learning rate of the in-situ baseline.
    trial_range:
        Optional ``(start, stop)`` window: evaluate only trials
        ``start..stop-1`` of the ``mc_runs`` protocol, with absolute
        per-trial substreams — the work-rectangle scheduler's tile
        unit.  Both ends must sit on the trial-block grid (``stop``
        may also be ``mc_runs``): the shared verify stream is keyed
        per block.  The returned curves then hold the
        window's ``stop - start`` trial rows, so adjacent windows stack
        exactly (:func:`repro.robustness.checkpoint.merge_outcomes`)
        into the full sweep.

    Returns
    -------
    SweepOutcome
    """
    if mc_runs < 1:
        raise ValueError("mc_runs must be >= 1")
    start, stop = (0, mc_runs) if trial_range is None else (
        int(trial_range[0]), int(trial_range[1])
    )
    if not 0 <= start < stop <= mc_runs:
        raise ValueError(
            f"trial_range {trial_range!r} outside [0, {mc_runs}]"
        )
    width = default_trial_block()
    if start % width or (stop % width and stop != mc_runs):
        raise ValueError(
            f"trial_range {trial_range!r} must align to the "
            f"{width}-trial block grid: the shared verify stream is "
            "keyed per block, so a misaligned window would not "
            "reproduce the full run"
        )
    methods, nwc_targets, read_time = (
        plan.methods, plan.nwc_targets, plan.read_time
    )
    if read_time is not None and "insitu" in methods:
        # PlanRequest refuses this pair; a plan loaded from JSON may not.
        raise ScenarioConfigError(
            "the insitu baseline does not support read_time"
        )
    model, data = zoo.model, zoo.data
    space = WeightSpace.from_model(model)
    if space.total_size != plan.total_weights:
        raise ValueError(
            f"plan was resolved over {plan.total_weights} weights but "
            f"the model has {space.total_size}"
        )
    if plan.weight_bits != zoo.spec.weight_bits:
        raise ValueError(
            f"plan maps {plan.weight_bits}-bit weights but workload "
            f"{zoo.spec.key!r} quantizes to {zoo.spec.weight_bits} bits"
        )
    tech, device, mapping, stack = plan.resolve()
    accelerator = CimAccelerator(model, mapping_config=mapping, stack=stack)
    orders = {
        method: plan.order(method)
        for method in methods
        if method not in ("random", "insitu")
    }
    counts = plan.counts

    eval_x = data.test_x[:eval_samples]
    eval_y = data.test_y[:eval_samples]

    n_targets = len(nwc_targets)
    acc_store = {m: np.empty((mc_runs, n_targets)) for m in methods}
    nwc_store = {m: np.zeros((mc_runs, n_targets)) for m in methods}

    try:
        _batched_sweep(
            rng, (start, stop), zoo, accelerator, space, orders, methods,
            counts, nwc_targets, eval_x, eval_y, insitu_lr, acc_store,
            nwc_store, read_time=read_time,
        )
    finally:
        # A failed tile must not leave its noisy weights deployed on the
        # model that the next plan ranks.
        accelerator.clear()
    wear = accelerator.wear_summary()
    outcome = SweepOutcome(
        workload=zoo.spec.key,
        sigma=device.sigma,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(nwc_targets),
        technology=tech.name if tech is not None else "",
        read_time=read_time,
        wear=wear,
    )
    window = slice(start, stop)
    for method in methods:
        outcome.curves[method] = MethodCurve(
            method=method,
            nwc_targets=tuple(nwc_targets),
            accuracy_runs=acc_store[method][window],
            nwc_runs=nwc_store[method][window],
        )
    return outcome


@dataclass
class GridResult:
    """One scenario grid's sweep outcomes and selection plans.

    ``outcomes`` and ``plans`` are keyed by cell key, in cell order; a
    cell that failed permanently has a plan but no outcome (the run
    report says why).
    """

    scenario: str
    workload: str
    clean_accuracy: float
    nwc_targets: tuple
    outcomes: dict
    plans: dict


def run_grid(scenario, zoo, cells, scale, workers=None, plan_cache=None,
             report_out=None):
    """Plan and run a scenario's cells on ``zoo``; returns the
    :class:`GridResult`.

    ``scale`` supplies the evaluation and sensitivity subset sizes.
    ``workers`` sizes the work-rectangle fork pool over the grid's
    (cells x trial-blocks) tiles, each a :func:`run_method_sweep`
    window (or ``REPRO_WORKERS``; results are bitwise-equal to serial);
    ``plan_cache`` overrides the shared on-disk
    :class:`~repro.plan.PlanArtifactCache`; and ``report_out`` (a
    list, when given) collects the orchestrator's
    :class:`~repro.robustness.report.RunReport`.  The cells share one
    NWC grid, the result's ``nwc_targets`` (empty for an empty grid).
    """
    cells = list(cells)
    orchestrator = ScenarioOrchestrator(
        zoo, eval_samples=scale.eval_samples,
        sense_samples=scale.sense_samples, cache=plan_cache,
    )
    outcomes = orchestrator.run(cells, workers=workers, scenario=scenario)
    if report_out is not None:
        report_out.append(orchestrator.report)
    return GridResult(
        scenario=scenario,
        workload=zoo.spec.key,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=cells[0].request.nwc_targets if cells else (),
        outcomes=outcomes,
        plans=orchestrator.plans,
    )
