"""Ablation studies on SWIM's design choices (beyond the paper's tables).

Each study is one or more :class:`~repro.plan.ScenarioCell`\\ s that
:class:`~repro.plan.ScenarioOrchestrator` runs through
:func:`~repro.experiments.sweeps.run_method_sweep`, like every grid
scenario: the orders come from :class:`~repro.plan.PlanEngine`, every
deployment runs on the sweep's own accelerator, and the cells get tile
caching, ``--workers`` and spans.  A study's cells share one RNG
stream, so its settings compare on the same device draws:

- ``granularity`` — Algorithm 1's group size ``p`` (paper fixes 5%).
  Algorithm 1 deploys exactly the prefixes that
  :func:`~repro.core.selection.cumulative_groups` yields, so each ``p``
  sweeps those budgets on one paired draw and the stopping point is the
  first budget whose accuracy drop is within :data:`DELTA_A`.  Smaller
  groups stop closer to the minimal NWC but evaluate more often.
- ``device_bits`` — bits-per-device K (paper fixes 4): more slices of
  lower-precision devices change the Eq. 16 noise composition.
- ``tie_break`` — the Sec. 3.2 magnitude tie-breaker: ``swim`` against
  ``untied_swim`` on every draw.  The tie-break only reorders weights
  whose curvature is tied, so at a budget where both orders select the
  same set the two arms deploy the same weights and score the same.
- ``curvature_batches`` — how much data the single-pass curvature needs
  before the ranking stabilizes: Spearman against the curvature of the
  whole 512-sample sense set (all eight of its 64-sample batches).
- ``scorers`` — the cheap curvature surrogates (gradient, Fisher)
  between Magnitude and SWIM, every method on every draw.
- ``differential`` — differential-column noise (2x devices/weight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import WeightSpace, cumulative_groups
from repro.plan import (
    PlanEngine,
    PlanRequest,
    ScenarioCell,
    ScenarioOrchestrator,
)
from repro.utils.rng import RngStream
from repro.utils.stats import spearman

__all__ = [
    "AblationRow",
    "DELTA_A",
    "ablation_cells",
    "algorithm1_stop",
    "run_ablations",
]

#: Test images every deployment is scored on.
EVAL_SAMPLES = 300
#: Sense set of every study but ``curvature_batches``, curved in one batch.
SENSE_SAMPLES = 256
#: The curvature study's sense set and batch size (eight batches in all).
CURVATURE_SENSE_SAMPLES = 512
CURVATURE_BATCH_SIZE = 64
#: Monte Carlo trials per cell; Algorithm 1's study runs one paired draw.
TRIALS = 3
GRANULARITY_TRIALS = 1
#: Algorithm 1's accepted accuracy drop in the granularity study.
DELTA_A = 0.01
#: Root seed of the studies' streams.
SEED = 404


@dataclass
class AblationRow:
    """One ablation configuration's outcome."""

    label: str
    metrics: dict = field(default_factory=dict)


def algorithm1_stop(accuracies, baseline, delta_a=DELTA_A):
    """Index at which Algorithm 1 stops on a curve over its prefixes: the
    first budget whose accuracy drop is within ``delta_a``, else the last."""
    within = np.nonzero(baseline - np.asarray(accuracies) <= delta_a)[0]
    return int(within[0]) if within.size else len(accuracies) - 1


def ablation_cells(zoo):
    """The ablation grid: ``study -> [ScenarioCell]``, in render order.

    A cell's key is ``(study, setting)``, or the study name alone for the
    one-cell studies whose methods are the arms.
    """
    root = RngStream(SEED).child("ablations")
    total = WeightSpace.from_model(zoo.model).total_size

    def cell(study, setting, sigma, nwc_targets, methods=("swim",),
             mc_runs=TRIALS, **physics):
        return ScenarioCell(
            key=study if setting is None else (study, setting),
            request=PlanRequest(
                methods=methods,
                nwc_targets=nwc_targets,
                sigma=sigma,
                weight_bits=zoo.spec.weight_bits,
                **physics,
            ),
            rng=root.child(study),
            mc_runs=mc_runs,
        )

    def prefixes(p):
        # NWC = 0, then the budgets of Algorithm 1's k * round(p * N)
        # prefixes, which round(k * p * N) would miss.
        order = np.arange(total)
        return (0.0,) + tuple(
            prefix.size / total for prefix in cumulative_groups(order, p)
        )

    return {
        "granularity": [
            cell("granularity", p, 0.1, prefixes(p),
                 mc_runs=GRANULARITY_TRIALS)
            for p in (0.01, 0.05, 0.1, 0.25)
        ],
        "device_bits": [
            cell("device_bits", bits, 0.1, (0.1,), device_bits=bits)
            for bits in (1, 2, 4)
        ],
        "tie_break": [
            cell("tie_break", None, 0.15, (0.05, 0.1),
                 methods=("swim", "untied_swim")),
        ],
        "curvature_batches": [
            cell("curvature_batches", count, 0.15, (0.1,),
                 curvature_batches=count)
            for count in (1, 2, 8)
        ],
        "scorers": [
            cell("scorers", None, 0.15, (0.1,), methods=(
                "swim", "fisher", "gradient", "magnitude", "random")),
        ],
        "differential": [
            cell("differential", flag, 0.1, (0.0,), differential=flag)
            for flag in (False, True)
        ],
    }


def _granularity(cells, outcomes, orchestrator):
    baseline = orchestrator.zoo.clean_accuracy
    rows = []
    for cell in cells:
        curve = outcomes[cell.key].curve("swim")
        stops = [algorithm1_stop(run, baseline) for run in curve.accuracy_runs]
        accuracy = curve.accuracy_runs[np.arange(len(stops)), stops]
        rows.append(AblationRow(f"p={cell.key[1]:g}", {
            "achieved_nwc": float(curve.achieved_nwc[stops].mean()),
            "selected_fraction":
                float(np.take(curve.nwc_targets, stops).mean()),
            "accuracy": float(accuracy.mean()),
            "evaluations": float(np.mean(stops)) + 1,
            "met_target": float(np.mean(baseline - accuracy <= DELTA_A)),
        }))
    return rows


def _device_bits(cells, outcomes, orchestrator):
    rows = []
    for cell in cells:
        mapping = orchestrator.plans[cell.key].resolve()[2]
        curve = outcomes[cell.key].curve("swim")
        rows.append(AblationRow(f"K={cell.key[1]}", {
            "slices_per_weight": mapping.num_slices,
            "relative_noise_std": mapping.relative_noise_std(),
            "accuracy_mean": curve.mean_std(0).mean,
            "accuracy_std": curve.mean_std(0).std,
            "nwc": float(curve.achieved_nwc[0]),
        }))
    return rows


def _tie_break(cells, outcomes, orchestrator):
    outcome = outcomes[cells[0].key]
    return [
        AblationRow(label, {
            f"accuracy@{target:g}": outcome.curve(method).mean_std(i).mean
            for i, target in enumerate(outcome.nwc_targets)
        })
        for method, label in (("swim", "tie-break on"),
                              ("untied_swim", "tie-break off"))
    ]


def _curvature_batches(cells, outcomes, orchestrator):
    curvature = orchestrator.engine.curvature
    full = curvature(CURVATURE_SENSE_SAMPLES // CURVATURE_BATCH_SIZE)[0]
    return [
        AblationRow(f"{cell.key[1]} batch(es)", {
            "spearman_vs_full": spearman(curvature(cell.key[1])[0], full),
            "accuracy_mean": outcomes[cell.key].curve("swim").mean_std(0).mean,
        })
        for cell in cells
    ]


def _scorers(cells, outcomes, orchestrator):
    return [
        AblationRow(method, {
            "accuracy_mean": curve.mean_std(0).mean,
            "accuracy_std": curve.mean_std(0).std,
        })
        for method, curve in outcomes[cells[0].key].curves.items()
    ]


def _differential(cells, outcomes, orchestrator):
    return [
        AblationRow("differential" if cell.key[1] else "single-column", {
            "relative_noise_std":
                orchestrator.plans[cell.key].resolve()[2].relative_noise_std(),
            "unverified_accuracy_mean":
                outcomes[cell.key].curve("swim").mean_std(0).mean,
        })
        for cell in cells
    ]


_ROWS = {
    "granularity": _granularity,
    "device_bits": _device_bits,
    "tie_break": _tie_break,
    "curvature_batches": _curvature_batches,
    "scorers": _scorers,
    "differential": _differential,
}


def run_ablations(zoo, workers=None, report_out=None):
    """Run every study of :func:`ablation_cells` on ``zoo``.

    The curvature study plans over its own 512-sample sense set, so it
    runs as a second orchestrator grid after the 256-sample one.
    ``workers`` acts as in every scenario; ``report_out`` (a list,
    when given) collects both grids'
    :class:`~repro.robustness.report.RunReport`\\ s.

    Returns
    -------
    (dict, dict)
        ``study -> [AblationRow]`` in :func:`ablation_cells` order (a
        study with a failed cell is absent; its report records the
        failure), and ``cell key -> SelectionPlan`` over both grids,
        whose cell keys are distinct.
    """
    studies = ablation_cells(zoo)
    grids = (
        ("ablations", SENSE_SAMPLES, SENSE_SAMPLES,
         [name for name in studies if name != "curvature_batches"]),
        ("ablations/curvature_batches", CURVATURE_SENSE_SAMPLES,
         CURVATURE_BATCH_SIZE, ["curvature_batches"]),
    )
    rows, plans = {}, {}
    for scenario, sense, batch_size, names in grids:
        engine = PlanEngine(
            zoo.model, zoo.data.train_x[:sense], zoo.data.train_y[:sense],
            workload=zoo.spec.key, curvature_batch_size=batch_size,
        )
        orchestrator = ScenarioOrchestrator(
            zoo, eval_samples=EVAL_SAMPLES, sense_samples=sense, engine=engine,
        )
        outcomes = orchestrator.run(
            [cell for name in names for cell in studies[name]],
            workers=workers, scenario=scenario,
        )
        if report_out is not None:
            report_out.append(orchestrator.report)
        plans.update(orchestrator.plans)
        for name in names:
            if all(cell.key in outcomes for cell in studies[name]):
                rows[name] = _ROWS[name](studies[name], outcomes, orchestrator)
    return {name: rows[name] for name in studies if name in rows}, plans
