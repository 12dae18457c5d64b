"""Spatial-variation scenario: clustered failures stress selection quality.

The paper evaluates i.i.d. (temporal) variation and notes that spatial
variations "result from fabrication defects and have both local and global
correlations" (Sec. 2.1).  Under a correlated error field, *unverified*
weights fail in clusters: a whole neighbourhood of devices errs in the
same direction, so the damage a bad selection leaves behind is no longer
averaged away across the tensor — exactly the heterogeneity regime where
ranking by curvature alone stops being optimal.

This scenario sweeps the correlation length of a spatially-enabled
technology (``fefet-spatial`` by default) and runs the paired Monte Carlo
accuracy-vs-NWC sweep for ``swim``, ``hetero_swim`` (Eq. 5 fed by the
stack's analytic variance map) and ``magnitude`` at every length.  One
shared RNG root across lengths keeps the programming draws paired, so
differences down a column are purely the field's correlation structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cim import resolve_technology
from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments.model_zoo import load_workload
from repro.plan import PlanRequest, ScenarioCell, ScenarioOrchestrator
from repro.utils.rng import RngStream
from repro.utils.tables import Table

__all__ = ["SpatialResult", "run_spatial", "render_spatial"]

SPATIAL_METHODS = ("swim", "hetero_swim", "magnitude")


@dataclass
class SpatialResult:
    """Sweep outcomes keyed by correlation length, plus scenario metadata."""

    workload: str
    technology: str
    spatial_sigma: float
    global_fraction: float
    clean_accuracy: float
    nwc_targets: tuple
    outcomes: dict = field(default_factory=dict)  # corr length -> SweepOutcome


def run_spatial(scale, technology="fefet-spatial", correlation_lengths=None,
                nwc_targets=DEFAULT_NWC_TARGETS, methods=SPATIAL_METHODS,
                workload="lenet-digits", seed=17, batched=True,
                workers=None, plan_cache=None, plans_out=None,
                report_out=None):
    """Run the clustered-failure stress test across correlation lengths.

    Parameters
    ----------
    scale:
        A :class:`~repro.experiments.config.ScalePreset`
        (``mc_runs_spatial`` trials, ``spatial_correlation_lengths``
        grid).
    technology:
        A spatially-enabled profile (``spatial_sigma > 0``); each grid
        point runs a copy of it with that correlation length.
    correlation_lengths:
        Length grid in devices (default: the preset's); 0 means i.i.d.
    workers:
        Size the work-rectangle fork pool over the correlation-length
        cells' tiles (or ``REPRO_WORKERS``); results are bitwise-equal
        to serial.
    plan_cache / plans_out:
        Planner cache override, and an optional dict collecting the
        resolved ``length -> SelectionPlan`` mapping.
    report_out:
        Optional list collecting the orchestrator's
        :class:`~repro.robustness.report.RunReport`.

    Returns
    -------
    SpatialResult
    """
    base = resolve_technology(technology)
    if base.spatial_sigma <= 0:
        raise ValueError(
            f"technology {base.name!r} has no spatial variation "
            "(spatial_sigma = 0); use a spatially-enabled profile such as "
            "'fefet-spatial'"
        )
    lengths = (
        tuple(correlation_lengths)
        if correlation_lengths is not None
        else tuple(scale.spatial_correlation_lengths)
    )
    zoo = load_workload(scale.workload(workload))
    # One shared stream for every length: the same chips, refabricated
    # with the same draws but a differently structured error field.
    root = RngStream(seed).child("spatial", base.name)
    result = SpatialResult(
        workload=zoo.spec.key,
        technology=base.name,
        spatial_sigma=base.spatial_sigma,
        global_fraction=base.global_fraction,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(nwc_targets),
    )
    cells = [
        ScenarioCell(
            key=float(length),
            request=PlanRequest(
                methods=tuple(methods),
                nwc_targets=tuple(nwc_targets),
                technology=replace(base, correlation_length=float(length)),
                weight_bits=zoo.spec.weight_bits,
            ),
            rng=root,
            mc_runs=scale.mc_runs_spatial,
        )
        for length in lengths
    ]
    orchestrator = ScenarioOrchestrator(
        zoo, eval_samples=scale.eval_samples,
        sense_samples=scale.sense_samples, cache=plan_cache,
    )
    result.outcomes.update(
        orchestrator.run(cells, batched=batched, workers=workers,
                         scenario="spatial")
    )
    if plans_out is not None:
        plans_out.update(orchestrator.plans)
    if report_out is not None:
        report_out.append(orchestrator.report)
    return result


def render_spatial(result):
    """Stress-test layout: rows (correlation length, method), columns NWC."""
    headers = ["corr length", "Method"] + [
        f"NWC={t:g}" for t in result.nwc_targets
    ]
    table = Table(
        headers,
        title=(
            f"Spatial — {result.technology} "
            f"(sigma_s={result.spatial_sigma:g}, {result.workload}, "
            f"clean {100 * result.clean_accuracy:.2f}%)"
        ),
    )
    for length, outcome in sorted(result.outcomes.items()):
        first = True
        for method, curve in outcome.curves.items():
            label = "iid" if length == 0 else f"{length:g} dev"
            cells = [label if first else "", method]
            for i in range(len(result.nwc_targets)):
                stat = curve.mean_std(i)
                cells.append(f"{100 * stat.mean:.2f} ± {100 * stat.std:.2f}")
            table.add_row(cells)
            first = False
        table.add_separator()
    parts = [table.render()]
    parts.append(
        f"(global wafer fraction {result.global_fraction:g} of the field "
        "variance; correlation length 0 = i.i.d. reference)"
    )
    return "\n".join(parts)
