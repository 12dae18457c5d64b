"""Table 1 reproduction: LeNet accuracy vs NWC under three device sigmas.

Paper layout: rows are (sigma, method), columns are NWC in
{0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}; each cell is mean +/- std accuracy
over Monte Carlo runs.  The paper's arrows (shared cells) are rendered as
explicit values here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments.model_zoo import load_workload
from repro.plan import PlanRequest, ScenarioCell, ScenarioOrchestrator
from repro.utils.rng import RngStream
from repro.utils.tables import Table

__all__ = ["Table1Result", "run_table1", "render_table1", "TABLE1_SIGMAS"]

TABLE1_SIGMAS = (0.1, 0.15, 0.2)
_METHOD_LABELS = {
    "swim": "SWIM",
    "magnitude": "Magnitude",
    "random": "Random",
    "insitu": "In-situ",
}


@dataclass
class Table1Result:
    """Sweep outcomes keyed by sigma, plus workload metadata."""

    workload: str
    clean_accuracy: float
    nwc_targets: tuple
    outcomes: dict = field(default_factory=dict)  # sigma -> SweepOutcome


def run_table1(scale, sigmas=TABLE1_SIGMAS, nwc_targets=DEFAULT_NWC_TARGETS,
               methods=("swim", "magnitude", "random", "insitu"),
               seed=1, batched=True, workers=None,
               plan_cache=None, plans_out=None, report_out=None):
    """Run the Table 1 experiment at a given scale preset.

    ``batched`` selects the trial-batched Monte Carlo engine (default).
    ``workers`` sizes the work-rectangle scheduler's fork pool over the
    (cells x trial-blocks) tiles (results bitwise-equal to serial); the
    deterministic selections themselves are planned once for all sigmas
    — the curvature ranking does not depend on the device noise level.
    ``report_out`` (a list, when given) collects the orchestrator's
    :class:`~repro.robustness.report.RunReport`.

    Returns
    -------
    Table1Result
    """
    zoo = load_workload(scale.workload("lenet-digits"))
    root = RngStream(seed).child("table1")
    result = Table1Result(
        workload=zoo.spec.key,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(nwc_targets),
    )
    cells = [
        ScenarioCell(
            key=sigma,
            request=PlanRequest(
                methods=tuple(methods),
                nwc_targets=tuple(nwc_targets),
                sigma=sigma,
                weight_bits=zoo.spec.weight_bits,
            ),
            rng=root.child("sigma", str(sigma)),
            mc_runs=scale.mc_runs_table1,
            sweep_kwargs={"insitu_lr": scale.insitu_lr},
        )
        for sigma in sigmas
    ]
    orchestrator = ScenarioOrchestrator(
        zoo, eval_samples=scale.eval_samples,
        sense_samples=scale.sense_samples, cache=plan_cache,
    )
    result.outcomes.update(
        orchestrator.run(cells, batched=batched, workers=workers,
                         scenario="table1")
    )
    if plans_out is not None:
        plans_out.update(orchestrator.plans)
    if report_out is not None:
        report_out.append(orchestrator.report)
    return result


def render_table1(result, as_markdown=False):
    """Render a Table1Result in the paper's row/column layout."""
    headers = ["sigma", "Method"] + [f"NWC={t:g}" for t in result.nwc_targets]
    table = Table(
        headers,
        title=(
            f"Table 1 — {result.workload}: accuracy (%) vs NWC "
            f"(clean accuracy {100 * result.clean_accuracy:.2f}%)"
        ),
    )
    for sigma, outcome in sorted(result.outcomes.items()):
        first = True
        for method, curve in outcome.curves.items():
            cells = [f"{sigma:g}" if first else "", _METHOD_LABELS[method]]
            for i in range(len(result.nwc_targets)):
                stat = curve.mean_std(i)
                cells.append(f"{100 * stat.mean:.2f} ± {100 * stat.std:.2f}")
            table.add_row(cells)
            first = False
        table.add_separator()
    return table.render_markdown() if as_markdown else table.render()
