"""Table 1 reproduction: LeNet accuracy vs NWC under three device sigmas.

Paper layout: rows are (sigma, method), columns are NWC in
{0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}; each cell is mean +/- std accuracy
over Monte Carlo runs.  The paper's arrows (shared cells) are rendered as
explicit values here.
"""

from __future__ import annotations

from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import method_table
from repro.experiments.sweeps import PAPER_METHODS, run_grid
from repro.plan import PlanRequest, ScenarioCell
from repro.utils.rng import RngStream

__all__ = ["run_table1", "render_table1", "TABLE1_SIGMAS"]

TABLE1_SIGMAS = (0.1, 0.15, 0.2)
_METHOD_LABELS = {
    "swim": "SWIM",
    "magnitude": "Magnitude",
    "random": "Random",
    "insitu": "In-situ",
}


def run_table1(scale, seed=1, workers=None, plan_cache=None,
               report_out=None):
    """Run the Table 1 grid (one cell per sigma) at a scale preset.

    The deterministic selections are planned once for all sigmas — the
    curvature ranking does not depend on the device noise level.
    ``workers``, ``plan_cache`` and ``report_out`` act as in
    :func:`~repro.experiments.sweeps.run_grid`.

    Returns
    -------
    repro.experiments.sweeps.GridResult
        Keyed by sigma.
    """
    zoo = load_workload(scale.workload("lenet-digits"))
    root = RngStream(seed).child("table1")
    cells = [
        ScenarioCell(
            key=sigma,
            request=PlanRequest(
                methods=PAPER_METHODS,
                sigma=sigma,
                weight_bits=zoo.spec.weight_bits,
            ),
            rng=root.child("sigma", str(sigma)),
            mc_runs=scale.mc_runs_table1,
            sweep_kwargs={"insitu_lr": scale.insitu_lr},
        )
        for sigma in TABLE1_SIGMAS
    ]
    return run_grid("table1", zoo, cells, scale, workers=workers,
                    plan_cache=plan_cache, report_out=report_out)


def render_table1(result):
    """Render the Table 1 grid in the paper's row/column layout."""
    return method_table(
        f"Table 1 — {result.workload}: accuracy (%) vs NWC "
        f"(clean accuracy {100 * result.clean_accuracy:.2f}%)",
        result.nwc_targets,
        [(f"{sigma:g}", outcome)
         for sigma, outcome in result.outcomes.items()],
        column="sigma",
        labels=_METHOD_LABELS,
    )
