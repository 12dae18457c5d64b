"""Spatial-variation scenario: clustered failures stress selection quality.

The paper evaluates i.i.d. (temporal) variation and notes that spatial
variations "result from fabrication defects and have both local and global
correlations" (Sec. 2.1).  Under a correlated error field, *unverified*
weights fail in clusters: a whole neighbourhood of devices errs in the
same direction, so the damage a bad selection leaves behind is no longer
averaged away across the tensor — exactly the heterogeneity regime where
ranking by curvature alone stops being optimal.

This scenario sweeps the correlation length of a spatially-enabled
technology (``fefet-spatial``) and runs the paired Monte Carlo
accuracy-vs-NWC sweep for ``swim``, ``hetero_swim`` (Eq. 5 fed by the
stack's analytic variance map) and ``magnitude`` at every length.  One
shared RNG root across lengths keeps the programming draws paired, so
differences down a column are purely the field's correlation structure.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cim import resolve_technology
from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import method_table
from repro.experiments.sweeps import run_grid
from repro.plan import PlanRequest, ScenarioCell
from repro.utils.rng import RngStream

__all__ = ["run_spatial", "render_spatial"]

SPATIAL_METHODS = ("swim", "hetero_swim", "magnitude")
#: The spatially-enabled profile (``spatial_sigma > 0``) whose
#: correlation length the scenario sweeps.
SPATIAL_TECHNOLOGY = "fefet-spatial"


def run_spatial(scale, seed=17, workers=None, report_out=None):
    """Run the clustered-failure stress test across correlation lengths.

    Every length of the preset's ``spatial_correlation_lengths`` grid
    (in devices; 0 means i.i.d.) runs a copy of
    :data:`SPATIAL_TECHNOLOGY` with that correlation length, for
    ``mc_runs_spatial`` trials.  ``workers`` and ``report_out`` act as
    in :func:`~repro.experiments.sweeps.run_grid`.

    Returns
    -------
    repro.experiments.sweeps.GridResult
        Keyed by correlation length, in ascending order.
    """
    base = resolve_technology(SPATIAL_TECHNOLOGY)
    zoo = load_workload(scale.workload("lenet-digits"))
    # One shared stream for every length: the same chips, refabricated
    # with the same draws but a differently structured error field.
    root = RngStream(seed).child("spatial", base.name)
    cells = [
        ScenarioCell(
            key=length,
            request=PlanRequest(
                methods=SPATIAL_METHODS,
                technology=replace(base, correlation_length=length),
                weight_bits=zoo.spec.weight_bits,
            ),
            rng=root,
            mc_runs=scale.mc_runs_spatial,
        )
        for length in sorted(map(float, scale.spatial_correlation_lengths))
    ]
    return run_grid("spatial", zoo, cells, scale, workers=workers,
                    report_out=report_out)


def render_spatial(result):
    """Stress-test layout: rows (correlation length, method), columns NWC."""
    tech = resolve_technology(SPATIAL_TECHNOLOGY)
    table = method_table(
        f"Spatial — {tech.name} (sigma_s={tech.spatial_sigma:g}, "
        f"{result.workload}, clean {100 * result.clean_accuracy:.2f}%)",
        result.nwc_targets,
        [
            ("iid" if length == 0 else f"{length:g} dev", outcome)
            for length, outcome in result.outcomes.items()
        ],
        column="corr length",
    )
    return "\n".join([
        table,
        f"(global wafer fraction {tech.global_fraction:g} of the field "
        "variance; correlation length 0 = i.i.d. reference)",
    ])
