"""Figure 2 reproduction: accuracy vs NWC on the three large workloads.

Fig. 2a ConvNet/CIFAR-10, Fig. 2b ResNet-18/CIFAR-10, Fig. 2c ResNet-18/
Tiny-ImageNet — all at sigma = 0.1, weights/activations quantized to
6 bits, methods {SWIM, Magnitude, Random, In-situ}.  Rendered as ASCII
line plots (mean accuracy) plus a mean +/- std table.
"""

from __future__ import annotations

from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import method_table
from repro.experiments.sweeps import PAPER_METHODS, run_grid
from repro.plan import PlanRequest, ScenarioCell
from repro.utils.ascii_plot import line_plot
from repro.utils.rng import RngStream

__all__ = ["FIG2_WORKLOADS", "run_fig2_panel", "render_fig2_panel"]

#: Panel id -> workload key, matching the paper's subfigures.
FIG2_WORKLOADS = {
    "a": "convnet-cifar",
    "b": "resnet18-cifar",
    "c": "resnet18-tiny",
}
#: Device sigma of every panel.
FIG2_SIGMA = 0.1
#: Root seed of the panels' streams.
FIG2_SEED = 2


def run_fig2_panel(scale, panel, workers=None, report_out=None):
    """Run one Fig. 2 panel (``panel`` in {"a", "b", "c"}).

    The panel is a one-cell scenario grid (keyed by its sigma), so it
    plans through the shared plan cache and reruns warm from the
    eval-tile cache like every other scenario.  ``workers`` and
    ``report_out`` act as in :func:`~repro.experiments.sweeps.run_grid`.

    Returns
    -------
    repro.experiments.sweeps.GridResult
        With no outcome when the cell failed permanently (see the
        report).
    """
    if panel not in FIG2_WORKLOADS:
        raise KeyError(f"panel must be one of {sorted(FIG2_WORKLOADS)}")
    zoo = load_workload(scale.workload(FIG2_WORKLOADS[panel]))
    cell = ScenarioCell(
        key=FIG2_SIGMA,
        request=PlanRequest(
            methods=PAPER_METHODS,
            sigma=FIG2_SIGMA,
            weight_bits=zoo.spec.weight_bits,
        ),
        rng=RngStream(FIG2_SEED).child("fig2", panel),
        mc_runs=scale.mc_runs_fig2,
        sweep_kwargs={"insitu_lr": scale.insitu_lr},
    )
    return run_grid(f"fig2{panel}", zoo, [cell], scale, workers=workers,
                    report_out=report_out)


def render_fig2_panel(result):
    """ASCII figure + stats table for one panel's grid."""
    panel = result.scenario[len("fig2"):]
    (outcome,) = result.outcomes.values()
    series = {
        method: (curve.achieved_nwc, 100.0 * curve.means())
        for method, curve in outcome.curves.items()
    }
    plot = line_plot(
        series,
        title=(
            f"Fig. 2{panel} — {outcome.workload} (sigma={outcome.sigma:g}, "
            f"clean {100 * outcome.clean_accuracy:.2f}%)"
        ),
        xlabel="Normalized Write Cycles",
        ylabel="accuracy %",
    )
    table = method_table(
        f"Fig. 2{panel} data (accuracy % mean ± std)",
        result.nwc_targets,
        [(None, outcome)],
    )
    return plot + "\n\n" + table
