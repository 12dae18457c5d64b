"""Figure 2 reproduction: accuracy vs NWC on the three large workloads.

Fig. 2a ConvNet/CIFAR-10, Fig. 2b ResNet-18/CIFAR-10, Fig. 2c ResNet-18/
Tiny-ImageNet — all at sigma = 0.1, weights/activations quantized to
6 bits, methods {SWIM, Magnitude, Random, In-situ}.  Rendered as ASCII
line plots (mean accuracy) plus a mean +/- std table.
"""

from __future__ import annotations

from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments.model_zoo import load_workload
from repro.plan import PlanRequest, ScenarioCell, ScenarioOrchestrator
from repro.utils.ascii_plot import line_plot
from repro.utils.rng import RngStream
from repro.utils.tables import Table

__all__ = ["FIG2_WORKLOADS", "run_fig2_panel", "render_fig2_panel"]

#: Panel id -> workload key, matching the paper's subfigures.
FIG2_WORKLOADS = {
    "a": "convnet-cifar",
    "b": "resnet18-cifar",
    "c": "resnet18-tiny",
}


def run_fig2_panel(scale, panel, nwc_targets=DEFAULT_NWC_TARGETS,
                   methods=("swim", "magnitude", "random", "insitu"),
                   sigma=0.1, seed=2, batched=True, workers=None,
                   report_out=None):
    """Run one Fig. 2 panel (``panel`` in {"a", "b", "c"}).

    The panel is a one-cell scenario grid, so it plans through the
    shared plan cache and reruns warm from the eval-tile cache like
    every other scenario.  ``batched`` selects the trial-batched Monte
    Carlo engine (default); ``batched=False`` is the scalar per-trial
    path — the escape hatch for the ResNet panels when the trial-folded
    activations would not fit in memory.  ``workers`` sizes the
    work-rectangle fork pool over the cell's trial tiles (or
    ``REPRO_WORKERS``; results bitwise-equal to serial), and
    ``report_out`` (a list, when given) collects the orchestrator's
    :class:`~repro.robustness.report.RunReport`.

    Returns
    -------
    repro.experiments.sweeps.SweepOutcome
        Or None when the cell failed permanently (see the report).
    """
    if panel not in FIG2_WORKLOADS:
        raise KeyError(f"panel must be one of {sorted(FIG2_WORKLOADS)}")
    zoo = load_workload(scale.workload(FIG2_WORKLOADS[panel]))
    cell = ScenarioCell(
        key=sigma,
        request=PlanRequest(
            methods=tuple(methods),
            nwc_targets=tuple(nwc_targets),
            sigma=sigma,
            weight_bits=zoo.spec.weight_bits,
        ),
        rng=RngStream(seed).child("fig2", panel),
        mc_runs=scale.mc_runs_fig2,
        sweep_kwargs={"insitu_lr": scale.insitu_lr},
    )
    orchestrator = ScenarioOrchestrator(
        zoo, eval_samples=scale.eval_samples,
        sense_samples=scale.sense_samples,
    )
    outcomes = orchestrator.run([cell], batched=batched, workers=workers,
                                scenario=f"fig2{panel}")
    if report_out is not None:
        report_out.append(orchestrator.report)
    return outcomes.get(cell.key)


def render_fig2_panel(outcome, panel):
    """ASCII figure + stats table for one panel's SweepOutcome."""
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
    table = Table(
        ["Method"] + [f"NWC={t:g}" for t in outcome.nwc_targets],
        title=f"Fig. 2{panel} data (accuracy % mean ± std)",
    )
    for method, curve in outcome.curves.items():
        cells = [method]
        for i in range(len(outcome.nwc_targets)):
            stat = curve.mean_std(i)
            cells.append(f"{100 * stat.mean:.2f} ± {100 * stat.std:.2f}")
        table.add_row(cells)
    return plot + "\n\n" + table.render()
