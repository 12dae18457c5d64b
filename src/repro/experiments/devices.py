"""Device-technology scenario: accuracy-vs-NWC across memory materials.

CIMulator-style question the paper never asks: how do SWIM's write-verify
savings transfer across device technologies?  Each registered
:class:`~repro.cim.DeviceTechnology` (``fefet`` — the paper's operating
point — plus ``rram``, ``pcm``, ``fefet-spatial``, ``mram``; read-path
variants like ``pcm-comp`` are skipped since nothing drifts at
read-after-write) runs the Fig. 2-style paired Monte Carlo sweep on
LeNet through its own nonideality stack, batched by default, and the
summary adds the endurance angle: expected re-deployments of the
most-stressed cell under each technology's pulse budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cim import get_technology, technology_names
from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments.model_zoo import load_workload
from repro.plan import PlanRequest, ScenarioCell, ScenarioOrchestrator
from repro.utils.rng import RngStream
from repro.utils.tables import Table

__all__ = ["DevicesResult", "run_devices", "render_devices"]

DEVICES_METHODS = ("swim", "hetero_swim", "magnitude", "random")


@dataclass
class DevicesResult:
    """Per-technology sweep outcomes plus workload metadata."""

    workload: str
    clean_accuracy: float
    nwc_targets: tuple
    outcomes: dict = field(default_factory=dict)  # tech name -> SweepOutcome


def run_devices(scale, technologies=None, nwc_targets=DEFAULT_NWC_TARGETS,
                methods=DEVICES_METHODS, workload="lenet-digits", seed=11,
                batched=True, workers=None, plan_cache=None,
                plans_out=None, report_out=None):
    """Run the accuracy-vs-NWC sweep for every registered technology.

    Parameters
    ----------
    scale:
        A :class:`~repro.experiments.config.ScalePreset`
        (``mc_runs_devices`` trials per technology).
    technologies:
        Iterable of registry names (default: every registered profile
        whose physics differ at read-after-write — drift-compensated
        variants are skipped, because this scenario deploys at
        ``read_time=None`` where they are statistically identical to
        their base technology; ``runner retention`` is where they
        differ).
    batched:
        Same Monte Carlo path selection as the paper sweeps; per-trial
        draws are identical in every mode.
    workers:
        Size the work-rectangle fork pool over the scenario's
        (cells x trial-blocks) tiles (or ``REPRO_WORKERS``); results
        are bitwise-equal to serial.
    plan_cache:
        Optional :class:`~repro.plan.PlanArtifactCache` for the
        selection planner (default: the shared on-disk cache).
    plans_out:
        Optional dict filled with the resolved ``technology ->
        SelectionPlan`` mapping (for ``--save-plans``).
    report_out:
        Optional list collecting the orchestrator's
        :class:`~repro.robustness.report.RunReport`.

    Returns
    -------
    DevicesResult
    """
    zoo = load_workload(scale.workload(workload))
    names = (
        list(technologies)
        if technologies is not None
        else [
            name for name in technology_names()
            if not get_technology(name).drift_compensated
        ]
    )
    root = RngStream(seed).child("devices")
    result = DevicesResult(
        workload=zoo.spec.key,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(nwc_targets),
    )
    orchestrator = ScenarioOrchestrator(
        zoo, eval_samples=scale.eval_samples,
        sense_samples=scale.sense_samples, cache=plan_cache,
    )
    cells = [
        ScenarioCell(
            key=name,
            request=PlanRequest(
                methods=tuple(methods),
                nwc_targets=tuple(nwc_targets),
                technology=name,
                weight_bits=zoo.spec.weight_bits,
            ),
            rng=root.child(name),
            mc_runs=scale.mc_runs_devices,
        )
        for name in names
    ]
    result.outcomes.update(
        orchestrator.run(cells, batched=batched, workers=workers,
                         scenario="devices")
    )
    if plans_out is not None:
        plans_out.update(orchestrator.plans)
    if report_out is not None:
        report_out.append(orchestrator.report)
    return result


def render_devices(result):
    """Per-technology method tables plus a cross-technology summary."""
    parts = []
    for name, outcome in result.outcomes.items():
        tech = get_technology(name)
        table = Table(
            ["Method"] + [f"NWC={t:g}" for t in result.nwc_targets],
            title=(
                f"Devices — {name} (K={tech.bits}, sigma={outcome.sigma:g}, "
                f"{result.workload}, clean "
                f"{100 * result.clean_accuracy:.2f}%)"
            ),
        )
        for method, curve in outcome.curves.items():
            cells = [method]
            for i in range(len(result.nwc_targets)):
                stat = curve.mean_std(i)
                cells.append(f"{100 * stat.mean:.2f} ± {100 * stat.std:.2f}")
            table.add_row(cells)
        parts.append(table.render())

    summary = Table(
        ["technology", "K", "sigma", "acc@NWC=0", "acc@NWC=1",
         "mean pulses/dev", "deployments to failure"],
        title="Technology summary (SWIM curve, full write-verify wear over all trials)",
    )
    for name, outcome in result.outcomes.items():
        tech = get_technology(name)
        curve = outcome.curves.get("swim") or next(iter(outcome.curves.values()))
        means = curve.means()
        wear = outcome.wear or {}
        summary.add_row([
            name,
            str(tech.bits),
            f"{outcome.sigma:g}",
            f"{100 * means[0]:.2f}",
            f"{100 * means[-1]:.2f}",
            f"{wear.get('mean_pulses_per_device', float('nan')):.2f}",
            f"{wear.get('deployments_to_failure', float('nan')):.3g}",
        ])
    parts.append(summary.render())
    return "\n\n".join(parts)
