"""Device-technology scenario: accuracy-vs-NWC across memory materials.

CIMulator-style question the paper never asks: how do SWIM's write-verify
savings transfer across device technologies?  Each registered
:class:`~repro.cim.DeviceTechnology` (``fefet`` — the paper's operating
point — plus ``rram``, ``pcm``, ``fefet-spatial``, ``mram``; read-path
variants like ``pcm-comp`` are skipped since nothing drifts at
read-after-write) runs the Fig. 2-style paired Monte Carlo sweep on
LeNet through its own nonideality stack, and the summary adds the
endurance angle: expected re-deployments of the most-stressed cell
under each technology's pulse budget.
"""

from __future__ import annotations

from repro.cim import get_technology, technology_names
from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import method_table
from repro.experiments.sweeps import run_grid
from repro.plan import PlanRequest, ScenarioCell
from repro.utils.rng import RngStream
from repro.utils.tables import Table

__all__ = ["run_devices", "render_devices"]

DEVICES_METHODS = ("swim", "hetero_swim", "magnitude", "random")


def run_devices(scale, technologies=None, seed=11, workers=None,
                report_out=None):
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
    workers / report_out:
        As in :func:`~repro.experiments.sweeps.run_grid`.

    Returns
    -------
    repro.experiments.sweeps.GridResult
        Keyed by technology name.
    """
    zoo = load_workload(scale.workload("lenet-digits"))
    names = (
        list(technologies)
        if technologies is not None
        else [
            name for name in technology_names()
            if not get_technology(name).drift_compensated
        ]
    )
    root = RngStream(seed).child("devices")
    cells = [
        ScenarioCell(
            key=name,
            request=PlanRequest(
                methods=DEVICES_METHODS,
                technology=name,
                weight_bits=zoo.spec.weight_bits,
            ),
            rng=root.child(name),
            mc_runs=scale.mc_runs_devices,
        )
        for name in names
    ]
    return run_grid("devices", zoo, cells, scale, workers=workers,
                    report_out=report_out)


def render_devices(result):
    """Per-technology method tables plus a cross-technology summary."""
    parts = [
        method_table(
            f"Devices — {name} (K={get_technology(name).bits}, "
            f"sigma={outcome.sigma:g}, {result.workload}, clean "
            f"{100 * result.clean_accuracy:.2f}%)",
            result.nwc_targets,
            [(None, outcome)],
        )
        for name, outcome in result.outcomes.items()
    ]

    summary = Table(
        ["technology", "K", "sigma", "acc@NWC=0", "acc@NWC=1",
         "mean pulses/dev", "deployments to failure"],
        title="Technology summary (SWIM curve, full write-verify wear over all trials)",
    )
    for name, outcome in result.outcomes.items():
        tech = get_technology(name)
        means = outcome.curve("swim").means()
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
