"""Retention scenario: does SWIM's advantage survive conductance drift?

Write-verify certifies precision *at programming time*; the paper stops
there.  This scenario re-reads the same Monte Carlo population at a grid
of later times (Table-1-over-time): one set of programming + verify
draws per trial, then the deployed levels drift through the technology's
read stage (power-law exponents fixed per device, so later rows really
are the same chips aged further).  Because the RNG streams are shared
across read times, differences down a column are purely drift — the
paired design of the NWC sweeps extended along the time axis.

Two technologies run by default: raw ``pcm`` (whose uncompensated drift
collapses every method at ~1 month) and ``pcm-comp``, the same cells
behind a :class:`~repro.cim.DriftCompensationStage` — the global
mean-decay rescale real PCM platforms apply at read time — which keeps
the long-time method comparison meaningful.  ``hetero_swim`` rides along
so the selection fed by the stack's drift-aware variance map is compared
against plain SWIM on every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cim import resolve_technology
from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments.model_zoo import load_workload
from repro.plan import PlanRequest, ScenarioCell, ScenarioOrchestrator
from repro.utils.rng import RngStream
from repro.utils.tables import Table, format_duration

__all__ = ["RetentionResult", "run_retention", "render_retention"]

RETENTION_METHODS = ("swim", "hetero_swim", "magnitude", "random")
RETENTION_TECHNOLOGIES = ("pcm", "pcm-comp")


@dataclass
class RetentionResult:
    """Sweep outcomes keyed by (technology, read time), plus metadata."""

    workload: str
    technologies: tuple
    clean_accuracy: float
    nwc_targets: tuple
    outcomes: dict = field(default_factory=dict)  # (tech, time) -> SweepOutcome
    profiles: dict = field(default_factory=dict)  # tech name -> DeviceTechnology

    def times(self, technology):
        """Sorted read times available for one technology."""
        return sorted(t for tech, t in self.outcomes if tech == technology)


def run_retention(scale, technologies=RETENTION_TECHNOLOGIES, times=None,
                  nwc_targets=DEFAULT_NWC_TARGETS, methods=RETENTION_METHODS,
                  workload="lenet-digits", seed=13, batched=True,
                  workers=None, plan_cache=None, plans_out=None,
                  report_out=None):
    """Run the Table-1-over-time drift study.

    Parameters
    ----------
    scale:
        A :class:`~repro.experiments.config.ScalePreset`
        (``mc_runs_retention`` trials, ``retention_times`` grid).
    technologies:
        Registered technology names (or instances); by default raw
        ``pcm`` — the canonical strongly drifting material — next to its
        drift-compensated variant, so the table shows what the global
        read-time rescale buys.  Drift-free profiles (``mram``) produce
        a constant table, which is itself the answer.
    times:
        Read-time grid in seconds (default: the preset's).  Must be
        >= the retention model's ``t0`` (1 s).
    workers:
        Size the work-rectangle fork pool over the (technology, read
        time) cells' tiles (or ``REPRO_WORKERS``); results are
        bitwise-equal to serial.
    plan_cache / plans_out:
        Planner cache override, and an optional dict collecting the
        resolved ``(technology, time) -> SelectionPlan`` mapping.
    report_out:
        Optional list collecting the orchestrator's
        :class:`~repro.robustness.report.RunReport`.

    Returns
    -------
    RetentionResult
    """
    times = tuple(times) if times is not None else tuple(scale.retention_times)
    zoo = load_workload(scale.workload(workload))
    profiles = {
        tech.name: tech
        for tech in (resolve_technology(t) for t in technologies)
    }
    result = RetentionResult(
        workload=zoo.spec.key,
        technologies=tuple(profiles),
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(nwc_targets),
        profiles=profiles,
    )
    cells = []
    for tech in profiles.values():
        # One shared stream for every read time: the same devices,
        # programmed and verified with the same draws, observed later and
        # later.  The stream is keyed by the *physical* device parameters
        # (everything but the name/description/read-path flags), so a
        # compensated variant — same cells, different read path — pairs
        # with its raw technology draw-for-draw, whatever it is called.
        physical = tech.to_dict()
        for key in ("name", "description", "drift_compensated"):
            physical.pop(key)
        device_key = "/".join(f"{k}={physical[k]!r}" for k in sorted(physical))
        root = RngStream(seed).child("retention", device_key)
        for t in times:
            cells.append(ScenarioCell(
                key=(tech.name, float(t)),
                request=PlanRequest(
                    methods=tuple(methods),
                    nwc_targets=tuple(nwc_targets),
                    technology=tech,
                    read_time=float(t),
                    weight_bits=zoo.spec.weight_bits,
                ),
                rng=root,
                mc_runs=scale.mc_runs_retention,
            ))
    orchestrator = ScenarioOrchestrator(
        zoo, eval_samples=scale.eval_samples,
        sense_samples=scale.sense_samples, cache=plan_cache,
    )
    result.outcomes.update(
        orchestrator.run(cells, batched=batched, workers=workers,
                         scenario="retention")
    )
    if plans_out is not None:
        plans_out.update(orchestrator.plans)
    if report_out is not None:
        report_out.append(orchestrator.report)
    return result


def render_retention(result):
    """Table-1-over-time layout per technology: rows (time, method)."""
    parts = []
    for technology in result.technologies:
        tech = result.profiles[technology]
        retention = tech.retention_model()
        headers = ["read time", "Method"] + [
            f"NWC={t:g}" for t in result.nwc_targets
        ]
        table = Table(
            headers,
            title=(
                f"Retention — {technology} ({result.workload}, "
                f"clean {100 * result.clean_accuracy:.2f}%)"
            ),
        )
        for t in result.times(technology):
            outcome = result.outcomes[(technology, t)]
            first = True
            for method, curve in outcome.curves.items():
                cells = [format_duration(t) if first else "", method]
                for i in range(len(result.nwc_targets)):
                    stat = curve.mean_std(i)
                    cells.append(
                        f"{100 * stat.mean:.2f} ± {100 * stat.std:.2f}"
                    )
                table.add_row(cells)
                first = False
            table.add_separator()
        parts.append(table.render())
        if retention is not None:
            label = (
                "residual mean shift after compensation — none (rescaled)"
                if tech.drift_compensated
                else "mean conductance loss — " + ", ".join(
                    f"{format_duration(t)}: "
                    f"{100 * retention.mean_relative_shift(t):.1f}%"
                    for t in result.times(technology)
                )
            )
            parts.append(f"({label})")
    return "\n".join(parts)
