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

from repro.cim import resolve_technology
from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import method_table
from repro.experiments.sweeps import run_grid
from repro.plan import PlanRequest, ScenarioCell
from repro.utils.rng import RngStream
from repro.utils.tables import format_duration

__all__ = ["run_retention", "render_retention"]

RETENTION_METHODS = ("swim", "hetero_swim", "magnitude", "random")
RETENTION_TECHNOLOGIES = ("pcm", "pcm-comp")


def run_retention(scale, technologies=RETENTION_TECHNOLOGIES, times=None,
                  methods=RETENTION_METHODS, seed=13, workers=None,
                  plan_cache=None, report_out=None):
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
    workers / plan_cache / report_out:
        As in :func:`~repro.experiments.sweeps.run_grid`.

    Returns
    -------
    repro.experiments.sweeps.GridResult
        Keyed by ``(technology name, read time)``, in sorted order.
    """
    zoo = load_workload(scale.workload("lenet-digits"))
    profiles = {
        tech.name: tech
        for tech in (resolve_technology(t) for t in technologies)
    }
    times = sorted(float(t) for t in (
        scale.retention_times if times is None else times
    ))
    cells = []
    for name in sorted(profiles):
        tech = profiles[name]
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
                key=(name, t),
                request=PlanRequest(
                    methods=tuple(methods),
                    technology=tech,
                    read_time=t,
                    weight_bits=zoo.spec.weight_bits,
                ),
                rng=root,
                mc_runs=scale.mc_runs_retention,
            ))
    return run_grid("retention", zoo, cells, scale, workers=workers,
                    plan_cache=plan_cache, report_out=report_out)


def render_retention(result):
    """Table-1-over-time layout per technology: rows (time, method)."""
    profiles = {
        name: plan.technology for (name, _), plan in result.plans.items()
    }
    parts = []
    for name, tech in profiles.items():
        times = [t for tech_name, t in result.outcomes if tech_name == name]
        parts.append(method_table(
            f"Retention — {name} ({result.workload}, "
            f"clean {100 * result.clean_accuracy:.2f}%)",
            result.nwc_targets,
            [(format_duration(t), result.outcomes[(name, t)]) for t in times],
            column="read time",
        ))
        retention = tech.retention_model()
        if retention is not None:
            label = (
                "residual mean shift after compensation — none (rescaled)"
                if tech.drift_compensated
                else "mean conductance loss — " + ", ".join(
                    f"{format_duration(t)}: "
                    f"{100 * retention.mean_relative_shift(t):.1f}%"
                    for t in times
                )
            )
            parts.append(f"({label})")
    return "\n".join(parts)
