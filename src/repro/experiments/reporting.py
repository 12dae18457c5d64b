"""Rendering and persistence of experiment results.

Keeps the drivers (fig1/table1/fig2/ablations) free of formatting code and
gives the CLI runner one place to print paper-style output and save CSVs
under ``results/``.
"""

from __future__ import annotations

import os

from repro.utils.ascii_plot import scatter_plot
from repro.utils.tables import Table

__all__ = [
    "results_dir",
    "render_ablation",
    "render_fig1",
    "save_sweep_csv",
    "save_fig1_csv",
    "save_devices_csv",
    "save_retention_csv",
    "save_spatial_csv",
]


def results_dir(base=None):
    """Directory for CSV artifacts (created on demand)."""
    path = base or os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
        os.getcwd(), "results"
    )
    os.makedirs(path, exist_ok=True)
    return path


def render_ablation(rows, title):
    """Format a list of :class:`AblationRow` as an aligned table."""
    if not rows:
        raise ValueError("no ablation rows to render")
    metric_names = list(rows[0].metrics)
    table = Table(["config"] + metric_names, title=title)
    for row in rows:
        cells = [row.label]
        for name in metric_names:
            value = row.metrics.get(name, "")
            cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        table.add_row(cells)
    return table.render()


def render_fig1(result, workload="lenet-digits"):
    """Two ASCII scatters + the correlation summary (paper Fig. 1)."""
    parts = []
    parts.append(scatter_plot(
        result.magnitudes, 100.0 * result.accuracy_drops,
        title=f"Fig. 1a — accuracy drop vs |weight| ({workload})",
        xlabel="weight magnitude", ylabel="accuracy drop %",
        height=14,
    ))
    parts.append(scatter_plot(
        result.second_derivatives, 100.0 * result.accuracy_drops,
        title=f"Fig. 1b — accuracy drop vs second derivative ({workload})",
        xlabel="second derivative", ylabel="accuracy drop %",
        height=14,
    ))
    summary = Table(["correlation", "vs accuracy drop", "vs loss increase"],
                    title="Fig. 1 Pearson correlations")
    summary.add_row([
        "weight magnitude",
        f"{result.pearson_magnitude_acc:+.3f}",
        f"{result.pearson_magnitude_loss:+.3f}",
    ])
    summary.add_row([
        "second derivative",
        f"{result.pearson_curvature_acc:+.3f}",
        f"{result.pearson_curvature_loss:+.3f}",
    ])
    parts.append(summary.render())
    parts.append(
        f"(paper reports Pearson ~0.83 for Fig. 1b; Spearman here: "
        f"{result.spearman_curvature_acc:+.3f})"
    )
    return "\n\n".join(parts)


def save_sweep_csv(outcome, path):
    """Persist a SweepOutcome as CSV (one row per method x target)."""
    lines = ["workload,sigma,method,nwc_target,achieved_nwc,accuracy_mean,accuracy_std,runs"]
    lines.extend(_sweep_rows(outcome))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def _sweep_rows(outcome, prefix=None):
    """CSV rows (method x target) of one SweepOutcome.

    ``prefix`` prepends an extra key column (technology, read time) for
    the multi-sweep scenario CSVs.
    """
    lead = "" if prefix is None else f"{prefix},"
    lines = []
    for method, curve in outcome.curves.items():
        means = curve.means()
        stds = curve.stds()
        for i, target in enumerate(curve.nwc_targets):
            lines.append(
                f"{lead}{outcome.workload},{outcome.sigma},{method},"
                f"{target},{curve.achieved_nwc[i]:.6f},{means[i]:.6f},"
                f"{stds[i]:.6f},{curve.accuracy_runs.shape[0]}"
            )
    return lines


def save_devices_csv(result, path):
    """Persist a DevicesResult: one row per technology x method x target."""
    lines = [
        "technology,workload,sigma,method,nwc_target,achieved_nwc,"
        "accuracy_mean,accuracy_std,runs"
    ]
    for name, outcome in result.outcomes.items():
        lines.extend(_sweep_rows(outcome, name))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def save_retention_csv(result, path):
    """Persist a RetentionResult: one row per technology x time x method x target."""
    lines = [
        "read_time_s,technology,workload,sigma,method,nwc_target,"
        "achieved_nwc,accuracy_mean,accuracy_std,runs"
    ]
    for (technology, t), outcome in sorted(result.outcomes.items()):
        lines.extend(_sweep_rows(outcome, f"{t:g},{technology}"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def save_spatial_csv(result, path):
    """Persist a SpatialResult: one row per correlation length x method x target."""
    lines = [
        "correlation_length,technology,workload,sigma,method,nwc_target,"
        "achieved_nwc,accuracy_mean,accuracy_std,runs"
    ]
    for length, outcome in sorted(result.outcomes.items()):
        lines.extend(_sweep_rows(outcome, f"{length:g},{result.technology}"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def save_fig1_csv(result, path):
    """Persist Fig. 1 per-weight samples as CSV."""
    lines = ["magnitude,second_derivative,accuracy_drop,loss_increase"]
    for m, h, a, l in zip(result.magnitudes, result.second_derivatives,
                          result.accuracy_drops, result.loss_increases):
        lines.append(f"{m:.8g},{h:.8g},{a:.8g},{l:.8g}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path
