"""Rendering and persistence of experiment results.

Keeps the drivers free of formatting code and gives the CLI runner one
place to print paper-style output and save CSVs under ``results/``:
:func:`method_table` renders every grid's mean ± std blocks and
:func:`save_grid_csv` writes every sweep CSV.
"""

from __future__ import annotations

import os

from repro.utils.ascii_plot import scatter_plot
from repro.utils.tables import Table

__all__ = [
    "method_table",
    "results_dir",
    "render_ablation",
    "render_fig1",
    "save_fig1_csv",
    "save_grid_csv",
    "save_retention_csv",
    "save_sweep_csv",
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


def method_table(title, nwc_targets, groups, column=None, labels=None):
    """A mean ± std accuracy (%) table: one row per method, one column
    per NWC target.

    ``groups`` is a sequence of ``(label, SweepOutcome)``.  With a
    ``column`` header, each group's first row carries its label in that
    leading column and a separator closes the group; without one, the
    groups' rows follow each other unlabeled.  ``labels`` renames
    methods.
    """
    lead = [column] if column else []
    table = Table(
        lead + ["Method"] + [f"NWC={t:g}" for t in nwc_targets], title=title,
    )
    labels = labels or {}
    for label, outcome in groups:
        for row, (method, curve) in enumerate(outcome.curves.items()):
            cells = [label if row == 0 else ""] if column else []
            cells.append(labels.get(method, method))
            for i in range(len(nwc_targets)):
                stat = curve.mean_std(i)
                cells.append(f"{100 * stat.mean:.2f} ± {100 * stat.std:.2f}")
            table.add_row(cells)
        if column:
            table.add_separator()
    return table.render()


def _technology(key, outcome):
    return outcome.technology


#: The key columns that lead each multi-cell grid CSV's rows, by
#: scenario: column name -> its text for ``(cell key, SweepOutcome)``.
_KEY_COLUMNS = {
    "devices": {"technology": _technology},
    "retention": {
        "read_time_s": lambda key, outcome: f"{outcome.read_time:g}",
        "technology": _technology,
    },
    "spatial": {
        "correlation_length": lambda key, outcome: f"{key:g}",
        "technology": _technology,
    },
}


def _write_csv(path, outcomes, key_columns):
    lines = [",".join((*key_columns, "workload,sigma,method,nwc_target,"
                       "achieved_nwc,accuracy_mean,accuracy_std,runs"))]
    for key, outcome in outcomes.items():
        lead = "".join(
            f"{text(key, outcome)}," for text in key_columns.values()
        )
        for method, curve in outcome.curves.items():
            achieved, means, stds = (
                curve.achieved_nwc, curve.means(), curve.stds()
            )
            for i, target in enumerate(curve.nwc_targets):
                lines.append(
                    f"{lead}{outcome.workload},{outcome.sigma},{method},"
                    f"{target},{achieved[i]:.6f},{means[i]:.6f},"
                    f"{stds[i]:.6f},{curve.accuracy_runs.shape[0]}"
                )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def save_grid_csv(result, path):
    """Persist a :class:`~repro.experiments.sweeps.GridResult` as CSV:
    one row per cell x method x NWC target, in cell order, each led by
    the scenario's key columns (none for a Fig. 2 panel)."""
    return _write_csv(path, result.outcomes,
                      _KEY_COLUMNS.get(result.scenario, {}))


#: The retention grid's writer, under the name perfbench calls.
save_retention_csv = save_grid_csv


def save_sweep_csv(outcome, path):
    """Persist one SweepOutcome as CSV (one row per method x target)."""
    return _write_csv(path, {None: outcome}, {})


def save_fig1_csv(result, path):
    """Persist Fig. 1 per-weight samples as CSV."""
    lines = ["magnitude,second_derivative,accuracy_drop,loss_increase"]
    for m, h, a, l in zip(result.magnitudes, result.second_derivatives,
                          result.accuracy_drops, result.loss_increases):
        lines.append(f"{m:.8g},{h:.8g},{a:.8g},{l:.8g}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path
