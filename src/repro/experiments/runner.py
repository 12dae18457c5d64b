"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.experiments.runner table1 --scale smoke
    python -m repro.experiments.runner fig1
    python -m repro.experiments.runner fig2a fig2b fig2c
    python -m repro.experiments.runner ablations
    python -m repro.experiments.runner devices retention spatial
    python -m repro.experiments.runner all --scale default
    python -m repro.experiments.runner serve --port 8321

Results print to stdout in the paper's layout and are saved as CSV under
``results/`` (override with ``REPRO_RESULTS_DIR``).  ``serve`` is not
an experiment: it stands up the plan-serving HTTP service
(:mod:`repro.serve`) over the ``--workload`` engines it builds at
startup and runs until signaled.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

from repro.experiments.ablations import run_ablations
from repro.experiments.config import resolve_scale
from repro.experiments.devices import render_devices, run_devices
from repro.experiments.fig1 import Fig1Config, run_fig1
from repro.experiments.fig2 import (
    FIG2_WORKLOADS,
    render_fig2_panel,
    run_fig2_panel,
)
from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import (
    render_ablation,
    render_fig1,
    results_dir,
    save_fig1_csv,
    save_grid_csv,
    save_sweep_csv,
)
from repro.experiments.retention import render_retention, run_retention
from repro.experiments.spatial import render_spatial, run_spatial
from repro.experiments.table1 import render_table1, run_table1
from repro.obs import TRACER
from repro.plan import save_plans
from repro.robustness import PartialGridError, ReproError
from repro.utils.rng import RngStream

EXPERIMENTS = ("fig1", "table1", "fig2a", "fig2b", "fig2c", "ablations",
               "devices", "retention", "spatial")


def _table1_csvs(result, out_dir):
    return [
        save_sweep_csv(
            outcome, os.path.join(out_dir, f"table1_sigma{sigma:g}.csv")
        )
        for sigma, outcome in result.outcomes.items()
    ]


def _grid_csv(result, out_dir):
    path = os.path.join(out_dir, f"{result.scenario}.csv")
    return [save_grid_csv(result, path)]


#: Grid scenario -> (run, render, save).  ``run(scale, workers=,
#: report_out=)`` returns a :class:`~repro.experiments.sweeps.
#: GridResult`, ``render`` its paper-style text, and ``save(result,
#: out_dir)`` writes its CSVs and returns their paths.
GRIDS = {
    "table1": (run_table1, render_table1, _table1_csvs),
    **{
        f"fig2{panel}": (partial(run_fig2_panel, panel=panel),
                         render_fig2_panel, _grid_csv)
        for panel in FIG2_WORKLOADS
    },
    "devices": (run_devices, render_devices, _grid_csv),
    "retention": (run_retention, render_retention, _grid_csv),
    "spatial": (run_spatial, render_spatial, _grid_csv),
}


def _run_fig1(scale, out_dir):
    zoo = load_workload(scale.workload("lenet-digits"))
    config = Fig1Config(
        n_weights=scale.fig1_weights,
        mc_runs=scale.fig1_mc_runs,
        eval_samples=scale.fig1_eval_samples,
    )
    result = run_fig1(zoo, config, RngStream(101).child("fig1"))
    print(render_fig1(result, workload=zoo.spec.key))
    path = save_fig1_csv(result, os.path.join(out_dir, "fig1.csv"))
    print(f"[saved {path}]")


def main(argv=None):
    """CLI entry point (``python -m repro.experiments.runner``)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The serving subcommand has its own flag set (workload, port,
        # host) and lifecycle; ``run()``'s taxonomy wrapper still
        # applies — startup/shutdown failures exit 64/74/75.
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Regenerate the SWIM paper's tables and figures."
    )
    parser.add_argument(
        "experiments", nargs="+",
        choices=EXPERIMENTS + ("all",),
        help="which experiment(s) to run",
    )
    parser.add_argument("--scale", default=None,
                        help="smoke | default | full (or REPRO_SCALE)")
    parser.add_argument("--output-dir", default=None,
                        help="directory for CSV artifacts")
    parser.add_argument("--workers", type=int, default=None,
                        help="size the work-rectangle scheduler's fork "
                             "pool over a scenario's (cells x trial-"
                             "blocks) tiles (table1, fig2a|b|c, "
                             "ablations, devices, retention, spatial); "
                             "0 = auto-size to the detected core count; "
                             "bitwise-identical to serial (or "
                             "REPRO_WORKERS)")
    parser.add_argument("--save-plans", action="store_true",
                        help="also write each scenario's resolved "
                             "selection plans as <scenario>_plans.json "
                             "for offline reuse (every scenario but "
                             "fig1, which plans nothing)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record trace spans and write them as JSONL "
                             "to PATH (plus a chrome://tracing twin next "
                             "to it); results stay byte-identical")
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    out_dir = results_dir(args.output_dir)
    todo = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    reports = []
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()

    print(f"# scale preset: {scale.name}")
    for name in todo:
        start = time.time()
        print(f"\n=== {name} ===")
        with TRACER.span(f"runner.{name}", scale=scale.name):
            _run_one(name, scale, out_dir, args, reports)
        print(f"[{name} took {time.time() - start:.1f}s]")

    if args.trace:
        _write_trace(args.trace)

    failed = [
        (report.scenario, cell)
        for report in reports
        for cell in report.failed
    ]
    if failed:
        raise PartialGridError(
            f"{len(failed)} cell(s) failed permanently: " + "; ".join(
                f"{scenario} {cell.key!r} ({cell.error})"
                for scenario, cell in failed
            )
        )
    return 0


def _run_one(name, scale, out_dir, args, reports):
    """Run one experiment (traced as ``runner.<name>``): print its
    tables, save its CSVs (and plans), and collect its run reports."""
    if name == "fig1":
        _run_fig1(scale, out_dir)
        return
    grid_reports = []
    if name == "ablations":
        studies, plans = run_ablations(
            load_workload(scale.workload("lenet-digits")),
            workers=args.workers, report_out=grid_reports,
        )
        for study, rows in studies.items():
            print(render_ablation(rows, title=f"Ablation — {study}"))
            print()
    else:
        run, render, save = GRIDS[name]
        result = run(scale, workers=args.workers, report_out=grid_reports)
        plans = result.plans
        if result.outcomes:
            print(render(result))
            for path in save(result, out_dir):
                print(f"[saved {path}]")
    if args.save_plans:
        path = save_plans(os.path.join(out_dir, f"{name}_plans.json"), plans)
        print(f"[saved {path}]")
    for report in grid_reports:
        if report.eventful:
            print(report.render())
    reports.extend(grid_reports)


def _write_trace(path):
    """Drain the tracer and export JSONL plus its chrome://tracing twin."""
    from repro.obs import chrome_trace_path, write_chrome_trace, write_spans_jsonl

    spans = TRACER.drain()
    jsonl = write_spans_jsonl(path, spans)
    chrome = write_chrome_trace(chrome_trace_path(path), spans)
    print(f"[trace: {len(spans)} span(s) -> {jsonl} (+ {chrome})]")


def run(argv=None):
    """``main`` behind the exception taxonomy: one-line errors, typed codes.

    Infrastructure and usage failures surface as a single ``error:``
    line and the family's exit code (64 usage, 70 software, 74 cache
    I/O, 75 partial/temporary) instead of a traceback — tracebacks are
    for bugs, not for a mistyped flag or a full disk.
    """
    try:
        return main(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # Untyped filesystem trouble (unwritable REPRO_CACHE_DIR or
        # results dir, vanished workload cache) — same family as
        # CacheWriteError, same sysexits EX_IOERR code.
        print(f"error: cache/results I/O failed: {exc}", file=sys.stderr)
        return 74


if __name__ == "__main__":
    sys.exit(run())
