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
(:mod:`repro.serve`) over a workload's :class:`~repro.plan.engine.
PlanEngine` and runs until signaled.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import ablations as ablation_mod
from repro.experiments.config import resolve_scale
from repro.experiments.devices import render_devices, run_devices
from repro.experiments.fig1 import Fig1Config, run_fig1
from repro.experiments.fig2 import FIG2_WORKLOADS, render_fig2_panel, run_fig2_panel
from repro.experiments.model_zoo import load_workload
from repro.experiments.reporting import (
    render_ablation,
    render_fig1,
    results_dir,
    save_devices_csv,
    save_fig1_csv,
    save_retention_csv,
    save_spatial_csv,
    save_sweep_csv,
)
from repro.experiments.retention import render_retention, run_retention
from repro.experiments.spatial import render_spatial, run_spatial
from repro.experiments.table1 import render_table1, run_table1
from repro.obs import TRACER
from repro.robustness import PartialGridError, ReproError
from repro.utils.rng import RngStream

EXPERIMENTS = ("fig1", "table1", "fig2a", "fig2b", "fig2c", "ablations",
               "devices", "retention", "spatial")


def _run_fig1(scale, out_dir, batched=True):
    zoo = load_workload(scale.workload("lenet-digits"))
    config = Fig1Config(
        n_weights=scale.fig1_weights,
        mc_runs=scale.fig1_mc_runs,
        eval_samples=scale.fig1_eval_samples,
    )
    result = run_fig1(zoo, config, RngStream(101).child("fig1"), batched=batched)
    print(render_fig1(result, workload=zoo.spec.key))
    path = save_fig1_csv(result, os.path.join(out_dir, "fig1.csv"))
    print(f"[saved {path}]")


def _save_plans(plans, out_dir, name):
    """Persist a scenario's resolved plans for offline reuse."""
    from repro.plan import save_plans

    path = save_plans(os.path.join(out_dir, f"{name}_plans.json"), plans)
    print(f"[saved {path}]")


def _report_back(reports):
    """Print a scenario's robustness summary when anything happened."""
    report = reports[-1] if reports else None
    if report is not None and report.eventful:
        print(report.render())
    return report


def _run_table1(scale, out_dir, batched=True, workers=None, save_plans=False):
    plans = {} if save_plans else None
    reports = []
    result = run_table1(scale, batched=batched, workers=workers,
                        plans_out=plans, report_out=reports)
    print(render_table1(result))
    for sigma, outcome in result.outcomes.items():
        path = save_sweep_csv(
            outcome, os.path.join(out_dir, f"table1_sigma{sigma:g}.csv")
        )
        print(f"[saved {path}]")
    if plans is not None:
        _save_plans(plans, out_dir, "table1")
    return _report_back(reports)


def _run_fig2(scale, out_dir, panel, batched=True, workers=None):
    reports = []
    outcome = run_fig2_panel(scale, panel, batched=batched, workers=workers,
                             report_out=reports)
    if outcome is not None:
        print(render_fig2_panel(outcome, panel))
        path = save_sweep_csv(outcome, os.path.join(out_dir, f"fig2{panel}.csv"))
        print(f"[saved {path}]")
    return _report_back(reports)


def _run_devices(scale, out_dir, batched=True, workers=None, save_plans=False):
    plans = {} if save_plans else None
    reports = []
    result = run_devices(scale, batched=batched, workers=workers,
                         plans_out=plans, report_out=reports)
    print(render_devices(result))
    path = save_devices_csv(result, os.path.join(out_dir, "devices.csv"))
    print(f"[saved {path}]")
    if plans is not None:
        _save_plans(plans, out_dir, "devices")
    return _report_back(reports)


def _run_retention(scale, out_dir, batched=True, workers=None,
                   save_plans=False):
    plans = {} if save_plans else None
    reports = []
    result = run_retention(scale, batched=batched, workers=workers,
                           plans_out=plans, report_out=reports)
    print(render_retention(result))
    path = save_retention_csv(result, os.path.join(out_dir, "retention.csv"))
    print(f"[saved {path}]")
    if plans is not None:
        _save_plans(plans, out_dir, "retention")
    return _report_back(reports)


def _run_spatial(scale, out_dir, batched=True, workers=None, save_plans=False):
    plans = {} if save_plans else None
    reports = []
    result = run_spatial(scale, batched=batched, workers=workers,
                         plans_out=plans, report_out=reports)
    print(render_spatial(result))
    path = save_spatial_csv(result, os.path.join(out_dir, "spatial.csv"))
    print(f"[saved {path}]")
    if plans is not None:
        _save_plans(plans, out_dir, "spatial")
    return _report_back(reports)


def _run_ablations(scale, out_dir):
    zoo = load_workload(scale.workload("lenet-digits"))
    rng = RngStream(404).child("ablations")
    studies = (
        ("granularity", ablation_mod.ablate_granularity),
        ("device_bits", ablation_mod.ablate_device_bits),
        ("tie_break", ablation_mod.ablate_tie_break),
        ("curvature_batches", ablation_mod.ablate_curvature_batches),
        ("scorers", ablation_mod.ablate_scorers),
        ("differential", ablation_mod.ablate_differential),
    )
    for name, fn in studies:
        rows = fn(zoo, rng.child(name))
        print(render_ablation(rows, title=f"Ablation — {name}"))
        print()


def main(argv=None):
    """CLI entry point (also exposed as the ``repro-experiments`` script)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The serving subcommand has its own flag set (port, host,
        # workers) and lifecycle; ``run()``'s taxonomy wrapper still
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
    parser.add_argument("--scalar", action="store_true",
                        help="use the scalar per-trial Monte Carlo loop "
                             "instead of the trial-batched engine")
    parser.add_argument("--workers", type=int, default=None,
                        help="size the work-rectangle scheduler's fork "
                             "pool over a scenario's (cells x trial-"
                             "blocks) tiles; 0 = auto-size to the "
                             "detected core count; bitwise-identical to "
                             "serial (or REPRO_WORKERS)")
    parser.add_argument("--save-plans", action="store_true",
                        help="also write each scenario's resolved "
                             "selection plans as <scenario>_plans.json "
                             "for offline reuse")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record trace spans and write them as JSONL "
                             "to PATH (plus a chrome://tracing twin next "
                             "to it); results stay byte-identical")
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    out_dir = results_dir(args.output_dir)
    todo = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    batched = not args.scalar
    reports = []
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()

    print(f"# scale preset: {scale.name}")
    for name in todo:
        start = time.time()
        print(f"\n=== {name} ===")
        with TRACER.span(f"runner.{name}", scale=scale.name):
            _run_one(name, scale, out_dir, args, batched, reports)
        print(f"[{name} took {time.time() - start:.1f}s]")

    if args.trace:
        _write_trace(args.trace)

    failed = [
        (report.scenario, cell)
        for report in reports if report is not None
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


def _run_one(name, scale, out_dir, args, batched, reports):
    """Dispatch one experiment name (traced as ``runner.<name>``)."""
    if name == "fig1":
        _run_fig1(scale, out_dir, batched=batched)
    elif name == "ablations":
        _run_ablations(scale, out_dir)
    elif name.startswith("fig2"):
        reports.append(_run_fig2(scale, out_dir, name[-1], batched=batched,
                                 workers=args.workers))
    else:
        scenario = {
            "table1": _run_table1,
            "devices": _run_devices,
            "retention": _run_retention,
            "spatial": _run_spatial,
        }[name]
        reports.append(scenario(scale, out_dir, batched=batched,
                                workers=args.workers,
                                save_plans=args.save_plans))


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
