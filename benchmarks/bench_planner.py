"""Benchmark: the selection-planning subsystem's two speedups.

1. **Cold vs warm planning** of a retention-style grid (>= 3 read times
   x >= 3 NWC budgets on a drifting technology): the cold pass pays the
   curvature accumulation plus per-point variance maps and rankings;
   the warm pass replays the whole grid from the content-addressed
   artifact cache.  The subsystem's contract is a >= 5x warm speedup
   with bitwise-identical selections — both are measured and reported.
2. **Serial vs parallel scenario execution** (``--workers N``): the
   same retention grid's Monte Carlo tiles mapped over the fork pool
   (on a cache without the serial run's eval tiles, so the pool really
   computes), with byte-identical outcomes checked via the rendered CSV
   rows.

Writes ``$REPRO_RESULTS_DIR/BENCH_planner.json`` (CI uploads it)::

    PYTHONPATH=src python benchmarks/bench_planner.py          # default
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

READ_TIMES = (1.0, 3.6e3, 8.64e4, 2.592e6)
NWC_BUDGETS = (0.1, 0.3, 0.5, 0.7, 0.9)
METHODS = ("swim", "hetero_swim", "magnitude")


def bench_plan_grid(zoo, scale, cache_root, technology="pcm-comp"):
    """Cold vs warm plan latency over the retention-style grid."""
    from repro.plan import PlanArtifactCache, PlanEngine, PlanRequest

    requests = [
        PlanRequest(
            methods=METHODS,
            nwc_targets=NWC_BUDGETS,
            technology=technology,
            read_time=t,
            weight_bits=zoo.spec.weight_bits,
        )
        for t in READ_TIMES
    ]

    def build_engine():
        return PlanEngine(
            zoo.model,
            zoo.data.train_x[:scale.sense_samples],
            zoo.data.train_y[:scale.sense_samples],
            workload=zoo.spec.key,
            cache=PlanArtifactCache(root=cache_root),
            curvature_batch_size=min(256, scale.sense_samples),
        )

    cold_engine = build_engine()
    start = time.perf_counter()
    cold = cold_engine.plan_batch(requests)
    cold_seconds = time.perf_counter() - start

    warm_engine = build_engine()  # fresh memory tier: warm = disk only
    start = time.perf_counter()
    warm = warm_engine.plan_batch(requests)
    warm_seconds = time.perf_counter() - start

    identical = all(
        np.array_equal(a.order(m), b.order(m))
        for a, b in zip(cold, warm)
        for m in METHODS
    )
    return {
        "technology": technology,
        "read_times": list(READ_TIMES),
        "nwc_budgets": list(NWC_BUDGETS),
        "methods": list(METHODS),
        "grid_points": len(requests),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-9),
        "bitwise_identical": bool(identical),
        "cold_stats": dict(cold_engine.stats),
        "warm_stats": dict(warm_engine.stats),
    }


def bench_scenario_workers(scale, cache_root, workers=2):
    """Serial vs ``workers=N`` wall time for the retention scenario."""
    from repro.experiments.reporting import _sweep_rows
    from repro.experiments.retention import run_retention
    from repro.plan import PlanArtifactCache

    def timed(name, **kwargs):
        # Each side gets its own cache root: the parallel run must
        # compute its tiles, not replay the serial run's.
        start = time.perf_counter()
        result = run_retention(
            scale,
            technologies=("pcm", "pcm-comp"),
            methods=METHODS,
            plan_cache=PlanArtifactCache(root=os.path.join(cache_root, name)),
            **kwargs,
        )
        return result, time.perf_counter() - start

    serial, serial_seconds = timed("serial")
    parallel, parallel_seconds = timed("parallel", workers=workers)

    def rows(result):
        return [
            row
            for key in sorted(result.outcomes)
            for row in _sweep_rows(result.outcomes[key], f"{key}")
        ]

    return {
        "cells": len(serial.outcomes),
        "mc_runs_per_cell": scale.mc_runs_retention,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "workers_seconds": parallel_seconds,
        "speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "byte_identical": rows(serial) == rows(parallel),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the selection-planning subsystem."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sanity run (CI)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the scenario half")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: "
                             "$REPRO_RESULTS_DIR/BENCH_planner.json)")
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload
    from repro.experiments.reporting import results_dir

    scale = get_scale("smoke" if args.smoke else "default")
    zoo = load_workload(scale.workload("lenet-digits"))
    report = {"scale": scale.name, "workload": zoo.spec.key}

    print(f"# bench_planner — scale: {scale.name}")
    with tempfile.TemporaryDirectory(prefix="bench-planner-") as cache_root:
        plan = bench_plan_grid(zoo, scale, cache_root)
        report["plan_grid"] = plan
        print(
            f"plan grid ({plan['grid_points']} read times x "
            f"{len(plan['nwc_budgets'])} budgets, {plan['technology']}): "
            f"cold {1e3 * plan['cold_seconds']:.1f}ms vs warm "
            f"{1e3 * plan['warm_seconds']:.1f}ms "
            f"({plan['speedup']:.0f}x), bitwise identical: "
            f"{plan['bitwise_identical']}"
        )

        scenario = bench_scenario_workers(scale, cache_root,
                                          workers=args.workers)
        report["scenario"] = scenario
        print(
            f"retention scenario ({scenario['cells']} cells x "
            f"{scenario['mc_runs_per_cell']} trials): serial "
            f"{scenario['serial_seconds']:.1f}s vs --workers {args.workers} "
            f"{scenario['workers_seconds']:.1f}s "
            f"({scenario['speedup']:.2f}x), byte identical: "
            f"{scenario['byte_identical']}"
        )

    if not report["plan_grid"]["bitwise_identical"]:
        print("ERROR: warm plans diverged from cold plans", file=sys.stderr)
        return 1
    if not report["scenario"]["byte_identical"]:
        print("ERROR: parallel scenario diverged from serial", file=sys.stderr)
        return 1

    out_path = args.output or os.path.join(results_dir(), "BENCH_planner.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[saved {out_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
