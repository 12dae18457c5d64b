"""Benchmark: what the work-rectangle scheduler buys, gated on bitwise identity.

Two questions about the unified scheduler, each with a correctness
gate (byte-identical rows) attached:

1. **Saturation** — the same retention grid run serially and as one
   (cells x trial-blocks) rectangle on a ``--workers N`` pool (default:
   auto-sized to the core count).  The rectangle must schedule,
   complete, and reproduce the serial rows byte for byte.
2. **Warm rerun** — the rectangle re-run against its own eval-tile
   cache: every tile must come back from the artifact store
   (``tiles_computed == 0``), byte-identically, in a small fraction of
   the cold time.  (Single-tile invalidation is pinned by
   ``tests/test_robustness.py::TestEvalTileCache``.)

Writes ``$REPRO_RESULTS_DIR/BENCH_scheduler.json`` (CI uploads it)::

    PYTHONPATH=src python benchmarks/bench_scheduler.py          # default
    PYTHONPATH=src python benchmarks/bench_scheduler.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

METHODS = ("swim", "magnitude")
TECHNOLOGIES = ("pcm",)


def _rows(result):
    from repro.experiments.reporting import _sweep_rows

    return [
        row
        for key in sorted(result.outcomes)
        for row in _sweep_rows(result.outcomes[key], f"{key}")
    ]


def _run(scale, cache_root, workers=None):
    """One retention grid run, returning (rows, seconds, RunReport)."""
    from repro.experiments.retention import run_retention
    from repro.plan import PlanArtifactCache

    reports = []
    start = time.perf_counter()
    result = run_retention(
        scale,
        technologies=TECHNOLOGIES,
        methods=METHODS,
        plan_cache=PlanArtifactCache(root=cache_root),
        workers=workers,
        report_out=reports,
    )
    seconds = time.perf_counter() - start
    return _rows(result), seconds, reports[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the work-rectangle scheduler and eval cache."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sanity run (CI)")
    parser.add_argument("--workers", type=int, default=0,
                        help="rectangle pool size (0 = auto-size to the "
                             "core count)")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: "
                             "$REPRO_RESULTS_DIR/BENCH_scheduler.json)")
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.reporting import results_dir
    from repro.robustness import resolve_workers

    scale = get_scale("smoke" if args.smoke else "default")
    workers = resolve_workers(args.workers)
    report = {"scale": scale.name, "workers": workers}
    failures = []

    print(f"# bench_scheduler — scale: {scale.name}")
    with tempfile.TemporaryDirectory(prefix="bench-sched-") as root:
        serial_rows, serial_s, serial_rep = _run(
            scale, os.path.join(root, "serial")
        )
        rect_root = os.path.join(root, "rectangle")
        rect_rows, rect_s, rect_rep = _run(scale, rect_root, workers=workers)
        report["saturation"] = {
            "cells": len(rect_rep.cells),
            "tiles": rect_rep.tiles_total,
            "serial_seconds": serial_s,
            "rectangle_seconds": rect_s,
            "speedup": serial_s / max(rect_s, 1e-9),
            "byte_identical": rect_rows == serial_rows,
        }
        print(
            f"saturation: serial {serial_s:.1f}s vs --workers {workers} "
            f"rectangle {rect_s:.1f}s "
            f"({rect_rep.tiles_total} tiles, "
            f"{serial_s / max(rect_s, 1e-9):.1f}x), byte identical: "
            f"{rect_rows == serial_rows}"
        )
        if rect_rows != serial_rows or rect_rep.failed:
            failures.append("rectangle run diverged from serial")

        # Warm rerun: every eval tile served from the artifact cache.
        warm_rows, warm_s, warm_rep = _run(scale, rect_root, workers=workers)
        report["warm_rerun"] = {
            "cold_seconds": rect_s,
            "warm_seconds": warm_s,
            "speedup": rect_s / max(warm_s, 1e-9),
            "tiles_cached": warm_rep.tiles_cached,
            "tiles_computed": warm_rep.tiles_computed,
            "byte_identical": warm_rows == serial_rows,
        }
        print(
            f"warm rerun: cold {rect_s:.1f}s vs warm {warm_s:.1f}s "
            f"({rect_s / max(warm_s, 1e-9):.1f}x, "
            f"{warm_rep.tiles_cached}/{warm_rep.tiles_total} tiles from "
            f"cache), byte identical: {warm_rows == serial_rows}"
        )
        if (warm_rows != serial_rows or warm_rep.tiles_computed
                or warm_rep.tiles_cached != warm_rep.tiles_total):
            failures.append("warm rerun was not a passless byte-identical replay")

    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if failures:
        return 1

    out_path = args.output or os.path.join(
        results_dir(), "BENCH_scheduler.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[saved {out_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
