"""Benchmark: what fault tolerance costs, and what recovery buys.

Two questions about the robustness layer, each with a correctness
gate (byte-identical outcomes) attached:

1. **Supervision overhead** — the same fault-free retention grid run
   serially and under the supervised ``workers=N`` pool.  Supervision
   (process-per-tile, result queue, liveness polling) must stay a
   small constant per cell, not a tax proportional to cell runtime.
2. **Recovery cost** — the same grid with an injected worker crash:
   wall-clock overhead of detecting the crash and retrying versus the
   fault-free parallel run, with the final rows still byte-identical.

(What a rerun after a kill costs is the warm-rerun number of
``bench_scheduler.py``: finished tiles come back from the cache.)

Writes ``$REPRO_RESULTS_DIR/BENCH_robustness.json`` (CI uploads it)::

    PYTHONPATH=src python benchmarks/bench_robustness.py          # default
    PYTHONPATH=src python benchmarks/bench_robustness.py --smoke  # CI
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


def _run(scale, cache_root, workers=None, faults=None, ledger=None):
    """One retention grid run, returning (rows, seconds, RunReport)."""
    from repro.experiments.retention import run_retention
    from repro.plan import PlanArtifactCache

    previous = {
        key: os.environ.get(key)
        for key in ("REPRO_FAULTS", "REPRO_FAULTS_DIR", "REPRO_RETRY_BACKOFF")
    }
    if faults is not None:
        os.environ["REPRO_FAULTS"] = faults
        os.environ["REPRO_FAULTS_DIR"] = ledger
        os.environ["REPRO_RETRY_BACKOFF"] = "0"
    else:
        for key in previous:
            os.environ.pop(key, None)
    reports = []
    try:
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
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return _rows(result), seconds, reports[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the robustness layer's overhead and recovery."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sanity run (CI)")
    parser.add_argument("--workers", type=int, default=2,
                        help="supervised worker count")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: "
                             "$REPRO_RESULTS_DIR/BENCH_robustness.json)")
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.reporting import results_dir

    scale = get_scale("smoke" if args.smoke else "default")
    report = {"scale": scale.name, "workers": args.workers}
    failures = []

    print(f"# bench_robustness — scale: {scale.name}")
    with tempfile.TemporaryDirectory(prefix="bench-robust-") as root:
        serial_rows, serial_s, _ = _run(scale, os.path.join(root, "serial"))
        clean_rows, clean_s, clean_rep = _run(
            scale, os.path.join(root, "clean"), workers=args.workers
        )
        cells = len(clean_rep.cells)
        overhead = (clean_s - serial_s / max(args.workers, 1)) / max(cells, 1)
        report["supervision"] = {
            "cells": cells,
            "serial_seconds": serial_s,
            "supervised_seconds": clean_s,
            "per_cell_overhead_seconds": overhead,
            "byte_identical": clean_rows == serial_rows,
        }
        print(
            f"supervision: serial {serial_s:.1f}s vs supervised --workers "
            f"{args.workers} {clean_s:.1f}s over {cells} cells "
            f"(~{overhead:.2f}s/cell overhead), byte identical: "
            f"{clean_rows == serial_rows}"
        )
        if clean_rows != serial_rows:
            failures.append("supervised grid diverged from serial")

        # Recovery: crash the first cell, judge wall-clock vs clean run.
        os.environ["REPRO_CELL_TIMEOUT"] = "0"  # crashes only, no hang
        try:
            faulted_rows, faulted_s, faulted_rep = _run(
                scale, os.path.join(root, "faulted"), workers=args.workers,
                faults="crash:cell@0", ledger=os.path.join(root, "ledger"),
            )
        finally:
            os.environ.pop("REPRO_CELL_TIMEOUT", None)
        recovered = faulted_rep.count("recovered")
        report["recovery"] = {
            "faults": "crash:cell@0",
            "recovered_cells": recovered,
            "failed_cells": len(faulted_rep.failed),
            "fault_free_seconds": clean_s,
            "faulted_seconds": faulted_s,
            "recovery_overhead_seconds": faulted_s - clean_s,
            "byte_identical": faulted_rows == serial_rows,
        }
        print(
            f"recovery: faulted run {faulted_s:.1f}s vs fault-free "
            f"{clean_s:.1f}s ({recovered} recovered, "
            f"{len(faulted_rep.failed)} failed), byte identical: "
            f"{faulted_rows == serial_rows}"
        )
        if faulted_rows != serial_rows or recovered < 1 or faulted_rep.failed:
            failures.append("faulted grid did not recover byte-identically")

    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if failures:
        return 1

    out_path = args.output or os.path.join(
        results_dir(), "BENCH_robustness.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[saved {out_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
