"""The pipeline benchmark: scenario grids and plan traffic, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-mixed --trace 1
    python3 perfbench/run.py        # every workload, untraced then traced

Workloads (rationale in ``grids.py`` and ``serve_mixed.py``):

- ``table1-cold``: serial Table 1 grid, cold then warm (in-situ, col2im);
- ``retention-pool``: drift grid on a 2-worker fork pool, cold then warm;
- ``serve-mixed``: the plan service under 90% warm / 10% cold POSTs.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` records spans around every layer and reports per-layer
metrics and self time per span name, beside the untraced numbers of the
same run.  Every output is checked: grid CSV bytes across repetitions,
cold/warm, traced/untraced and pool/serial; served plan bytes against a
direct engine resolution.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

from layers import PER_LAYER_UNITS, self_times
from stats import Tally

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("table1-cold", "retention-pool", "serve-mixed")

# End-to-end metric -> (unit, meaning).  Every workload reports all of
# them; BENCHMARK.json's ``end_to_end`` list mirrors this table.
E2E_UNITS = {
    "setup_s": ("s", "imports + zoo training from empty (+ server up and primed)"),
    "cold_p50_ms": ("ms", "median cold operation: cold grid, or cold POST"),
    "ops_per_s": ("1/s", "operations completed per second (req/s when serving)"),
    "peak_rss_mb": ("MB", "peak RSS of the process plus its largest child"),
}
# Printed beside them but not in the result line: the grids' half-second
# warm reruns spread by about the 0.25 bound from run to run on a noisy
# 2-core host, too close to gate on.
PRINTED_UNITS = {
    "warm_p50_ms": ("ms", "median warm operation: warm rerun, or warm POST"),
}

# The same numbers under the names the issue gives them, per workload.
ALIASES = {
    "table1-cold": {"grid_s": "cold_p50_ms", "warm_grid_s": "warm_p50_ms"},
    "retention-pool": {"grid_s": "cold_p50_ms", "warm_grid_s": "warm_p50_ms"},
    "serve-mixed": {"req_per_s": "ops_per_s"},
}


def environment():
    """What the numbers depend on: cores, interpreter, NumPy and its BLAS."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def self_time_table(spans, limit=40):
    rows = sorted(self_times(spans).items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"  {'span':<24} {'calls':>8} {'total s':>10} {'self s':>10}"]
    for name, row in rows[:limit]:
        lines.append(f"  {name:<24} {row['calls']:>8} "
                     f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    return lines


def run_one(workload, seed, seconds, trace):
    """Run one workload in this process; returns (report lines, result)."""
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(tmp, "results")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    tally = Tally()
    try:
        if workload == "serve-mixed":
            from serve_mixed import run_serve_workload

            out = run_serve_workload(seed, seconds, trace, tmp, env, tally)
        else:
            from grids import run_grid_workload

            out = run_grid_workload(workload, seed, seconds, trace, tmp, env, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = [f"# perfbench {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}"]
    lines.append("# env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    lines += out["lines"]
    lines += [f"FAILED: {reason}" for reason in tally.failures]
    metrics = {}
    if not trace and "e2e" in out:
        e2e = out["e2e"]
        lines.append("end-to-end (untraced):")
        printed = {**E2E_UNITS, **PRINTED_UNITS}
        for name, (unit, meaning) in printed.items():
            lines.append(f"  {name:<14} {e2e[name]:>12.4f} {unit:<4} {meaning}")
        for alias, name in ALIASES[workload].items():
            value = e2e[name] / 1e3 if name.endswith("_ms") else e2e[name]
            unit = "s" if name.endswith("_ms") else printed[name][0]
            lines.append(f"  {alias:<14} {value:>12.4f} {unit:<4} (= {name})")
        metrics = metric_values(e2e, {n: u for n, (u, _) in E2E_UNITS.items()})
    elif trace and "per_layer" in out:
        lines.append("end-to-end, untraced part of this run:")
        for name, value in out["e2e_untraced"].items():
            lines.append(f"  {name:<30} {value:.4f}")
        lines.append("self time per span name (traced part):")
        lines += self_time_table(out["spans"])
        lines.append("per-layer metrics (traced part):")
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"  {name:<26} {out['per_layer'][name]:>16.6g} {unit}")
        metrics = metric_values(out["per_layer"], PER_LAYER_UNITS)
    result = result_line(tally, metrics)
    lines.append(f"  {'error_rate':<14} "
                 f"{result['failed'] / result['attempted']:>12.4f}      "
                 f"({result['failed']} of {result['attempted']} operations failed)")
    return lines, result


def result_line(tally, metrics):
    """The result object printed as the last line of stdout."""
    failed = len(tally.failures)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed, seconds):
    """Every workload untraced, then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            output = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(output[:-1]), flush=True)
            try:
                result = json.loads(output[-1])
            except ValueError:
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics[f"{workload}.{name}"] = metric
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def pin_environment():
    """Drop every ``REPRO_*`` knob inherited from the caller (worker
    counts, fault schedules, tile heights, scale) and pin BLAS to one
    thread: measured, the same wall time as two at half the CPU, and
    byte-identical CSVs.  Must run before numpy loads; child processes
    inherit the result."""
    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def metric_values(values, units):
    """``{name: {"value", "unit"}}`` for every metric in ``units``."""
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        lines, result = run_one(args.workload, args.seed, args.seconds,
                                bool(args.trace))
        print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
