"""Benchmark: telemetry must be (nearly) free and must not lie.

1. **Overhead gate** — the smoke ``table1`` grid runs with telemetry
   off and with tracing on (alternating, min-of-N wall time each);
   tracing may cost at most 3% and every run's CSVs must be
   byte-identical — the gate refuses to compare runs that computed
   different results.
2. **Histogram honesty** — warm plan requests driven at a live
   :class:`~repro.serve.service.PlanService` are timed externally; the
   ``repro_serve_plan_seconds`` histogram must have counted every
   request and its bucket-derived p50/p99 (the same
   :func:`~repro.obs.metrics.bucket_quantile` ``/statsz`` reports)
   must bracket the externally measured percentiles (within one bucket
   of slack — the histogram only knows bounds, not exact values).

Writes ``$REPRO_RESULTS_DIR/BENCH_obs.json`` (CI uploads it)::

    PYTHONPATH=src python benchmarks/bench_obs.py          # default
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import math
import os
import sys
import tempfile
import time

OVERHEAD_LIMIT = 0.03
WARM_REQUESTS = 300
READ_TIMES = (1.0, 3.6e3, 2.592e6)


# ---------------------------------------------------------------- overhead


def _run_table1_once(scale, out_dir, cache_dir, traced):
    """One fresh-cache table1 run; returns (seconds, span_count, csv bytes)."""
    from repro.experiments.runner import GRIDS
    from repro.experiments.table1 import run_table1
    from repro.obs import TRACER, disable_tracing, enable_tracing

    os.environ["REPRO_CACHE_DIR"] = cache_dir
    if traced:
        enable_tracing()
    try:
        started = time.perf_counter()
        result = run_table1(scale)
        elapsed = time.perf_counter() - started
    finally:
        spans = TRACER.drain()
        disable_tracing()

    os.makedirs(out_dir, exist_ok=True)
    _, _, save = GRIDS["table1"]
    csvs = {}
    for path in save(result, out_dir):
        with open(path, "rb") as handle:
            csvs[os.path.basename(path)] = handle.read()
    return elapsed, len(spans), csvs


def bench_overhead(scale, work_root, repeats):
    """Paired untraced/traced table1 runs; gate on the best paired ratio.

    Wall time drifts across minutes (thermal, background load), so a
    global min-of-N comparison mostly measures when each mode happened
    to run.  Instead each round times an off/on *pair* back-to-back —
    alternating which mode goes first — and the gate takes the best
    (smallest) per-round on/off ratio: the cleanest observation of the
    true marginal cost of tracing.
    """
    timings = {"off": [], "on": []}
    ratios = []
    span_counts = []
    baseline_csvs = None
    identical = True
    for round_index in range(repeats):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        pair = {}
        for mode in order:
            tag = f"{mode}{round_index}"
            elapsed, span_count, csvs = _run_table1_once(
                scale,
                out_dir=os.path.join(work_root, f"results-{tag}"),
                cache_dir=os.path.join(work_root, f"cache-{tag}"),
                traced=(mode == "on"),
            )
            timings[mode].append(elapsed)
            pair[mode] = elapsed
            if mode == "on":
                span_counts.append(span_count)
            if baseline_csvs is None:
                baseline_csvs = csvs
            elif csvs != baseline_csvs:
                identical = False
            print(f"  table1[{mode}] run {round_index + 1}/{repeats}: "
                  f"{elapsed:.2f}s"
                  + (f", {span_count} spans" if mode == "on" else ""))
        ratios.append(pair["on"] / pair["off"])
    return {
        "repeats": repeats,
        "off_seconds": timings["off"],
        "on_seconds": timings["on"],
        "best_off_s": min(timings["off"]),
        "best_on_s": min(timings["on"]),
        "paired_ratios": ratios,
        "overhead_fraction": min(ratios) - 1.0,
        "spans_per_traced_run": span_counts,
        "csvs_byte_identical": identical,
    }


# ---------------------------------------------------------- histogram check


def _percentile(samples, p):
    ordered = sorted(samples)
    return ordered[round((p / 100.0) * (len(ordered) - 1))]


def _bucket_index(bounds, value):
    """Index of the ``le`` bucket ``value`` falls in (len(bounds) = +Inf)."""
    return bisect.bisect_left(bounds, value)


def bench_serve_histogram(scale, cache_root, requests):
    """Warm plan traffic: external percentiles vs the service histogram."""
    from repro.obs.metrics import bucket_quantile
    from repro.serve.cli import build_service

    body = {
        "methods": ["swim", "magnitude"],
        "nwc_targets": [0.1, 0.5, 0.9],
        "technology": "pcm",
        "read_time": READ_TIMES[0],
        "weight_bits": 4,
    }
    os.environ["REPRO_CACHE_DIR"] = cache_root
    registry = build_service(workloads=("lenet-digits",), scale=scale)
    service = registry.resolve()
    bodies = [
        json.dumps(dict(body, read_time=read_time)).encode("utf-8")
        for read_time in READ_TIMES
    ]

    async def drive():
        for payload in bodies:           # cold: populate the cache
            await service.plan(payload)
        latencies = []
        for index in range(requests):    # warm: the measured traffic
            payload = bodies[index % len(bodies)]
            started = time.perf_counter()
            served = await service.plan(payload)
            latencies.append(time.perf_counter() - started)
            assert served.source == "warm", served.source
        return latencies

    try:
        latencies = asyncio.run(drive())
    finally:
        registry.close()

    entry = service.metrics.snapshot()["repro_serve_plan_seconds"]
    bounds = tuple(entry["buckets"])
    sample = entry["samples"][(service.workload_label, "warm")]
    report = {
        "requests": requests,
        "histogram_count": sample["count"],
        "histogram_sum_s": sample["sum"],
        "external_p50_ms": 1e3 * _percentile(latencies, 50),
        "external_p99_ms": 1e3 * _percentile(latencies, 99),
    }
    brackets = {}
    for label, q in (("p50", 0.5), ("p99", 0.99)):
        upper = bucket_quantile(bounds, sample["buckets"], q)
        external = _percentile(latencies, q * 100)
        brackets[label] = {
            # "+Inf" (not float inf) so the report stays strict JSON
            "histogram_le_s": "+Inf" if upper == math.inf else upper,
            "external_s": external,
            # one bucket of slack: the external timer wraps the event
            # loop dispatch the internal one does not see
            "consistent": abs(
                _bucket_index(bounds, external) - _bucket_index(bounds, upper)
            ) <= 1,
        }
    report["brackets"] = brackets
    return report


# -------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark telemetry overhead and histogram honesty."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sanity run (CI)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="table1 runs per mode for the min-of-N "
                             "timing (default: 3, or 2 with --smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help=f"warm serve requests for the histogram "
                             f"check (default {WARM_REQUESTS})")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: "
                             "$REPRO_RESULTS_DIR/BENCH_obs.json)")
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.reporting import results_dir

    out_path = args.output or os.path.join(results_dir(), "BENCH_obs.json")
    scale = get_scale("smoke")
    repeats = args.repeats or (2 if args.smoke else 3)
    requests = args.requests or WARM_REQUESTS
    print(f"# bench_obs — scale: {scale.name}")

    saved_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    try:
        with tempfile.TemporaryDirectory(prefix="bench-obs-") as work_root:
            overhead = bench_overhead(scale, work_root, repeats)
            histogram = bench_serve_histogram(
                scale, os.path.join(work_root, "serve-cache"), requests
            )
    finally:
        if saved_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_dir

    report = {
        "scale": scale.name,
        "overhead_limit": OVERHEAD_LIMIT,
        "overhead": overhead,
        "serve_histogram": histogram,
    }

    print(f"tracing overhead: {100 * overhead['overhead_fraction']:+.2f}% "
          f"(best paired ratio over {overhead['repeats']} round(s); "
          f"limit {100 * OVERHEAD_LIMIT:.0f}%)")
    print(f"CSVs byte-identical across all runs: "
          f"{overhead['csvs_byte_identical']}")
    print(f"serve histogram: {histogram['histogram_count']} observations "
          f"for {histogram['requests']} warm requests; external "
          f"p50 {histogram['external_p50_ms']:.3f}ms, "
          f"p99 {histogram['external_p99_ms']:.3f}ms")
    for label, bracket in histogram["brackets"].items():
        upper = bracket["histogram_le_s"]
        upper_text = "+Inf" if upper == "+Inf" else f"{1e3 * upper:.3f}ms"
        print(f"  {label}: histogram le {upper_text}, external "
              f"{1e3 * bracket['external_s']:.3f}ms, consistent "
              f"{bracket['consistent']}")

    failed = []
    if not overhead["csvs_byte_identical"]:
        failed.append("traced and untraced runs produced different CSV "
                      "bytes — overhead comparison void")
    elif overhead["overhead_fraction"] > OVERHEAD_LIMIT:
        failed.append(
            f"tracing overhead {100 * overhead['overhead_fraction']:.2f}% "
            f"exceeds {100 * OVERHEAD_LIMIT:.0f}%"
        )
    if not all(count > 0 for count in overhead["spans_per_traced_run"]):
        failed.append("a traced run recorded zero spans")
    if histogram["histogram_count"] != histogram["requests"]:
        failed.append(
            f"histogram counted {histogram['histogram_count']} warm "
            f"requests, drove {histogram['requests']}"
        )
    for label, bracket in histogram["brackets"].items():
        if not bracket["consistent"]:
            failed.append(
                f"histogram {label} bucket disagrees with the externally "
                f"measured percentile by more than one bucket"
            )
    for reason in failed:
        print(f"ERROR: {reason}", file=sys.stderr)

    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[saved {out_path}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
