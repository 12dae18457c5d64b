"""Scenario-grid workloads: ``table1-cold`` and ``retention-pool``.

Both run a smoke-preset grid from an empty plan cache (the cold grid),
then rerun it over the same cache root, each time with a new cache
object and a reloaded zoo (the warm reruns), and repeat that until the
run's seconds are spent.

``table1-cold`` is the paper's Table 1 (LeNet, 3 sigmas x {swim,
magnitude, random, insitu} x 7 NWC x 2 trials), run serially.  The
in-situ baseline's conv backward (``col2im``) and the serial tile path
carry most of its time, so backward-kernel work shows here; it
bypasses the fork pool.

``retention-pool`` is the drift grid (pcm and pcm-comp x 3 read times,
no in-situ) on the supervised fork pool with two workers.  It is
forward-only: the evaluation pass (``im2col``, max-pool) dominates, and
per-read-time variance maps, the drift read stage and the pool are
exercised.  It bypasses in-situ and ``col2im`` (except the curvature
pass), so changes there must not move it.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
import time

import numpy as np

from layers import ancestors, instrument, layer_metrics
from stats import median, peak_rss

HERE = os.path.dirname(os.path.abspath(__file__))
GRID_WORKLOADS = {"table1-cold": "table1", "retention-pool": "retention"}
POOL_WORKERS = 2
SETUP_REPEATS = 3
# Warm reruns per cold grid: more samples of the short, noisy warm path.
WARM_RERUNS = 6


def _run_grid(kind, seed, cache_root, workers=None, **kwargs):
    """One grid over a new ``PlanArtifactCache`` at ``cache_root``."""
    from repro.experiments.config import get_scale
    from repro.experiments.retention import run_retention
    from repro.experiments.table1 import run_table1
    from repro.plan import PlanArtifactCache

    reports = []
    run = run_table1 if kind == "table1" else run_retention
    result = run(get_scale("smoke"), seed=seed, workers=workers,
                 plan_cache=PlanArtifactCache(root=cache_root),
                 report_out=reports, **kwargs)
    return result, reports[-1]


def csv_bytes(kind, result, out_dir):
    """The grid's CSV files exactly as the runner writes them."""
    from repro.experiments.reporting import save_retention_csv, save_sweep_csv

    os.makedirs(out_dir, exist_ok=True)
    if kind == "table1":
        paths = [
            save_sweep_csv(outcome, os.path.join(out_dir, f"table1_sigma{sigma:g}.csv"))
            for sigma, outcome in result.outcomes.items()
        ]
    else:
        paths = [save_retention_csv(result, os.path.join(out_dir, "retention.csv"))]
    blobs = {}
    for path in paths:
        with open(path, "rb") as handle:
            blobs[os.path.basename(path)] = handle.read()
    return blobs


def digest(blobs):
    sha = hashlib.sha256()
    for name in sorted(blobs):
        sha.update(name.encode() + b"\0" + blobs[name] + b"\0")
    return sha.hexdigest()[:16]


def nwc1_disagreements(result):
    """Cells where write-verify methods differ at NWC = 1 (must be none).

    At full budget every method verifies every weight on the same draws,
    so their per-trial accuracies must agree exactly.
    """
    bad = []
    for key, outcome in result.outcomes.items():
        index = list(outcome.nwc_targets).index(1.0)
        rows = [
            curve.accuracy_runs[:, index]
            for method, curve in outcome.curves.items() if method != "insitu"
        ]
        if any(not np.array_equal(rows[0], row) for row in rows[1:]):
            bad.append(key)
    return bad


def timed_setup(workload, tmp, env, tally):
    """Time one fresh process training the zoo into an empty cache dir.

    Returns the seconds and the cache dir (the zoo it trained).
    """
    cache_dir = tempfile.mkdtemp(prefix="zoo-", dir=tmp)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "zoo",
         "--workload", workload],
        env=dict(env, REPRO_CACHE_DIR=cache_dir),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170,
    )
    seconds = time.perf_counter() - start
    tally.check(proc.returncode == 0,
                f"setup exited {proc.returncode}: {proc.stderr[-300:]!r}")
    return seconds, cache_dir


def _pair(kind, seed, tmp, workers, tally, state, label="", between=None):
    """One cold grid and its warm reruns, timed and checked.

    ``between()``, when given, runs after each warm rerun, outside the
    timed operations.  Returns the ``bench.<phase>_grid`` span records
    (None while tracing is off).
    """
    from repro.obs import TRACER

    index = len(state["cold"]) + len(state["traced_cold"])
    cache_root = os.path.join(tmp, f"plan-{index}")
    records = []
    for phase in ("cold",) + ("warm",) * WARM_RERUNS:
        began = time.perf_counter()
        with TRACER.span(f"bench.{phase}_grid") as span:
            result, report = _run_grid(kind, seed, cache_root, workers)
        state[label + phase].append(time.perf_counter() - began)
        records.append(getattr(span, "record", None))
        blob = digest(csv_bytes(kind, result, os.path.join(tmp, "csv")))
        reference = state.setdefault("digest", blob)
        tally.check(blob == reference,
                    f"{label}{phase} grid {index}: CSV {blob} != {reference}")
        tally.check(not report.failed,
                    f"{phase} grid {index}: failed cells {report.failed}")
        if phase == "cold":
            bad = nwc1_disagreements(result)
            tally.check(not bad, f"methods disagree at NWC=1 in {bad}")
        else:
            tally.check(report.tiles_computed == 0,
                        f"warm rerun {index} computed {report.tiles_computed} tile(s)")
        state["tiles_computed"] += report.tiles_computed
        state["tiles_cached"] += report.tiles_cached
        state["result"] = result
        if phase == "warm" and between is not None:
            between()
    return records


def _serial_reference(kind, seed, tmp, state, tally):
    """retention-pool: one seeded cell rerun serially must match the pool."""
    if kind != "retention":
        return None
    result = state["result"]
    cells = sorted(result.outcomes)
    technology, read_time = random.Random(seed).choice(cells)
    serial, _ = _run_grid(kind, seed, os.path.join(tmp, "serial"),
                          technologies=(technology,), times=(read_time,))
    prefix = f"{read_time:g},{technology},"
    pooled = csv_bytes(kind, result, os.path.join(tmp, "csv"))["retention.csv"]
    alone = csv_bytes(kind, serial, os.path.join(tmp, "csv"))["retention.csv"]
    want = [line for line in pooled.decode().splitlines() if line.startswith(prefix)]
    got = alone.decode().splitlines()[1:]
    tally.check(bool(want) and got == want,
                f"serial cell {technology}@{read_time:g}s differs from the pool")
    return f"{technology}@{read_time:g}s"


def _design_checks(kind, spans, metrics, tally):
    """What the traced run must show about the workload's design."""
    if kind == "table1":
        tally.check(metrics["sched.pool.s"] == 0, "table1-cold used the fork pool")
        tally.check(metrics["insitu.run.s"] > 0, "table1-cold ran no in-situ")
        return
    tally.check(metrics["insitu.run.s"] == 0, "retention-pool ran in-situ")
    tally.check(metrics["sched.pool.s"] > 0, "retention-pool skipped the pool")
    by_id = {record["id"]: record for record in spans}
    stray = [
        record for record in spans
        if record["name"] == "nn.col2im"
        and not {"plan.curvature", "bench.setup"} & set(ancestors(record, by_id))
    ]
    tally.check(not stray, f"{len(stray)} col2im call(s) outside the curvature pass")


def run_grid_workload(name, seed, seconds, trace, tmp, env, tally):
    """Measure one grid workload; returns the benchmark's result dict."""
    from repro.obs import TRACER
    from repro.obs.metrics import get_registry

    kind = GRID_WORKLOADS[name]
    workers = POOL_WORKERS if kind == "retention" else None
    state = {"cold": [], "warm": [], "traced_cold": [], "traced_warm": [],
             "tiles_computed": 0, "tiles_cached": 0}
    out = {"lines": []}

    if not trace:
        # The machine's speed drifts over seconds, so the set-ups are
        # spread between the warm reruns instead of run back to back:
        # each kind of sample then sees a similar mix of conditions.
        first, cache_dir = timed_setup("lenet-digits", tmp, env, tally)
        setups = [first]
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        from repro.experiments import runner  # noqa: F401  (outside the window)

        def another_setup():
            if len(setups) < SETUP_REPEATS:
                setups.append(timed_setup("lenet-digits", tmp, env, tally)[0])

        while sum(state["cold"]) + sum(state["warm"]) < seconds:
            _pair(kind, seed, tmp, workers, tally, state, between=another_setup)
        cold, warm = state["cold"], state["warm"]
        out["e2e"] = {
            "peak_rss_mb": peak_rss(out["lines"]),
            "setup_s": median(setups),
            "cold_p50_ms": 1e3 * median(cold),
            "warm_p50_ms": 1e3 * median(warm),
            "ops_per_s": (len(cold) + len(warm)) / (sum(cold) + sum(warm)),
        }
        out["lines"].append(
            f"setups (s): {', '.join(f'{s:.3f}' for s in setups)}; "
            f"cold grids (s): {', '.join(f'{s:.3f}' for s in cold)}; "
            f"warm reruns (s): {', '.join(f'{s:.3f}' for s in warm)}"
        )
    else:
        # A fixed amount of traced work (set-up, then one pair), so the
        # per-layer totals compare across runs and commits; one untraced
        # pair before it gives the overhead's base.
        instrument()
        from repro.experiments import runner  # noqa: F401
        from repro.experiments.config import get_scale
        from repro.experiments.model_zoo import load_workload

        os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "zoo")
        supervisor = get_registry().flat("repro_supervisor_")
        TRACER.enable()
        began = time.perf_counter()
        with TRACER.span("bench.setup") as setup_span:
            load_workload(get_scale("smoke").workload("lenet-digits"))
        setup_s = time.perf_counter() - began
        TRACER.disable()
        _pair(kind, seed, tmp, workers, tally, state)
        state["tiles_computed"] = state["tiles_cached"] = 0
        TRACER.enable()
        roots = [setup_span.record] + _pair(kind, seed, tmp, workers, tally,
                                            state, label="traced_")
        TRACER.disable()
        spans = TRACER.drain()
        metrics = layer_metrics(spans, roots)
        metrics["sched.tiles.computed"] = state["tiles_computed"]
        metrics["sched.tiles.cached"] = state["tiles_cached"]
        after = get_registry().flat("repro_supervisor_")
        for counter in ("retries", "crashes", "timeouts"):
            metrics[f"supervisor.{counter}"] = (
                after.get(counter, 0) - supervisor.get(counter, 0))
        metrics["obs.trace_overhead"] = (
            (sum(state["traced_cold"]) + sum(state["traced_warm"]))
            / (sum(state["cold"]) + sum(state["warm"])) - 1
        )
        _design_checks(kind, spans, metrics, tally)
        out["per_layer"] = metrics
        out["spans"] = spans
        out["e2e_untraced"] = {
            "setup_s (traced, in-process)": setup_s,
            "cold_p50_ms": 1e3 * state["cold"][0],
            "warm_p50_ms": 1e3 * median(state["warm"]),
        }
        out["lines"].append(
            f"traced CSV digests checked against untraced {state['digest']} "
            f"(traced cold {1e3 * state['traced_cold'][0]:.1f} ms, "
            f"warm p50 {1e3 * median(state['traced_warm']):.1f} ms)"
        )

    cell = _serial_reference(kind, seed, tmp, state, tally)
    if cell:
        out["lines"].append(f"serial reference cell {cell}: checked")
    out["lines"].append(f"seed {seed}: CSV digest {state.get('digest')}")
    return out
