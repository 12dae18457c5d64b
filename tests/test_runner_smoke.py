"""End-to-end smoke: the CLI runner produces CSV artifacts via subprocess.

Exercises the real entry point (``python -m repro.experiments.runner``)
the way CI and users invoke it, including the ``REPRO_RESULTS_DIR``
artifact contract and the trial-batched sweep path that the runner uses
by default.
"""

from __future__ import annotations

import json

import pytest

from .helpers import copy_cache, run_runner


@pytest.mark.slow
def test_runner_table1_smoke_writes_csvs(tmp_path):
    results = tmp_path / "results"
    proc = run_runner(results, "table1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Table 1" in proc.stdout

    csvs = sorted(p.name for p in results.glob("table1_sigma*.csv"))
    assert csvs == [
        "table1_sigma0.1.csv",
        "table1_sigma0.15.csv",
        "table1_sigma0.2.csv",
    ]
    header = (results / csvs[0]).read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("workload,sigma,method")


@pytest.mark.slow
def test_runner_ablations_smoke_is_a_cached_grid(tmp_path):
    """`runner ablations` prints all six studies, and a rerun over the
    same cache reads every tile of both of its grids and prints the
    same tables; its ``--save-plans`` file holds every cell's plan."""
    from repro.experiments.ablations import ablation_cells
    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload
    from repro.plan import load_plans

    def tables(stdout):
        return [line for line in stdout.splitlines()
                if not line.startswith(("[", "  cell"))]

    results = tmp_path / "results"
    first = run_runner(results, "ablations")
    assert first.returncode == 0, first.stderr[-2000:]
    for study in ("granularity", "device_bits", "tie_break",
                  "curvature_batches", "scorers", "differential"):
        assert f"Ablation — {study}" in first.stdout
    rerun = run_runner(results, "ablations", "--save-plans")
    assert rerun.returncode == 0, rerun.stderr[-2000:]
    robustness = [line for line in rerun.stdout.splitlines()
                  if line.startswith("[robustness]")]
    assert len(robustness) == 2, rerun.stdout
    assert all("computed=0" in line for line in robustness), robustness
    assert tables(rerun.stdout) == tables(first.stdout)

    zoo = load_workload(get_scale("smoke").workload("lenet-digits"))
    keys = {
        repr(cell.key)
        for cells in ablation_cells(zoo).values() for cell in cells
    }
    assert set(load_plans(results / "ablations_plans.json")) == keys


@pytest.mark.slow
def test_runner_devices_retention_smoke_writes_csvs(tmp_path):
    """The device-stack scenarios run green end to end from the CLI."""
    results = tmp_path / "results"
    proc = run_runner(results, "devices", "retention")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Technology summary" in proc.stdout
    assert "Retention — pcm" in proc.stdout
    assert "Retention — pcm-comp" in proc.stdout

    devices = (results / "devices.csv").read_text(encoding="utf-8").splitlines()
    assert devices[0].startswith("technology,workload,sigma,method")
    technologies = {line.split(",")[0] for line in devices[1:]}
    assert technologies >= {"fefet", "rram", "pcm", "mram"}

    retention = (results / "retention.csv").read_text(encoding="utf-8").splitlines()
    assert retention[0].startswith(
        "read_time_s,technology,workload,sigma,method"
    )
    times = {float(line.split(",")[0]) for line in retention[1:]}
    assert len(times) >= 2 and 1.0 in times
    retention_technologies = {line.split(",")[1] for line in retention[1:]}
    assert retention_technologies == {"pcm", "pcm-comp"}
    methods = {line.split(",")[4] for line in retention[1:]}
    assert "hetero_swim" in methods and "swim" in methods


@pytest.mark.slow
def test_runner_spatial_smoke_csv_schema_and_determinism(tmp_path):
    """The clustered-variation stress test: schema contract + fixed seed."""
    results = tmp_path / "results"
    proc = run_runner(results, "spatial")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Spatial — fefet-spatial" in proc.stdout

    spatial = (results / "spatial.csv").read_text(encoding="utf-8")
    lines = spatial.splitlines()
    assert lines[0] == (
        "correlation_length,technology,workload,sigma,method,nwc_target,"
        "achieved_nwc,accuracy_mean,accuracy_std,runs"
    )
    lengths = {float(line.split(",")[0]) for line in lines[1:]}
    assert lengths == {0.0, 8.0}  # the smoke preset's grid
    methods = {line.split(",")[4] for line in lines[1:]}
    assert methods == {"swim", "hetero_swim", "magnitude"}
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        assert 0.0 <= float(fields[7]) <= 1.0  # accuracy_mean

    # Deterministic under the fixed seed: a second run reproduces the
    # CSV byte for byte (the model comes back from the artifact cache,
    # and every stochastic stage draws from named streams).
    rerun = tmp_path / "rerun"
    proc2 = run_runner(rerun, "spatial")
    assert proc2.returncode == 0, proc2.stderr[-2000:]
    assert (rerun / "spatial.csv").read_text(encoding="utf-8") == spatial


@pytest.mark.slow
def test_runner_retention_parallel_jobs_byte_identical(
        tmp_path, retention_reference):
    """``--workers 2`` reproduces the serial scenario CSV byte for byte.

    The orchestrator fans the (technology, read time) tiles over a fork
    pool, but every cell derives all randomness from its own named
    streams — so the parallel CSV must be identical, not just close.
    The parallel side runs over the serial run's store without its eval
    tiles, so it really computes on the pool (the trace shows tile
    spans from several worker pids).  The run also exercises
    ``--save-plans`` (the offline plan artifact).
    """
    cache = copy_cache(retention_reference.cache, tmp_path / "cache",
                       drop="eval-")
    parallel = tmp_path / "parallel"
    trace = tmp_path / "trace.jsonl"
    proc = run_runner(parallel, "retention", "--workers", "2",
                      "--save-plans", "--trace", trace,
                      REPRO_CACHE_DIR=cache)
    assert proc.returncode == 0, proc.stderr[-2000:]

    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    runner_pid = next(s["pid"] for s in spans if s["name"] == "runner.retention")
    tile_pids = {s["pid"] for s in spans if s["name"] == "scenario.tile"}
    assert len(tile_pids - {runner_pid}) >= 2

    serial_csv = retention_reference.csv
    assert serial_csv == (parallel / "retention.csv").read_bytes()
    assert len(serial_csv) > 0

    plans = (parallel / "retention_plans.json").read_text(encoding="utf-8")
    assert '"orders"' in plans and "pcm" in plans
