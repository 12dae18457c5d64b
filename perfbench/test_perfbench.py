"""Self-tests for the benchmark's own helpers: percentiles, self time,
per-layer derivation, request generation and the output schema."""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest

import run
from layers import PER_LAYER_UNITS, ancestors, layer_metrics, self_times, union_length
from serve_mixed import COLD_SHARE, ENGINES, HOT_SET, generate
from stats import Tally, percentile

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _span(name, id, parent, start, dur, pid=1, **attrs):
    return {"name": name, "id": id, "parent": parent, "start": start,
            "dur": dur, "pid": pid, "attrs": attrs}


@pytest.mark.parametrize("p", [0, 1, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(p):
    rng = random.Random(p)
    samples = [rng.expovariate(1.0) for _ in range(37)]
    assert percentile(samples, p) == pytest.approx(np.percentile(samples, p))


def test_percentile_edges():
    assert percentile([4.0], 99) == 4.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_union_length_counts_overlap_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_uses_union_of_parallel_children():
    spans = [
        _span("pool", "p", None, 0.0, 10.0),
        _span("tile", "a", "p", 1.0, 6.0, pid=2),  # two workers overlap
        _span("tile", "b", "p", 2.0, 6.0, pid=3),
        _span("kernel", "k", "a", 1.0, 2.0, pid=2),
    ]
    table = self_times(spans)
    assert table["pool"]["self_s"] == pytest.approx(10.0 - 7.0)
    assert table["tile"] == {"calls": 2, "total_s": 12.0,
                             "self_s": pytest.approx(10.0)}
    assert table["kernel"]["self_s"] == pytest.approx(2.0)


def test_self_time_clips_children_to_parent():
    spans = [_span("a", "a", None, 0.0, 1.0), _span("b", "b", "a", 0.5, 5.0)]
    assert self_times(spans)["a"]["self_s"] == pytest.approx(0.5)


def test_ancestors_nearest_first():
    spans = [_span("root", "r", None, 0, 3), _span("mid", "m", "r", 0, 2),
             _span("leaf", "l", "m", 0, 1)]
    by_id = {s["id"]: s for s in spans}
    assert ancestors(by_id["l"], by_id) == ["mid", "root"]
    assert ancestors(by_id["r"], by_id) == []


def test_layer_metrics_from_spans():
    root = _span("bench.cold_grid", "g", None, 0.0, 10.0)
    spans = [
        root,
        _span("sched.pool", "p", "g", 0.0, 8.0, workers=2),
        _span("scenario.tile", "t1", "p", 0.0, 8.0, pid=2),
        _span("scenario.tile", "t2", "p", 0.0, 4.0, pid=3),
        _span("cim.write_verify", "w1", "t1", 0.0, 0.5, pid=2, pulses=300),
        _span("cim.write_verify", "w2", "t2", 0.0, 0.5, pid=3, pulses=100),
        _span("cache.get", "c1", "g", 8.0, 0.1, hit=True),
        _span("cache.get", "c2", "g", 8.1, 0.1, hit=False),
        _span("cache.put", "c3", "g", 8.2, 0.1, bytes=64),
        _span("nn.im2col", "i", "t1", 1.0, 0.25, pid=2),
    ]
    metrics = layer_metrics(spans, [root])
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["cim.verify_pulses"] == 400
    assert metrics["cim.pulses_per_s"] == pytest.approx(400.0)
    assert metrics["cache.get.calls"] == 2
    assert metrics["cache.hit_ratio"] == pytest.approx(0.5)
    assert metrics["cache.put.bytes"] == 64
    assert metrics["nn.im2col.calls"] == 1
    assert metrics["sched.tile.s"] == pytest.approx(12.0)
    assert metrics["sched.pool_busy_frac"] == pytest.approx(12.0 / 16.0)
    assert metrics["obs.span_coverage"] == pytest.approx(8.3 / 10.0)
    assert metrics["insitu.run.s"] == 0


def test_generated_inputs_depend_on_the_seed_alone():
    hot, sequences = generate(7, per_client=4000)
    again, repeat = generate(7, per_client=4000)
    assert (hot, sequences) == (again, repeat)
    assert generate(8, per_client=10)[0] != hot
    assert len(hot) == HOT_SET
    assert {body["workload"] for body in hot} == set(ENGINES)
    cold = [item for seq in sequences for kind, item in seq if kind == "cold"]
    share = len(cold) / sum(len(seq) for seq in sequences)
    assert abs(share - COLD_SHARE) < 0.02
    read_times = [body["read_time"] for body in cold + hot]
    assert len(set(read_times)) == len(read_times)  # every cold body is new
    assert all(1.0 <= t <= 3.1536e7 for t in read_times)


def test_result_line_schema():
    tally = Tally()
    tally.check(True, "fine")
    metrics = run.metric_values({"setup_s": 1.5}, {"setup_s": "s"})
    result = run.result_line(tally, metrics)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result == {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}
    tally.check(False, "broken")
    assert run.result_line(tally, metrics)["correct"] is False
    assert run.result_line(Tally(), {})["attempted"] == 1


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in run.E2E_UNITS.items()}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "table1-cold"]) != 0
    assert capsys.readouterr().out == ""
