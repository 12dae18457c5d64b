"""Tests for the telemetry subsystem (``repro.obs``).

Three contracts matter most and each gets a direct test here:

- the metrics registry counts *exactly* under thread contention;
- trace spans nest across the ``supervised_map`` fork boundary (worker
  spans re-attach under the span that was open at map entry);
- telemetry never perturbs results — a traced run's CSV bytes and
  cache keys are identical to an untraced run's (subprocess tripwire).
"""

import json
import math
import os
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    TRACER,
    bucket_quantile,
    disable_tracing,
    enable_tracing,
    render_prometheus,
    span,
)
from repro.obs.validate import _main, validate_exposition, validate_spans

from .helpers import cache_keys, copy_cache, run_runner


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled and no residue."""
    disable_tracing()
    TRACER.drain()
    yield
    disable_tracing()
    TRACER.drain()


# ------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_eight_thread_hammer_counts_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "hammered")
        labeled = registry.counter("hammer_by_lane_total", "per lane",
                                   labels=("lane",))
        gauge = registry.gauge("hammer_last", "last value seen")
        hist = registry.histogram("hammer_seconds", "latencies",
                                  buckets=(0.1, 1.0))
        per_thread, threads = 2500, 8
        barrier = threading.Barrier(threads)

        def pound(lane):
            barrier.wait()
            for i in range(per_thread):
                counter.inc()
                labeled.labels(lane=str(lane % 2)).inc(2)
                gauge.set(i)
                hist.observe(0.05 if i % 2 else 5.0)

        pool = [threading.Thread(target=pound, args=(n,)) for n in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        total = threads * per_thread
        assert counter.value == total
        assert labeled.labels(lane="0").value == 2 * total // 2
        assert labeled.labels(lane="1").value == 2 * total // 2
        counts, sum_, count = hist.snapshot()
        assert count == total
        assert counts[-1] == total            # +Inf cumulative
        assert counts[0] == total // 2        # 0.05 <= 0.1
        assert sum_ == pytest.approx(total // 2 * 0.05 + total // 2 * 5.0)

    def test_histogram_buckets_are_cumulative_and_le(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "h", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 9.0):
            hist.observe(value)
        counts, _, count = hist.snapshot()
        # value == bound lands in that bucket (le semantics)
        assert counts == (2, 3, 4) and count == 4
        # a quantile is its bucket's upper bound, +Inf past the last one
        assert bucket_quantile(hist.buckets, counts, 0.5) == 1.0
        assert bucket_quantile(hist.buckets, counts, 0.75) == 2.0
        assert bucket_quantile(hist.buckets, counts, 0.99) == math.inf
        assert bucket_quantile((1.0, 2.0), (0, 0, 0), 0.5) is None

    def test_declare_is_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "x")
        assert registry.counter("x_total", "x") is a
        with pytest.raises(ValueError):
            registry.gauge("x_total", "now a gauge")
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labels=("route",))

    def test_flat_reproduces_legacy_stats_keys(self):
        registry = MetricsRegistry()
        hits = registry.counter("repro_cache_hits_total", "hits",
                                labels=("tier",))
        hits.labels(tier="memory").inc(3)
        hits.labels(tier="disk").inc(1)
        registry.counter("repro_cache_misses_total", "misses").inc(2)
        registry.gauge("repro_cache_memory_entries", "entries").set(5)
        assert registry.flat("repro_cache_") == {
            "memory": 3, "disk": 1, "misses": 2, "memory_entries": 5,
        }

    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("r_total", "a counter", labels=("k",)).labels(
            k='sp ce"\\x').inc()
        registry.gauge("r_gauge", "a gauge").set(1.5)
        registry.histogram("r_seconds", "a histogram",
                           buckets=DEFAULT_LATENCY_BUCKETS).observe(0.2)
        text = render_prometheus(registry)
        assert list(validate_exposition(text)) == []
        assert 'le="+Inf"' in text

    def test_render_prometheus_dedups_by_identity(self):
        registry = MetricsRegistry()
        registry.counter("one_total", "one").inc()
        text = render_prometheus(registry, registry)
        assert text.count("# TYPE one_total counter") == 1


# ---------------------------------------------------------------- spans


class TestSpans:
    def test_disabled_span_is_noop_singleton(self):
        first, second = span("a"), span("b")
        assert first is second
        with first:
            pass
        assert TRACER.drain() == []

    def test_nesting_links_parents(self):
        enable_tracing()
        with span("outer") as outer:
            with span("inner", detail=1):
                pass
        spans = {s["name"]: s for s in TRACER.drain()}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["attrs"] == {"detail": 1}
        assert spans["outer"]["dur"] >= 0
        assert outer.record["id"] == spans["outer"]["id"]

    def test_exception_is_recorded_and_stack_unwinds(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        (record,) = TRACER.drain()
        assert record["attrs"]["error"] == "RuntimeError"
        assert TRACER.current_span_id() is None

    def test_fork_workers_reattach_under_map_entry_span(self):
        from repro.robustness.supervisor import has_fork, supervised_map

        if not has_fork():
            pytest.skip("needs the fork start method")
        enable_tracing()

        def work(item):
            with span("worker.cell", item=item):
                return item * item

        with span("map.entry") as entry:
            result = supervised_map(work, [1, 2, 3], workers=2, backoff=0.0)
        assert result.values == {1: 1, 2: 4, 3: 9}
        spans = TRACER.drain()
        workers = [s for s in spans if s["name"] == "worker.cell"]
        assert len(workers) == 3
        parent_id = entry.record["id"]
        assert {s["parent"] for s in workers} == {parent_id}
        assert any(s["pid"] != os.getpid() for s in workers)
        # shipped spans validate once exported alongside the parent's
        lines = [json.dumps(s) for s in spans]
        assert list(validate_spans(lines)) == []


# ------------------------------------------------------------- validate


class TestValidators:
    def test_validate_spans_flags_problems(self):
        good = {"name": "a", "id": "1", "parent": None, "start": 0.0,
                "dur": 0.1, "pid": 1}
        assert list(validate_spans([json.dumps(good)])) == []
        problems = list(validate_spans([
            "not json",
            json.dumps({"name": "b"}),
            json.dumps(dict(good, id="2", parent="missing")),
        ]))
        assert [line for line, _ in problems] == [1, 2, 3]

    def test_validate_exposition_flags_malformed_lines(self):
        assert list(validate_exposition("# HELP a_total ok\n"
                                        "# TYPE a_total counter\n"
                                        "a_total 3\n")) == []
        bad = list(validate_exposition("not a metric line!\n"))
        assert bad and bad[0][0] == 1

    @pytest.mark.parametrize("mode", ["spans", "metrics"])
    def test_unreadable_path_is_one_error_line(self, mode, tmp_path, capsys):
        for path in (tmp_path / "missing", tmp_path):  # absent; a directory
            assert _main([mode, str(path)]) == 74
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("mode, good", [
        ("spans", json.dumps({"name": "a", "id": "1", "parent": None,
                              "start": 0.0, "dur": 0.1, "pid": 1})),
        ("metrics", "a_total 3"),
    ])
    def test_undecodable_bytes_are_a_problem_on_their_line(
            self, mode, good, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(good.encode() + b"\n\xff\xfe bad\n")
        assert _main([mode, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"{path}:2: not UTF-8", f"FAIL: 1 problem(s) in {path}",
        ]


# ------------------------------------------- tripwire: bytes unperturbed


class TestTracingIsInert:
    def test_traced_run_matches_untraced_bytes_and_cache_keys(
            self, tmp_path, retention_reference):
        """`--trace` must not leak into results or cache keys: the CSV
        bytes and the content-addressed artifact set are identical with
        tracing on and off.  The traced run starts from the untraced
        run's trained model alone, so it writes every plan, variance,
        order and tile artifact itself."""
        cache = copy_cache(retention_reference.cache, tmp_path / "cache",
                           keep="zoo-")
        trace_path = tmp_path / "trace.jsonl"
        results = tmp_path / "traced" / "results"
        traced = run_runner(results, "retention", "--trace", trace_path,
                            REPRO_CACHE_DIR=cache)
        assert traced.returncode == 0, traced.stderr[-2000:]

        traced_csv = results / "retention.csv"
        assert retention_reference.csv == traced_csv.read_bytes()
        assert retention_reference.keys == cache_keys(cache)

        with open(trace_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines, "traced run wrote no spans"
        assert list(validate_spans(lines)) == []
        names = {json.loads(line)["name"] for line in lines}
        assert "runner.retention" in names
        assert (tmp_path / "trace.chrome.json").exists()
