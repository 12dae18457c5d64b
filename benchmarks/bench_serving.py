"""Benchmark: the plan-serving layer's three perf contracts.

1. **Cold serving** — sequential ``POST /v1/plan`` over distinct
   read times, each paying one engine resolution.
2. **Warm fast-path** — repeated rounds of the same requests replay
   cached canonical bytes; the ``engine_resolutions`` tripwire must
   stay flat and warm p50 must be >= 10x faster than cold p50.
3. **Coalescing** — K identical concurrent POSTs on a fresh key must
   collapse into exactly one engine resolution.
4. **Multi-workload** — interleaved warm traffic routed at two engines
   of one registry (``workload`` field, plus one ``model``-digest
   route); both per-engine tripwires must stay flat and the two
   workloads' key spaces must stay disjoint.

Every tripwire is read from ``GET /statsz``, the surface operators
read, not from in-process state.

Every served plan is also checked byte-identical against a direct
memory-only :class:`~repro.plan.engine.PlanEngine` resolution — the
speed must not come from serving different bytes.

Writes ``$REPRO_RESULTS_DIR/BENCH_serving.json`` (CI uploads it)::

    PYTHONPATH=src python benchmarks/bench_serving.py          # default
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

METHODS = ("swim", "hetero_swim", "magnitude")
NWC_BUDGETS = (0.1, 0.3, 0.5, 0.7, 0.9)
READ_TIMES = (1.0, 3.6e3, 8.64e4, 2.592e6, 7.776e6, 3.1536e7)
COALESCE_READ_TIME = 6.048e5  # a key no other phase touches
COALESCE_CLIENTS = 16
MULTI_WORKLOADS = ("lenet-digits", "convnet-cifar")


def _body(read_time, weight_bits):
    return {
        "methods": list(METHODS),
        "nwc_targets": list(NWC_BUDGETS),
        "technology": "pcm-comp",
        "read_time": read_time,
        "weight_bits": weight_bits,
    }


def _percentile(samples, p):
    ordered = sorted(samples)
    return ordered[round((p / 100.0) * (len(ordered) - 1))]


def _classify(seconds_list, total_seconds):
    return {
        "requests": len(seconds_list),
        "requests_per_second": len(seconds_list) / max(total_seconds, 1e-9),
        "p50_ms": 1e3 * _percentile(seconds_list, 50),
        "p99_ms": 1e3 * _percentile(seconds_list, 99),
    }


class _ServerThread:
    """The HTTP server on a daemon thread (ephemeral port)."""

    def __init__(self, registry):
        from repro.serve import PlanHTTPServer

        self.server = PlanHTTPServer(registry, port=0)
        self._ready = threading.Event()
        self._loop = None
        self.error = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        async def serve():
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            return await self.server.run(install_signals=False)

        try:
            asyncio.run(serve())
        except BaseException as exc:
            self.error = exc
        finally:
            self._ready.set()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=120), "server never came up"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive() and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass
            self._thread.join(timeout=120)

    @property
    def port(self):
        return self.server.port


def _resolutions(port, workload):
    """One workload's ``engine_resolutions`` tripwire, from ``/statsz``."""
    from repro.serve import PlanClient

    with PlanClient(port=port, timeout=600) as client:
        stats = client.statsz()
    return stats["engines"][workload]["requests"]["engine_resolutions"]


def bench_serving(workload, port, weight_bits, warm_rounds):
    """Run the three phases against a live server; returns the report.

    Unrouted requests reach ``workload``, the server's default route.
    """
    from repro.serve import PlanClient

    bodies = [_body(t, weight_bits) for t in READ_TIMES]
    report = {}

    with PlanClient(port=port, timeout=600) as client:
        # -- cold: each distinct read time pays one engine resolution
        served = {}
        latencies = []
        start = time.perf_counter()
        for body in bodies:
            t0 = time.perf_counter()
            response = client.plan(body)
            latencies.append(time.perf_counter() - t0)
            assert response.source == "cold", response.source
            served[response.key] = response.data
        report["cold"] = _classify(latencies, time.perf_counter() - start)

        tripwire = _resolutions(port, workload)
        assert tripwire == len(bodies), (tripwire, len(bodies))

        # -- warm: repeated rounds replay stored bytes, tripwire flat
        latencies = []
        start = time.perf_counter()
        for _ in range(warm_rounds):
            for body in bodies:
                t0 = time.perf_counter()
                response = client.plan(body)
                latencies.append(time.perf_counter() - t0)
                assert response.source == "warm", response.source
                assert response.data == served[response.key]
        report["warm"] = _classify(latencies, time.perf_counter() - start)
        report["warm"]["tripwire_flat"] = (
            _resolutions(port, workload) == tripwire
        )

    # -- coalesced: K identical concurrent POSTs, one resolution
    fresh = _body(COALESCE_READ_TIME, weight_bits)
    barrier = threading.Barrier(COALESCE_CLIENTS)

    def fire():
        with PlanClient(port=port, timeout=600) as worker:
            barrier.wait()
            t0 = time.perf_counter()
            response = worker.plan(fresh)
            return time.perf_counter() - t0, response

    before = _resolutions(port, workload)
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=COALESCE_CLIENTS) as pool:
        results = list(pool.map(lambda _: fire(), range(COALESCE_CLIENTS)))
    total = time.perf_counter() - start
    resolutions = _resolutions(port, workload) - before
    payloads = {response.data for _, response in results}
    report["coalesced"] = {
        **_classify([seconds for seconds, _ in results], total),
        "concurrent_clients": COALESCE_CLIENTS,
        "engine_resolutions": resolutions,
        "sources": sorted(response.source for _, response in results),
        "byte_identical_fanout": len(payloads) == 1,
    }
    served[results[0][1].key] = results[0][1].data
    return report, served


def bench_multi_workload(port, weight_bits, rounds):
    """Interleaved warm traffic across two engines of one registry.

    Warms both engines over a body set, then interleaves routed warm
    POSTs round-robin across the workloads: both per-engine
    ``engine_resolutions`` tripwires must stay flat, the two key
    spaces must stay disjoint, and a ``model``-digest route must hit
    the same warm path a ``workload`` route does.
    """
    from repro.serve import PlanClient

    bodies = [_body(t, weight_bits) for t in READ_TIMES[:3]]
    keys = {workload: set() for workload in MULTI_WORKLOADS}
    with PlanClient(port=port, timeout=600) as client:
        for workload in MULTI_WORKLOADS:
            for body in bodies:
                response = client.plan(body, workload=workload)
                keys[workload].add(response.key)
        tripwires = {
            workload: _resolutions(port, workload)
            for workload in MULTI_WORKLOADS
        }

        latencies = []
        start = time.perf_counter()
        for _ in range(rounds):
            for body in bodies:
                for workload in MULTI_WORKLOADS:
                    t0 = time.perf_counter()
                    response = client.plan(body, workload=workload)
                    latencies.append(time.perf_counter() - t0)
                    assert response.source == "warm", (
                        workload, response.source
                    )
        report = _classify(latencies, time.perf_counter() - start)

        rows = {
            row["workload"]: row for row in client.models()["models"]
        }
        by_digest = client.plan(
            bodies[0], model=rows[MULTI_WORKLOADS[1]]["model"]
        )

    report["workloads"] = list(MULTI_WORKLOADS)
    report["tripwires_flat"] = all(
        _resolutions(port, workload) == tripwires[workload]
        for workload in MULTI_WORKLOADS
    )
    report["keys_disjoint"] = not (
        keys[MULTI_WORKLOADS[0]] & keys[MULTI_WORKLOADS[1]]
    )
    report["digest_route_warm"] = (
        by_digest.source == "warm"
        and by_digest.key in keys[MULTI_WORKLOADS[1]]
    )
    return report


def check_byte_identity(zoo, scale, served):
    """Every served payload == a direct memory-only engine resolution."""
    from repro.plan import PlanArtifactCache, PlanEngine
    from repro.serve import parse_plan_request, plan_bytes
    from repro.serve.codec import plan_config

    engine = PlanEngine.from_zoo(
        zoo, scale.sense_samples, cache=PlanArtifactCache(disk=False)
    )
    for read_time in READ_TIMES + (COALESCE_READ_TIME,):
        body = _body(read_time, zoo.spec.weight_bits)
        request = parse_plan_request(json.dumps(body).encode("utf-8"))
        key = engine.cache.key("plan", plan_config(engine, request))
        if served[key] != plan_bytes(engine.plan(request)):
            return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the plan-serving HTTP layer."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sanity run (CI)")
    parser.add_argument("--warm-rounds", type=int, default=None,
                        help="rounds over the warm request set "
                             "(default: 20, or 5 with --smoke)")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: "
                             "$REPRO_RESULTS_DIR/BENCH_serving.json)")
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload
    from repro.experiments.reporting import results_dir
    from repro.plan import PlanArtifactCache
    from repro.serve import PlanEngineRegistry
    from repro.serve.cli import build_service

    scale = get_scale("smoke" if args.smoke else "default")
    warm_rounds = args.warm_rounds or (5 if args.smoke else 20)
    print(f"# bench_serving — scale: {scale.name}")

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as cache_root:
        registry = build_service(
            workloads=MULTI_WORKLOADS, scale=scale,
            cache=PlanArtifactCache(root=cache_root),
        )
        assert isinstance(registry, PlanEngineRegistry)
        zoo_key = registry.default
        # Phases 1-3 drive the default engine (unrouted requests), so
        # its workload's counters carry the contracts exactly as a
        # single-workload server's would.
        with _ServerThread(registry) as running:
            report_body, served = bench_serving(
                zoo_key, running.port,
                weight_bits=4, warm_rounds=warm_rounds,
            )
            report_body["multi_workload"] = bench_multi_workload(
                running.port,
                weight_bits=4, rounds=max(2, warm_rounds // 2),
            )

        zoo = load_workload(scale.workload("lenet-digits"))
        identical = check_byte_identity(zoo, scale, served)

    report = {
        "scale": scale.name,
        "workload": zoo_key,
        "warm_rounds": warm_rounds,
        **report_body,
        "warm_speedup_p50": (
            report_body["cold"]["p50_ms"] / report_body["warm"]["p50_ms"]
        ),
        "byte_identical_to_direct_resolution": identical,
    }

    for phase in ("cold", "warm", "coalesced", "multi_workload"):
        stats = report[phase]
        print(f"{phase}: {stats['requests']} requests, "
              f"{stats['requests_per_second']:.1f} req/s, "
              f"p50 {stats['p50_ms']:.2f}ms, p99 {stats['p99_ms']:.2f}ms")
    print(f"warm p50 speedup over cold: {report['warm_speedup_p50']:.0f}x")
    print(f"coalesced engine resolutions: "
          f"{report['coalesced']['engine_resolutions']} "
          f"(of {COALESCE_CLIENTS} concurrent clients)")
    multi = report["multi_workload"]
    print(f"multi-workload ({' + '.join(multi['workloads'])}): tripwires "
          f"flat {multi['tripwires_flat']}, keys disjoint "
          f"{multi['keys_disjoint']}, digest route warm "
          f"{multi['digest_route_warm']}")
    print(f"byte-identical to direct resolution: {identical}")

    failed = []
    if not report["warm"]["tripwire_flat"]:
        failed.append("warm traffic moved the engine_resolutions tripwire")
    if report["warm_speedup_p50"] < 10.0:
        failed.append(
            f"warm p50 only {report['warm_speedup_p50']:.1f}x cold (< 10x)"
        )
    if report["coalesced"]["engine_resolutions"] != 1:
        failed.append(
            f"{report['coalesced']['engine_resolutions']} resolutions for "
            f"{COALESCE_CLIENTS} identical concurrent requests (want 1)"
        )
    if not report["coalesced"]["byte_identical_fanout"]:
        failed.append("coalesced fan-out served divergent bytes")
    if not multi["tripwires_flat"]:
        failed.append(
            "two-workload warm traffic moved a per-engine tripwire"
        )
    if not multi["keys_disjoint"]:
        failed.append("the two workloads' plan keys collided")
    if not multi["digest_route_warm"]:
        failed.append("model-digest routing missed the warm path")
    if not identical:
        failed.append("served bytes diverged from a direct engine resolution")
    for reason in failed:
        print(f"ERROR: {reason}", file=sys.stderr)

    out_path = args.output or os.path.join(results_dir(), "BENCH_serving.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[saved {out_path}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
