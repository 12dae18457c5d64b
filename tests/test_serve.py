"""The plan-serving layer's three contracts, end to end.

Warm-path fast serving (a cache hit never constructs an engine
resolution — the ``engine_resolutions`` tripwire stays flat and the
bytes are identical to a direct resolve), single-flight coalescing
(K identical concurrent requests cost exactly one resolution), and a
disciplined wire surface (single-line 400s, clean drain on the first
signal, forced exit-75 on the second).
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.plan import PlanArtifactCache, PlanEngine, PlanRequest
from repro.robustness.errors import TransientFaultError
from repro.serve import (
    PlanClient,
    PlanClientError,
    PlanEngineRegistry,
    PlanHTTPServer,
    PlanRequestError,
    PlanService,
    parse_plan_request,
    plan_bytes,
    split_plan_route,
)

ONE_HOUR = 3.6e3
ONE_MONTH = 2.592e6

BODY = {
    "methods": ["swim", "magnitude"],
    "nwc_targets": [0.0, 0.5],
    "technology": "pcm",
    "read_time": ONE_MONTH,
    "weight_bits": 4,
}


def _engine(mini_zoo):
    """A memory-only engine for direct (unserved) resolutions."""
    return PlanEngine(
        mini_zoo.model,
        mini_zoo.data.train_x[:96],
        mini_zoo.data.train_y[:96],
        workload=mini_zoo.spec.key,
        cache=PlanArtifactCache(disk=False),
        curvature_batch_size=96,
    )


def _body(**overrides):
    payload = {**BODY, **overrides}
    return json.dumps(payload).encode("utf-8")


@pytest.fixture()
def twin_zoo(mini_zoo):
    """A second distinct 'workload': same architecture, perturbed weights.

    Cheap stand-in for a real second zoo entry — a different model
    digest is all the registry's routing cares about.
    """
    model = copy.deepcopy(mini_zoo.model)
    param = next(iter(model.parameters()))
    param.data = param.data * 1.01 + 1e-3
    return SimpleNamespace(
        model=model,
        data=mini_zoo.data,
        spec=SimpleNamespace(key="lenet-twin", weight_bits=4),
    )


def _registry(mini_zoo, twin_zoo=None, **kwargs):
    """A registry over one shared memory-only cache: one workload, or
    two with ``twin_zoo``."""
    zoos = {"lenet-test": mini_zoo}
    if twin_zoo is not None:
        zoos["lenet-twin"] = twin_zoo

    def factory(workload, cache):
        zoo = zoos[workload]
        return PlanEngine(
            zoo.model,
            zoo.data.train_x[:96],
            zoo.data.train_y[:96],
            workload=workload,
            cache=cache,
            curvature_batch_size=96,
        )

    kwargs.setdefault("cache", PlanArtifactCache(disk=False))
    return PlanEngineRegistry(factory, workloads=tuple(zoos), **kwargs)


# --------------------------------------------------------------------- codec


class TestCodec:
    def test_parse_round_trip(self):
        request = parse_plan_request(_body())
        assert isinstance(request, PlanRequest)
        assert request.methods == ("swim", "magnitude")
        assert request.nwc_targets == (0.0, 0.5)
        assert request.technology == "pcm"
        assert request.read_time == ONE_MONTH
        assert request.weight_bits == 4

    @pytest.mark.parametrize("body", [
        b"not json",
        b"[1, 2]",
        json.dumps({**BODY, "frobnicate": 1}).encode(),
        json.dumps({**BODY, "methods": ["random"]}).encode(),
        json.dumps({**BODY, "nwc_targets": [1.5]}).encode(),
        json.dumps({"methods": ["swim"], "read_time": ONE_HOUR}).encode(),
        json.dumps({**BODY, "weight_bits": 0}).encode(),
    ])
    def test_malformed_bodies_raise_single_line(self, body):
        with pytest.raises(PlanRequestError) as excinfo:
            parse_plan_request(body)
        assert "\n" not in str(excinfo.value)


# ------------------------------------------------------------------- service


class TestPlanService:
    """The per-engine core, driven through a one-workload registry."""

    def test_coalescing_single_flight(self, mini_zoo):
        """K identical concurrent requests: exactly one engine resolution."""
        registry = _registry(mini_zoo)
        try:
            async def burst():
                return await asyncio.gather(
                    *(registry.plan(_body()) for _ in range(8))
                )

            served = asyncio.run(burst())
            counters = registry.stats()["requests"]
        finally:
            registry.close()

        assert counters["engine_resolutions"] == 1
        sources = sorted(plan.source for plan in served)
        assert sources.count("cold") == 1
        assert sources.count("coalesced") == 7
        assert len({plan.data for plan in served}) == 1
        assert len({plan.key for plan in served}) == 1
        assert counters["requests"] == 8

    def test_warm_path_is_passless_and_byte_identical(self, mini_zoo, tmp_path):
        """A warm hit replays stored bytes without any engine pass."""
        root = str(tmp_path / "serve-cache")
        cold_registry = _registry(mini_zoo, cache=PlanArtifactCache(root=root))
        try:
            cold = asyncio.run(cold_registry.plan(_body()))
        finally:
            cold_registry.close()
        assert cold.source == "cold"

        # A fresh engine + registry over the same cache root: the warm
        # request must not touch the engine at all.
        warm_registry = _registry(mini_zoo, cache=PlanArtifactCache(root=root))
        try:
            warm = asyncio.run(warm_registry.plan(_body()))
            assert warm.source == "warm"
            assert warm.key == cold.key
            assert warm.data == cold.data
            stats = warm_registry.stats()
            assert stats["requests"]["engine_resolutions"] == 0
            assert all(
                v == 0 for v in stats["engines"]["lenet-test"]["engine"].values()
            )

            # ... and byte-identical to a direct PlanEngine resolution.
            direct = _engine(mini_zoo).plan(parse_plan_request(_body()))
            assert warm.data == plan_bytes(direct)

            # fetch() replays the same bytes, also passlessly.
            fetched = warm_registry.fetch(warm.key)
            assert fetched == warm.data
            assert warm_registry.fetch("0" * 32) is None
            assert warm_registry.fetch("not-a-key") is None
            assert (
                warm_registry.stats()["requests"]["engine_resolutions"] == 0
            )
        finally:
            warm_registry.close()

    def test_distinct_requests_do_not_coalesce(self, mini_zoo):
        registry = _registry(mini_zoo)
        try:
            async def two():
                return await asyncio.gather(
                    registry.plan(_body(read_time=ONE_HOUR)),
                    registry.plan(_body(read_time=ONE_MONTH)),
                )

            first, second = asyncio.run(two())
        finally:
            registry.close()
        assert first.key != second.key
        assert registry.stats()["requests"]["engine_resolutions"] == 2

    def test_bad_request_counted_and_raised(self, mini_zoo):
        registry = _registry(mini_zoo)
        try:
            with pytest.raises(PlanRequestError):
                asyncio.run(registry.plan(_body(methods=["random"])))
        finally:
            registry.close()
        counters = registry.stats()["engines"]["lenet-test"]["requests"]
        assert counters["bad_requests"] == 1
        assert counters["requests"] == 0

    def test_stats_shares_the_cache_code_path(self, mini_zoo):
        """/statsz's cache section is PlanArtifactCache.stats verbatim,
        and the whole payload is strict JSON."""
        registry = _registry(mini_zoo)
        try:
            asyncio.run(registry.plan(_body()))
            asyncio.run(registry.plan(_body()))
            # A latency past the last histogram bucket renders as
            # "+Inf", never as a bare (non-JSON) Infinity.
            registry.metrics.histogram(
                "repro_serve_plan_seconds", labels=("workload", "source"),
            ).labels(workload="lenet-test", source="cold").observe(60.0)
            stats = registry.stats()
        finally:
            registry.close()
        assert stats["cache"] == registry.cache.stats()
        assert stats["requests"]["warm"] == 1
        assert stats["requests"]["cold"] == 1
        assert stats["in_flight_coalesced"] == 0
        latency = stats["engines"]["lenet-test"]["latency_ms"]
        warm = latency["warm"]
        assert warm["count"] == 1 and warm["p50_ms"] is not None
        assert latency["cold"]["count"] == 2
        assert latency["cold"]["p99_ms"] == "+Inf"
        assert latency["coalesced"] == {
            "count": 0, "p50_ms": None, "p99_ms": None,
        }
        assert json.loads(json.dumps(stats, allow_nan=False)) == stats


# ------------------------------------------------------------- error counters


class TestResolveErrorCounters:
    def test_failed_resolution_counts_cold_and_riders(self, mini_zoo,
                                                      monkeypatch):
        """Error traffic is visible: requests/source/latency + errors.

        A failed cold resolution used to skip the counters entirely, so
        a server melting down looked idle in /statsz.  Both the cold
        requester and its coalesced riders must record.
        """
        registry = _registry(mini_zoo)

        def boom(request):
            raise RuntimeError("engine exploded")

        engine = registry.service("lenet-test").engine
        monkeypatch.setattr(engine, "plan", boom)
        try:
            async def burst():
                return await asyncio.gather(
                    *(registry.plan(_body()) for _ in range(4)),
                    return_exceptions=True,
                )

            results = asyncio.run(burst())
            stats = registry.stats()
        finally:
            registry.close()

        assert all(isinstance(r, RuntimeError) for r in results)
        counters = stats["requests"]
        assert counters["requests"] == 4
        assert counters["cold"] == 1
        assert counters["coalesced"] == 3
        assert counters["resolve_errors"] == 4
        assert counters["engine_resolutions"] == 1  # the attempt counts
        latency = stats["engines"]["lenet-test"]["latency_ms"]
        assert latency["cold"]["count"] == 1
        assert latency["coalesced"]["count"] == 3
        # The key is no longer in flight: a retry starts a fresh attempt.
        assert stats["in_flight_coalesced"] == 0

    def test_error_surfaces_as_500_over_http(self, mini_zoo, monkeypatch):
        registry = _registry(mini_zoo)

        def boom(request):
            raise RuntimeError("engine exploded")

        engine = registry.service("lenet-test").engine
        monkeypatch.setattr(engine, "plan", boom)
        with _ServerThread(registry) as running:
            with PlanClient(port=running.port) as client:
                with pytest.raises(PlanClientError) as excinfo:
                    client.plan(BODY)
                assert excinfo.value.status == 500
                stats = client.statsz()
        assert stats["requests"]["resolve_errors"] == 1
        assert stats["requests"]["requests"] == 1


# ------------------------------------------------------------------- registry


class TestPlanEngineRegistry:
    def test_two_workload_routing_with_per_engine_tripwires(
            self, mini_zoo, twin_zoo):
        """One process, two workloads: routed plans, per-engine counters."""
        registry = _registry(mini_zoo, twin_zoo)
        try:
            async def drive():
                first = await registry.plan(_body(workload="lenet-test"))
                second = await registry.plan(_body(workload="lenet-twin"))
                warm_a = await registry.plan(_body(workload="lenet-test"))
                warm_b = await registry.plan(_body(workload="lenet-twin"))
                unrouted = await registry.plan(_body())  # default workload
                return first, second, warm_a, warm_b, unrouted

            first, second, warm_a, warm_b, unrouted = asyncio.run(drive())
        finally:
            registry.close()

        assert first.key != second.key
        assert first.data != second.data
        assert (warm_a.source, warm_b.source) == ("warm", "warm")
        assert warm_a.data == first.data and warm_b.data == second.data
        # Unrouted requests hit the default workload's warm plan.
        assert unrouted.source == "warm" and unrouted.key == first.key

        stats = registry.stats()
        for workload in ("lenet-test", "lenet-twin"):
            engine_stats = stats["engines"][workload]["requests"]
            assert engine_stats["engine_resolutions"] == 1
            assert engine_stats["cold"] == 1
        assert stats["engines"]["lenet-test"]["requests"]["warm"] == 2
        assert stats["requests"]["requests"] == 5
        assert stats["requests"]["engine_resolutions"] == 2

    def test_routed_plans_byte_identical_to_single_workload_servers(
            self, mini_zoo, twin_zoo):
        """The registry must not change what is served, only where."""
        registry = _registry(mini_zoo, twin_zoo)
        try:
            async def drive():
                return (
                    await registry.plan(_body(workload="lenet-test")),
                    await registry.plan(_body(workload="lenet-twin")),
                )

            routed_a, routed_b = asyncio.run(drive())
        finally:
            registry.close()

        for zoo, routed in ((mini_zoo, routed_a), (twin_zoo, routed_b)):
            single = PlanService(PlanEngine(
                zoo.model,
                zoo.data.train_x[:96],
                zoo.data.train_y[:96],
                workload=zoo.spec.key,
                cache=PlanArtifactCache(disk=False),
                curvature_batch_size=96,
            ))
            try:
                direct = asyncio.run(single.plan(_body()))
            finally:
                single.close()
            assert direct.key == routed.key
            assert direct.data == routed.data

    def test_single_flight_coalescing_is_per_engine(self, mini_zoo, twin_zoo):
        """N identical concurrent POSTs to either workload: 1 resolution each."""
        registry = _registry(mini_zoo, twin_zoo)
        try:
            async def burst():
                return await asyncio.gather(*(
                    registry.plan(_body(workload=workload))
                    for workload in ("lenet-test", "lenet-twin")
                    for _ in range(8)
                ))

            served = asyncio.run(burst())
        finally:
            registry.close()

        assert len({plan.key for plan in served}) == 2
        stats = registry.stats()
        for workload in ("lenet-test", "lenet-twin"):
            counters = stats["engines"][workload]["requests"]
            assert counters["engine_resolutions"] == 1
            assert counters["cold"] == 1
            assert counters["coalesced"] == 7

    def test_digest_routing(self, mini_zoo, twin_zoo):
        registry = _registry(mini_zoo, twin_zoo)
        try:
            async def drive():
                await registry.plan(_body(workload="lenet-twin"))
                digest = registry.service("lenet-twin").engine._model_digest
                routed = await registry.plan(_body(model=digest))
                return digest, routed

            digest, routed = asyncio.run(drive())
            assert routed.source == "warm"  # same engine, same key space
            rows = {
                row["workload"]: row for row in registry.models()["models"]
            }
            assert rows["lenet-twin"]["model"] == digest

            with pytest.raises(PlanRequestError) as excinfo:
                asyncio.run(registry.plan(_body(model="f" * 16)))
            assert "unknown model digest" in str(excinfo.value)
            assert registry.stats()["requests"]["bad_requests"] == 1
        finally:
            registry.close()

    def test_route_field_validation(self, mini_zoo, twin_zoo):
        registry = _registry(mini_zoo, twin_zoo)
        try:
            for body in (
                _body(workload="nope"),
                _body(workload=7),
                _body(model="not-a-digest"),
                _body(workload="lenet-test", model="f" * 16),
                b"not json",
            ):
                with pytest.raises(PlanRequestError):
                    asyncio.run(registry.plan(body))
            assert registry.stats()["requests"]["bad_requests"] == 5
        finally:
            registry.close()

    def test_models_schema(self, mini_zoo, twin_zoo):
        registry = _registry(mini_zoo, twin_zoo)
        try:
            listing = registry.models()
            assert listing["default"] == "lenet-test"
            assert listing["max_engines"] == 0
            assert [row["workload"] for row in listing["models"]] == [
                "lenet-test", "lenet-twin",
            ]
            # Nothing loaded yet: no digests (unknowable without paying
            # the load), no counters.
            for row in listing["models"]:
                assert row["loaded"] is False
                assert row["model"] is None
                assert row["requests"] is None

            asyncio.run(registry.plan(_body(workload="lenet-twin")))
            rows = {
                row["workload"]: row for row in registry.models()["models"]
            }
            assert rows["lenet-test"]["loaded"] is False
            twin = rows["lenet-twin"]
            assert twin["loaded"] is True
            assert re.fullmatch(r"[0-9a-f]{16}", twin["model"])
            assert twin["requests"]["cold"] == 1
            assert twin["requests"]["engine_resolutions"] == 1
        finally:
            registry.close()

    def test_engine_cap_lru_retirement(self, mini_zoo, twin_zoo):
        """Past the cap the least-recently-routed engine retires, drained,
        and its workload's counters survive the retirement."""
        registry = _registry(mini_zoo, twin_zoo, max_engines=1)
        try:
            first = asyncio.run(registry.plan(_body(workload="lenet-test")))
            survivor = registry.service("lenet-test")
            digest = survivor.engine._model_digest

            asyncio.run(registry.plan(_body(workload="lenet-twin")))
            assert list(registry._services) == ["lenet-twin"]
            assert registry.stats()["registry"]["engines_retired"] == 1
            # The retired executor is shut down (drained, not leaked).
            assert survivor._executor._shutdown

            # The retired digest still routes: the engine rebuilds lazily
            # and its plan replays warm from the shared cache — no new
            # resolution, so the workload's count stays at the first 1.
            again = asyncio.run(registry.plan(_body(model=digest)))
            assert again.source == "warm"
            assert again.data == first.data
            stats = registry.stats()
            assert stats["registry"]["engines_loaded"] == 3
            assert stats["registry"]["engines_retired"] == 2
            assert registry.service("lenet-test") is not survivor
            requests = stats["engines"]["lenet-test"]["requests"]
            assert requests["engine_resolutions"] == 1

            # Routed a, b, a, b: every request stays counted, and
            # /statsz agrees with /metricsz.
            asyncio.run(registry.plan(_body(workload="lenet-twin")))
            assert registry.stats()["requests"]["requests"] == 4
            samples = re.findall(
                r"^repro_serve_requests_total\{.*\} (\d+)$",
                registry.metricsz(), flags=re.MULTILINE,
            )
            assert sum(int(value) for value in samples) == 4
        finally:
            registry.close()

    def test_cap_validation(self, mini_zoo, twin_zoo, monkeypatch):
        from repro.robustness.errors import ScenarioConfigError
        from repro.serve import resolve_max_engines

        with pytest.raises(ScenarioConfigError):
            _registry(mini_zoo, twin_zoo, max_engines=-1)
        monkeypatch.setenv("REPRO_SERVE_MAX_ENGINES", "2")
        assert resolve_max_engines() == 2
        monkeypatch.setenv("REPRO_SERVE_MAX_ENGINES", "nope")
        with pytest.raises(ScenarioConfigError):
            resolve_max_engines()

    def test_split_route_strips_fields_only(self):
        """Routing fields never reach the per-engine request bytes."""
        (workload, model), remainder = split_plan_route(
            _body(workload="lenet-test")
        )
        assert (workload, model) == ("lenet-test", None)
        assert json.loads(remainder.decode("utf-8")) == BODY
        (workload, model), remainder = split_plan_route(_body())
        assert (workload, model) == (None, None)
        assert json.loads(remainder.decode("utf-8")) == BODY


# ---------------------------------------------------------------------- HTTP


class _ServerThread:
    """Run a PlanHTTPServer on a daemon thread with an ephemeral port."""

    def __init__(self, registry):
        self.server = PlanHTTPServer(registry, port=0)
        self._ready = threading.Event()
        self._loop = None
        self.result = None
        self.error = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        async def serve():
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            return await self.server.run(install_signals=False)

        try:
            self.result = asyncio.run(serve())
        except BaseException as exc:  # surfaced to the test thread
            self.error = exc
        finally:
            self._ready.set()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "server never came up"
        if self.error is not None:
            raise self.error
        return self

    def signal(self):
        try:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        except RuntimeError:
            pass  # loop already closed — the server is already down

    def join(self, timeout=60):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "server did not shut down"

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            self.signal()
            self._thread.join(timeout=30)
        if self._thread.is_alive():
            self.signal()  # escalate: force-abandon the drain
            self._thread.join(timeout=60)

    @property
    def port(self):
        return self.server.port


class TestHTTP:
    @pytest.fixture()
    def served(self, mini_zoo):
        with _ServerThread(_registry(mini_zoo)) as running:
            with PlanClient(port=running.port) as client:
                yield SimpleNamespace(client=client, running=running)

    def test_round_trip_and_warm_fetch(self, served):
        health = served.client.healthz()
        assert health["status"] == "ok"
        assert health["default"] == "lenet-test"

        response = served.client.plan(BODY)
        assert response.source == "cold"
        assert re.fullmatch(r"[0-9a-f]{32}", response.key)
        assert response.plan["workload"] == "lenet-test"

        again = served.client.plan(BODY)
        assert again.source == "warm"
        assert again.data == response.data

        fetched = served.client.fetch(response.key)
        assert fetched.source == "warm"
        assert fetched.data == response.data
        assert served.client.fetch("0" * 32) is None

        stats = served.client.statsz()
        assert stats["requests"]["engine_resolutions"] == 1
        assert stats["requests"]["warm"] == 1
        # The cold resolve missed the plan artifact plus the engine's
        # stage artifacts; the warm hit added a memory hit, no misses.
        assert stats["cache"]["misses"] >= 1
        assert stats["cache"]["memory"] >= 1

    def test_malformed_body_is_single_line_400(self, served):
        with pytest.raises(PlanClientError) as excinfo:
            served.client.plan({"methods": ["random"]})
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "\n" not in message
        assert "Traceback" not in message

        with pytest.raises(PlanClientError) as excinfo:
            served.client.plan({**BODY, "frobnicate": 1})
        assert excinfo.value.status == 400

    def test_routing_errors(self, served):
        status, _, _ = served.client._request("GET", "/nope")
        assert status == 404
        status, _, _ = served.client._request("GET", "/v1/plan")
        assert status == 405
        status, _, _ = served.client._request("POST", "/healthz")
        assert status == 405

    def test_clean_drain_returns_zero(self, mini_zoo):
        with _ServerThread(_registry(mini_zoo)) as running:
            with PlanClient(port=running.port) as client:
                client.healthz()
            running.signal()
            running.join()
        assert running.error is None
        assert running.result == 0


class TestObservabilityHTTP:
    @pytest.fixture()
    def served(self, mini_zoo):
        with _ServerThread(_registry(mini_zoo)) as running:
            with PlanClient(port=running.port) as client:
                yield SimpleNamespace(client=client, running=running)

    def test_metricsz_is_valid_and_covers_all_layers(self, served):
        from repro.obs.validate import validate_exposition

        served.client.plan(BODY)
        served.client.plan(BODY)  # one cold + one warm
        text = served.client.metricsz()
        assert list(validate_exposition(text)) == []
        # cache, service, and transport families all in one exposition
        assert 'repro_cache_hits_total{tier="memory"}' in text
        assert "repro_cache_misses_total" in text
        assert "repro_serve_requests_total" in text
        assert 'repro_serve_plans_total{workload="lenet-test",source="warm"} 1' in text
        assert "repro_serve_engine_resolutions_total" in text
        assert 'repro_serve_plan_seconds_bucket{workload="lenet-test",source="cold",le="+Inf"} 1' in text
        assert 'repro_http_requests_total{route="/v1/plan",status="200"} 2' in text
        assert 'repro_http_request_seconds_bucket{route="/v1/plan",le="+Inf"} 2' in text

    def test_metricsz_rejects_post(self, served):
        status, _, _ = served.client._request("POST", "/metricsz")
        assert status == 405

    def test_request_id_generated_and_echoed(self, served):
        import http.client as http_client

        served.client.healthz()
        generated = served.client.last_request_id
        assert generated and re.fullmatch(r"[0-9a-f]{16}", generated)
        assert served.client.last_server_ms is not None
        assert served.client.last_server_ms >= 0.0

        conn = http_client.HTTPConnection(
            "127.0.0.1", served.running.server.port, timeout=30
        )
        try:
            # A sane client id is echoed verbatim...
            conn.request("GET", "/healthz",
                         headers={"X-Request-Id": "trace-me.01"})
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Request-Id") == "trace-me.01"
            # ...an unsafe one (header-splitting material) is replaced.
            conn.request("GET", "/healthz",
                         headers={"X-Request-Id": "bad id é!"})
            response = conn.getresponse()
            response.read()
            echoed = response.getheader("X-Request-Id")
            assert echoed != "bad id é!"
            assert re.fullmatch(r"[0-9a-f]{16}", echoed)
        finally:
            conn.close()

    def test_http_span_carries_request_id(self, served):
        from repro.obs import TRACER, disable_tracing, enable_tracing

        enable_tracing()
        try:
            served.client.healthz()
            spans = [
                s for s in TRACER.drain() if s["name"] == "http.request"
            ]
        finally:
            disable_tracing()
            TRACER.drain()
        assert spans
        record = spans[-1]
        assert record["attrs"]["request_id"] == served.client.last_request_id
        assert record["attrs"]["route"] == "/healthz"
        assert record["attrs"]["status"] == 200

    def test_registry_metricsz_aggregates_engines(self, mini_zoo, twin_zoo):
        from repro.obs.validate import validate_exposition

        registry = _registry(mini_zoo, twin_zoo)
        with _ServerThread(registry) as running:
            with PlanClient(port=running.port) as client:
                client.plan({**BODY, "workload": "lenet-test"})
                client.plan({**BODY, "workload": "lenet-twin"})
                text = client.metricsz()
        assert list(validate_exposition(text)) == []
        assert 'repro_serve_plans_total{workload="lenet-test",source="cold"} 1' in text
        assert 'repro_serve_plans_total{workload="lenet-twin",source="cold"} 1' in text
        assert 'repro_serve_engines_total{event="loaded"} 2' in text


class TestForcedShutdown:
    def test_second_signal_abandons_and_raises(self):
        """A stuck in-flight request: drain hangs, second signal forces."""
        class StuckService:
            def __init__(self):
                self.closed = False
                self.metrics = MetricsRegistry()

            async def plan(self, body):
                await asyncio.sleep(3600)  # never finishes on its own

            def healthz(self):
                return {"status": "ok"}

            def close(self):
                self.closed = True

        service = StuckService()
        running = _ServerThread(service)
        with running:
            with PlanClient(port=running.port, timeout=5.0) as client:
                # Fire the stuck request from a helper thread; it will
                # die with a connection error when the server forces.
                def doomed():
                    try:
                        client.plan(BODY)
                    except PlanClientError:
                        pass

                poster = threading.Thread(target=doomed, daemon=True)
                poster.start()
                deadline = time.time() + 30
                while running.server._inflight == 0:
                    assert time.time() < deadline, "request never arrived"
                    time.sleep(0.01)

                running.signal()           # drain starts, hangs forever
                time.sleep(0.1)
                running.signal()           # force
                running._thread.join(timeout=60)
                poster.join(timeout=60)
        assert running.result is None
        assert isinstance(running.error, TransientFaultError)
        assert running.error.exit_code == 75
        assert "abandoned 1" in str(running.error)
        assert service.closed


class TestCrossThreadShutdown:
    def test_request_shutdown_from_foreign_thread_drains(self, mini_zoo):
        """request_shutdown must work from any thread, unaided.

        An ``asyncio.Event`` set from a foreign thread does not wake
        the serving loop — the method itself must marshal through
        ``call_soon_threadsafe``.  The call site here deliberately does
        NOT (unlike ``_ServerThread.signal``): before the fix this hung
        the drain until the join timeout.
        """
        with _ServerThread(_registry(mini_zoo)) as running:
            with PlanClient(port=running.port) as client:
                client.healthz()
            running.server.request_shutdown()
            running.join()
        assert running.error is None
        assert running.result == 0

    def test_request_shutdown_before_start_is_safe(self, mini_zoo):
        """No loop yet: the signal lands directly, run() exits at once."""
        server = PlanHTTPServer(_registry(mini_zoo), port=0)
        server.request_shutdown()
        assert server._signals == 1
        assert asyncio.run(server.run(install_signals=False)) == 0


class TestContentLengthValidation:
    """RFC 9110: Content-Length is 1*DIGIT — nothing else."""

    @staticmethod
    def _raw(port, lines, body=b""):
        """One raw request; returns the response bytes (read to EOF)."""
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(
                "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    @pytest.fixture()
    def served(self, mini_zoo):
        with _ServerThread(_registry(mini_zoo)) as running:
            yield running

    # int() would happily accept every one of these; the parser must
    # not.  ("²" is a unicode digit: isdigit() is True, isascii() is
    # not.  OWS-padded values never reach the check — _parse_head
    # strips them, which RFC 9110 permits.)
    @pytest.mark.parametrize("value", [
        "+5", "-0", "1_2", "0x5", "5.", "²", "", "5 5",
    ])
    def test_non_digit_content_length_is_single_line_400(self, served, value):
        response = self._raw(served.port, [
            "POST /v1/plan HTTP/1.1",
            "Host: t",
            f"Content-Length: {value}",
        ])
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        payload = json.loads(body.decode("utf-8"))
        assert payload["error"] == "malformed Content-Length"
        assert "\n" not in payload["error"]

    def test_pure_digits_still_parse(self, served):
        """Leading zeros are legal 1*DIGIT; the body is read exactly."""
        response = self._raw(served.port, [
            "GET /healthz HTTP/1.1",
            "Host: t",
            "Content-Length: 000",
            "Connection: close",
        ])
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body.decode("utf-8"))["status"] == "ok"

    def test_absent_content_length_means_empty_body(self, served):
        response = self._raw(served.port, [
            "GET /healthz HTTP/1.1",
            "Host: t",
            "Connection: close",
        ])
        assert response.startswith(b"HTTP/1.1 200 ")


class TestRegistryHTTP:
    def test_multi_workload_over_the_wire(self, mini_zoo, twin_zoo):
        """One server, two workloads: routing, /v1/models, /statsz."""
        registry = _registry(mini_zoo, twin_zoo)
        with _ServerThread(registry) as running:
            with PlanClient(port=running.port) as client:
                health = client.healthz()
                assert health["workloads"] == ["lenet-test", "lenet-twin"]
                assert health["loaded"] == []
                assert health["default"] == "lenet-test"

                first = client.plan(BODY, workload="lenet-test")
                second = client.plan(BODY, workload="lenet-twin")
                assert first.key != second.key
                assert first.plan["workload"] == "lenet-test"
                assert second.plan["workload"] == "lenet-twin"

                rows = {
                    row["workload"]: row
                    for row in client.models()["models"]
                }
                digest = rows["lenet-twin"]["model"]
                routed = client.plan(BODY, model=digest)
                assert routed.source == "warm"
                assert routed.data == second.data

                with pytest.raises(PlanClientError) as excinfo:
                    client.plan(BODY, workload="nope")
                assert excinfo.value.status == 400
                assert "unknown workload" in str(excinfo.value)
                assert "\n" not in str(excinfo.value)

                # The shared cache answers warm fetches for any engine.
                fetched = client.fetch(first.key)
                assert fetched.data == first.data

                stats = client.statsz()
                for workload in ("lenet-test", "lenet-twin"):
                    requests = stats["engines"][workload]["requests"]
                    assert requests["engine_resolutions"] == 1
                assert stats["requests"]["bad_requests"] == 1
                assert stats["requests"]["fetch_hits"] == 1
                assert stats["registry"]["loaded"] == [
                    "lenet-test", "lenet-twin",
                ]
            running.signal()
            running.join()
        assert running.error is None
        assert running.result == 0


# ----------------------------------------------------------------------- CLI


def test_unknown_workload_exits_64(capsys):
    from repro.experiments.runner import run

    code = run(["serve", "--workload", "nope", "--scale", "smoke"])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, env_scale", [
    (["table1", "--scale", "bogus"], None),
    (["serve"], "bogus"),
])
def test_unknown_scale_exits_64(capsys, monkeypatch, argv, env_scale):
    from repro.experiments.runner import run

    if env_scale is not None:
        monkeypatch.setenv("REPRO_SCALE", env_scale)
    code = run(argv)
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scale 'bogus'")
    assert err.count("\n") == 1
    assert "'smoke'" in err and "Traceback" not in err


def test_bad_port_exits_64(capsys):
    from repro.experiments.runner import run

    code = run(["serve", "--port", "99999", "--scale", "smoke"])
    assert code == 64


@pytest.mark.slow
class TestServeSubprocess:
    def _spawn(self, tmp_path, *extra):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env.setdefault("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--scale", "smoke", "--port", "0", *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def _await_port(self, proc):
        deadline = time.time() + 600
        lines = []
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = re.search(r"\[serving http://[\d.]+:(\d+)\]", line)
            if match:
                return int(match.group(1)), lines
        proc.kill()
        pytest.fail("server never announced its port: " + "".join(lines)
                    + proc.stderr.read())

    def test_serve_round_trip_and_clean_sigterm(self, tmp_path):
        proc = self._spawn(tmp_path)
        try:
            port, _ = self._await_port(proc)
            with PlanClient(port=port, timeout=600) as client:
                assert client.healthz()["status"] == "ok"
                served = client.plan(BODY)
                assert served.source == "cold"
                warm = client.plan(BODY)
                assert warm.source == "warm"
                assert warm.data == served.data
                # /metricsz over the real wire: every line well-formed,
                # the traffic just generated visible in the exposition
                from repro.obs.validate import validate_exposition

                text = client.metricsz()
                assert list(validate_exposition(text)) == []
                assert "repro_serve_plans_total" in text
                assert 'repro_http_requests_total{route="/v1/plan",status="200"} 2' in text
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 0, err[-2000:]
        assert "[drained: served 2 plan request(s)" in out
        assert "warm=1 cold=1" in out

    def test_two_workload_serve_both_digests_answer(self, tmp_path):
        """One process, two preloaded engines: route by either digest."""
        proc = self._spawn(
            tmp_path, "--workload", "lenet-digits",
            "--workload", "convnet-cifar",
        )
        try:
            port, lines = self._await_port(proc)
            digests = dict(re.findall(
                r"# plan-serving ([\w-]+) \(model ([0-9a-f]{16})\)",
                "".join(lines),
            ))
            assert set(digests) == {"lenet-digits", "convnet-cifar"}
            with PlanClient(port=port, timeout=600) as client:
                rows = {
                    row["workload"]: row
                    for row in client.models()["models"]
                }
                keys = {}
                for workload, digest in digests.items():
                    assert rows[workload]["loaded"] is True
                    assert rows[workload]["model"] == digest
                    served = client.plan(BODY, model=digest)
                    assert served.plan["workload"] == workload
                    warm = client.plan(BODY, workload=workload)
                    assert warm.source == "warm"
                    assert warm.data == served.data
                    keys[workload] = served.key
                assert keys["lenet-digits"] != keys["convnet-cifar"]
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 0, err[-2000:]
        # The cold/warm split depends on what earlier tests left in the
        # session's shared disk cache; the totals do not.
        assert "[drained: served 4 plan request(s)" in out
        assert "coalesced=0" in out
