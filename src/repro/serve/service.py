"""The per-engine plan-serving core.

:class:`PlanService` answers "which weights do I verify at budget b?"
for one :class:`~repro.plan.engine.PlanEngine`, at three speeds, from
one content-addressed key space:

- **warm** — the plan artifact is already in the
  :class:`~repro.plan.cache.PlanArtifactCache`: the response is the
  stored canonical bytes, served without constructing *any*
  :class:`~repro.plan.engine.PlanEngine` resolution.  The
  ``engine_resolutions`` counter is the tripwire: it must not move on
  warm traffic (the serving tests pin this).
- **cold** — a full miss: the request resolves through the engine on
  the service's one resolution thread (the asyncio event loop keeps
  serving warm hits meanwhile), and the resulting bytes are stored
  before fan-out.  One thread per engine, for the life of the process:
  an engine's passes mutate its model (the curvature pass runs forward
  and backward through it), so two resolutions on one engine never
  overlap.
- **coalesced** — the request's key is already being resolved:
  instead of a second engine pass, the request awaits the in-flight
  resolution's future.  The single-flight map is keyed by the *same*
  content key the cache uses (:func:`~repro.serve.codec.plan_config`),
  so coalescing and caching can never disagree about request identity:
  N identical concurrent requests cost exactly one resolution.

The service keeps no bookkeeping of its own: each request increments
its workload's children in a :class:`~repro.obs.metrics.
MetricsRegistry`, and :func:`workload_stats` reads them back from a
snapshot.  The :class:`~repro.serve.registry.PlanEngineRegistry` wraps
each engine it serves in one service, routes to them, and is what the
HTTP layer serves.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs.metrics import bucket_quantile
from repro.obs.trace import span
from repro.serve.codec import (
    decode_plan_bytes,
    encode_plan_bytes,
    parse_plan_request,
    plan_bytes,
    plan_config,
)

__all__ = ["PlanService", "ServedPlan", "workload_stats"]

#: The artifact kind under which served plans live in the cache.
PLAN_KIND = "plan"

#: Where a served plan came from (the ``source`` label).
SOURCES = ("warm", "cold", "coalesced")


def workload_stats(snapshot):
    """Per-workload serving counters and latencies from a metrics snapshot.

    ``snapshot`` is a :meth:`~repro.obs.metrics.MetricsRegistry.
    snapshot`.  Returns ``{workload: {"requests": {...}, "latency_ms":
    {source: {"count", "p50_ms", "p99_ms"}}}}`` for every workload a
    :class:`PlanService` was built for.  The counters are the samples
    ``/metricsz`` renders, cumulative over the registry's lifetime.
    p50/p99 are the upper bounds of the ``repro_serve_plan_seconds``
    buckets the quantiles fall in (``"+Inf"`` past the last bound, so
    the payload stays strict JSON; None before the first observation).
    """
    def count(name, *labels):
        return snapshot[name]["samples"][labels]

    def quantile_ms(sample, q):
        bound = bucket_quantile(seconds["buckets"], sample["buckets"], q)
        if bound is None:
            return None
        return "+Inf" if bound == math.inf else round(1e3 * bound, 4)

    seconds = snapshot["repro_serve_plan_seconds"]
    views = {}
    served = snapshot["repro_serve_requests_total"]["samples"]
    for (workload,), requests in served.items():
        latency = {}
        for source in SOURCES:
            sample = seconds["samples"][(workload, source)]
            latency[source] = {
                "count": sample["count"],
                "p50_ms": quantile_ms(sample, 0.5),
                "p99_ms": quantile_ms(sample, 0.99),
            }
        views[workload] = {
            "requests": {
                "requests": requests,
                **{
                    source: count("repro_serve_plans_total", workload, source)
                    for source in SOURCES
                },
                "bad_requests": count(
                    "repro_serve_bad_requests_total", workload
                ),
                "resolve_errors": count(
                    "repro_serve_resolve_errors_total", workload
                ),
                "engine_resolutions": count(
                    "repro_serve_engine_resolutions_total", workload
                ),
            },
            "latency_ms": latency,
        }
    return views


@dataclass(frozen=True)
class ServedPlan:
    """One served response: canonical plan bytes plus provenance.

    ``source`` is ``"warm"`` (cache hit, no engine), ``"cold"`` (this
    request paid the engine resolution) or ``"coalesced"`` (rode an
    in-flight resolution); ``key`` is the content address a client can
    re-fetch the plan at via ``GET /v1/plan/<key>``.
    """

    data: bytes
    key: str
    source: str


class PlanService:
    """Serves :class:`~repro.plan.engine.SelectionPlan`\\ s over one model.

    Parameters
    ----------
    engine:
        The :class:`~repro.plan.engine.PlanEngine` cold requests
        resolve through; its cache is the serving store, and the
        cache's :class:`~repro.obs.metrics.MetricsRegistry` is
        :attr:`metrics`, the one this service counts into.  Families
        are labeled by workload, so every engine of a
        :class:`~repro.serve.registry.PlanEngineRegistry` counts into
        the shared cache's one instance.

    Cold requests resolve on one thread of the service's own, so the
    engine's passes run one at a time.
    """

    def __init__(self, engine):
        self.engine = engine
        self.cache = engine.cache
        self.metrics = self.cache.metrics
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="plan-resolve",
        )
        self._inflight = {}  # content key -> asyncio.Task resolving it
        # The last plan's encoded orders, read and written only on the
        # resolution thread (see plan_bytes).
        self._encoded = {}
        workload = engine.workload or "default"
        self.workload_label = workload

        def counter(name, help):
            return self.metrics.counter(
                name, help, labels=("workload",)
            ).labels(workload=workload)

        self._requests = counter(
            "repro_serve_requests_total", "Plan requests served."
        )
        self._bad_requests = counter(
            "repro_serve_bad_requests_total", "Malformed plan requests."
        )
        self._resolve_errors = counter(
            "repro_serve_resolve_errors_total",
            "Failed resolutions (cold requesters and coalesced riders).",
        )
        self._engine_resolutions = counter(
            "repro_serve_engine_resolutions_total",
            "Engine resolutions — the warm-path tripwire.",
        )
        plans = self.metrics.counter(
            "repro_serve_plans_total",
            "Plan responses by source (warm/cold/coalesced).",
            labels=("workload", "source"),
        )
        seconds = self.metrics.histogram(
            "repro_serve_plan_seconds",
            "Plan-request latency by source.",
            labels=("workload", "source"),
        )
        self._by_source = {
            source: (
                plans.labels(workload=workload, source=source),
                seconds.labels(workload=workload, source=source),
            )
            for source in SOURCES
        }

    def _record(self, source, start):
        plans, seconds = self._by_source[source]
        self._requests.inc()
        plans.inc()
        seconds.observe(time.perf_counter() - start)

    # ---------------------------------------------------------------- serving

    async def plan(self, body):
        """Serve one ``POST /v1/plan`` body; returns :class:`ServedPlan`.

        Raises :class:`~repro.serve.codec.PlanRequestError` on a
        malformed body (the HTTP layer maps it to 400).
        """
        start = time.perf_counter()
        try:
            request = parse_plan_request(body)
        except Exception:
            self._bad_requests.inc()
            raise
        config = plan_config(self.engine, request)
        key = self.cache.key(PLAN_KIND, config)

        arrays = self.cache.lookup(PLAN_KIND, key)
        if arrays is not None:
            source, data = "warm", decode_plan_bytes(arrays)
        else:
            task = self._inflight.get(key)
            if task is not None:
                source = "coalesced"
            else:
                source = "cold"
                task = asyncio.get_running_loop().create_task(
                    self._resolve_async(request, config)
                )
                self._inflight[key] = task
                task.add_done_callback(
                    lambda _done, key=key: self._inflight.pop(key, None)
                )
            try:
                data = await task
            except Exception:
                # A failed resolution is still traffic: the cold
                # requester *and* every coalesced rider record their
                # request, source, and latency, plus the error counter —
                # error load must be visible in /statsz.
                self._resolve_errors.inc()
                self._record(source, start)
                raise

        self._record(source, start)
        return ServedPlan(data=data, key=key, source=source)

    async def _resolve_async(self, request, config):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self._resolve, request, config
        )

    def _resolve(self, request, config):
        # The only line in the serving layer that touches the engine:
        # the tripwire counter and the resolution are inseparable.
        self._engine_resolutions.inc()
        with span("serve.resolve", workload=self.workload_label):
            plan = self.engine.plan(request)
            with span("serve.encode", workload=self.workload_label):
                data = plan_bytes(plan, self._encoded)
        self.cache.put(PLAN_KIND, config, encode_plan_bytes(data))
        return data

    def close(self):
        """Shut the resolution thread down (after the HTTP drain)."""
        self._executor.shutdown()
