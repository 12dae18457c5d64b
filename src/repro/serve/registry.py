"""Multi-workload plan serving: one engine per workload, built at startup.

One process answers for several zoo workloads.  The
:class:`PlanEngineRegistry` takes the engines the server starts with,
wraps each in a :class:`~repro.serve.service.PlanService` (the engine
plus its one resolution thread) and never builds, retires or replaces
an engine afterwards:

- **digest routing** — a ``POST /v1/plan`` body may carry a
  ``workload`` (zoo key) or ``model`` (16-hex digest) field; the
  registry resolves it against the engines it holds and strips it
  before the per-engine parse, so a routed request's content key — and
  therefore its plan bytes — is identical to the same request against
  a single-workload server.  Anything else is a single-line 400 that
  names the served workloads.
- **shared cache, per-engine contracts** — every engine stores into
  one bounded :class:`~repro.plan.cache.PlanArtifactCache` (the
  content key already folds in the model digest, so engines can never
  collide), while the ``engine_resolutions`` tripwire and the
  single-flight in-flight map stay *per engine*, keyed by the cache's
  own content key.
- **one counter source** — every engine counts into the cache's
  :class:`~repro.obs.metrics.MetricsRegistry`, labeled by workload.
  ``/metricsz`` renders it, and ``/statsz`` and the ``/v1/models`` rows
  are JSON views of its snapshot
  (:func:`~repro.serve.service.workload_stats`), so the surfaces cannot
  disagree.

The registry is the whole surface the HTTP layer speaks (``plan`` /
``fetch`` / ``models`` / ``healthz`` / ``stats`` / ``metricsz`` /
``close``): :class:`~repro.serve.http.PlanHTTPServer` serves a
registry, and a single-workload server is a one-engine registry.
"""

from __future__ import annotations

from repro.obs.metrics import render_prometheus
from repro.robustness.errors import ScenarioConfigError
from repro.serve.codec import (
    PlanRequestError,
    decode_plan_bytes,
    is_plan_key,
    split_plan_route,
)
from repro.serve.service import PLAN_KIND, PlanService, workload_stats

__all__ = ["PlanEngineRegistry"]


class PlanEngineRegistry:
    """Routes plan traffic to the engines it was built with.

    Parameters
    ----------
    engines:
        The :class:`~repro.plan.engine.PlanEngine`\\ s to serve, one per
        workload, all on one shared
        :class:`~repro.plan.cache.PlanArtifactCache` (plan content keys
        fold in the model digest, so engines never address each other's
        artifacts).  An engine's ``workload`` is its route and the
        label its counters are kept under; the first engine's is the
        :attr:`default` route of requests without a ``workload`` or
        ``model`` field.

    :attr:`metrics` is the shared cache's
    :class:`~repro.obs.metrics.MetricsRegistry`: the cache, routing,
    every per-workload service and the HTTP transport count into it, so
    ``GET /metricsz`` is one exposition for the whole process.
    """

    def __init__(self, engines):
        engines = list(engines)
        if not engines:
            raise ScenarioConfigError("registry needs at least one engine")
        self.cache = engines[0].cache
        if any(engine.cache is not self.cache for engine in engines):
            raise ScenarioConfigError("served engines must share one cache")
        self.metrics = self.cache.metrics
        self.default = engines[0].workload
        # workload -> PlanService, in the order the engines were given.
        self._services = {
            engine.workload: PlanService(engine) for engine in engines
        }
        # model digest -> workload.
        self._digests = {
            engine._model_digest: engine.workload for engine in engines
        }
        self._bad_requests = self.metrics.counter(
            "repro_serve_registry_bad_requests_total",
            "Routing-level 400s (pre-engine).",
        ).labels()
        fetches = self.metrics.counter(
            "repro_serve_registry_fetches_total",
            "Workload-agnostic GET /v1/plan/<key> fetches by result.",
            labels=("result",),
        )
        self._fetch_hits = fetches.labels(result="hit")
        self._fetch_misses = fetches.labels(result="miss")

    # ---------------------------------------------------------------- routing

    def resolve(self, workload=None, model=None):
        """The :class:`PlanService` a request's routing fields name.

        No field: the default workload.  A workload or model digest the
        registry does not serve is a 400, never a guess.
        """
        if model is not None:
            workload = self._digests.get(model)
            if workload is None:
                raise PlanRequestError(
                    f"unknown model digest {model!r}; served: "
                    f"{sorted(self._digests)}"
                )
        service = self._services.get(
            self.default if workload is None else workload
        )
        if service is None:
            raise PlanRequestError(
                f"unknown workload {workload!r}; served: "
                f"{list(self._services)}"
            )
        return service

    # ---------------------------------------------------------------- serving

    async def plan(self, body):
        """Serve one ``POST /v1/plan`` body through the routed engine.

        Routing failures (bad JSON, unknown workload/digest) are
        counted registry-side; everything after the route — parsing,
        caching, coalescing, the tripwire — is the routed engine's
        :meth:`~repro.serve.service.PlanService.plan`, contract intact.
        """
        try:
            (workload, model), remainder = split_plan_route(body)
            service = self.resolve(workload, model)
        except Exception:
            self._bad_requests.inc()
            raise
        return await service.plan(remainder)

    def fetch(self, key):
        """``GET /v1/plan/<key>``: warm fetch from the shared cache.

        Workload-agnostic by construction — the key *is* the identity,
        wherever it was resolved.
        """
        arrays = self.cache.lookup(PLAN_KIND, key) if is_plan_key(key) else None
        if arrays is None:
            self._fetch_misses.inc()
            return None
        self._fetch_hits.inc()
        return decode_plan_bytes(arrays)

    # -------------------------------------------------------------- plumbing

    def models(self):
        """``GET /v1/models``: the served workloads, one row each.

        A row carries the workload, its model digest (what a
        ``model``-routed request names) and its cumulative counters
        (:func:`~repro.serve.service.workload_stats`).
        """
        views = workload_stats(self.metrics.snapshot())
        return {
            "default": self.default,
            "models": [
                {
                    "workload": workload,
                    "model": service.engine._model_digest,
                    "requests": views[workload]["requests"],
                }
                for workload, service in self._services.items()
            ],
        }

    def healthz(self):
        """Liveness payload."""
        return {"status": "ok", "cache_version": self.cache.version}

    def stats(self):
        """``/statsz``: counters only, a JSON view of :attr:`metrics`.

        ``engines`` has one section per served workload: its counters
        and latency quantiles (:func:`~repro.serve.service.
        workload_stats`) beside its live in-flight count.  The aggregate
        ``requests`` sums every workload's counters and folds in the
        registry-level ones (routing ``bad_requests``, shared-cache
        ``fetch_*``).  The ``cache`` section is the shared cache's
        :meth:`~repro.plan.cache.PlanArtifactCache.stats` verbatim.
        """
        views = workload_stats(self.metrics.snapshot())

        def total(name):
            return sum(view["requests"][name] for view in views.values())

        engines = {
            workload: {
                "requests": views[workload]["requests"],
                "in_flight_coalesced": len(service._inflight),
                "latency_ms": views[workload]["latency_ms"],
            }
            for workload, service in self._services.items()
        }
        return {
            "requests": {
                "requests": total("requests"),
                "warm": total("warm"),
                "cold": total("cold"),
                "coalesced": total("coalesced"),
                "fetch_hits": self._fetch_hits.value,
                "fetch_misses": self._fetch_misses.value,
                "bad_requests": (
                    total("bad_requests") + self._bad_requests.value
                ),
                "resolve_errors": total("resolve_errors"),
                "engine_resolutions": total("engine_resolutions"),
            },
            "in_flight_coalesced": sum(
                engine["in_flight_coalesced"] for engine in engines.values()
            ),
            "engines": engines,
            "cache": self.cache.stats(),
        }

    def metricsz(self):
        """``GET /metricsz``: one Prometheus exposition for the whole
        process — the shared cache, routing, every served workload's
        families and the HTTP transport."""
        return render_prometheus(self.metrics)

    def close(self):
        """Shut every engine's resolution thread down (after the HTTP drain).

        :meth:`stats` stays readable (the CLI prints the drained summary
        from it *after* closing); the engines just cannot resolve
        anymore.
        """
        for service in self._services.values():
            service.close()
