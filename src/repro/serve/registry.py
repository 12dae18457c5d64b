"""Multi-workload plan serving: one engine per zoo workload, lazily.

PR 8's serving layer held exactly one :class:`~repro.plan.engine.
PlanEngine` — one workload, one model digest.  A fleet front end wants
one process answering for *every* zoo workload, so the
:class:`PlanEngineRegistry` grows the service sideways instead of up:

- **lazy engines** — the registry knows every loadable workload of its
  scale but constructs a :class:`~repro.serve.service.PlanService`
  (engine + resolution executor) only on a workload's first
  request, through one injected ``engine_factory(workload, cache)``.
- **digest routing** — a ``POST /v1/plan`` body may carry a
  ``workload`` (zoo key) or ``model`` (16-hex digest) field; the
  registry resolves it and strips it before the per-engine parse, so a
  routed request's content key — and therefore its plan bytes — is
  identical to the same request against a single-workload server.
  Digest routing covers every engine this process has loaded at least
  once (digests are deterministic, so the map survives retirement).
- **bounded engines** — ``REPRO_SERVE_MAX_ENGINES`` (or the
  ``max_engines`` argument; 0 = unbounded) caps live engines with
  least-recently-*routed* retirement: the retired service's executor
  drains on its worker threads (in-flight coalesced riders still
  complete) without blocking the event loop, and a later request for
  that workload rebuilds it fresh.
- **shared cache, per-engine contracts** — every engine stores into
  one bounded :class:`~repro.plan.cache.PlanArtifactCache` (the
  content key already folds in the model digest, so engines can never
  collide), while the ``engine_resolutions`` tripwire and the
  single-flight in-flight map stay *per engine*, keyed by the cache's
  own content key exactly as before.
- **one counter source** — the registry owns one
  :class:`~repro.obs.metrics.MetricsRegistry` that every engine counts
  into, labeled by workload.  ``/metricsz`` renders it, and ``/statsz``
  and the ``/v1/models`` rows are JSON views of its snapshot
  (:func:`~repro.serve.service.workload_stats`), so the two surfaces
  cannot disagree and a retired engine's traffic stays counted.

The registry is the whole surface the HTTP layer speaks (``plan`` /
``fetch`` / ``models`` / ``healthz`` / ``stats`` / ``metricsz`` /
``close``): :class:`~repro.serve.http.PlanHTTPServer` serves a
registry, and a single-workload server is a one-workload registry.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.robustness.errors import ScenarioConfigError
from repro.serve.codec import (
    PlanRequestError,
    decode_plan_bytes,
    is_plan_key,
    split_plan_route,
)
from repro.serve.service import PLAN_KIND, PlanService, workload_stats

__all__ = ["PlanEngineRegistry", "resolve_max_engines"]


def resolve_max_engines(max_engines=None):
    """Resolve the live-engine cap: arg, else ``REPRO_SERVE_MAX_ENGINES``.

    ``0`` (the default when neither is given) means unbounded; negative
    or non-integer values raise
    :class:`~repro.robustness.errors.ScenarioConfigError` (CLI exit 64).
    """
    if max_engines is None:
        raw = os.environ.get("REPRO_SERVE_MAX_ENGINES", "").strip()
        if not raw:
            return 0
        try:
            max_engines = int(raw)
        except ValueError as exc:
            raise ScenarioConfigError(
                f"REPRO_SERVE_MAX_ENGINES must be an integer, got {raw!r}"
            ) from exc
    max_engines = int(max_engines)
    if max_engines < 0:
        raise ScenarioConfigError(
            "max_engines must be >= 1, or 0 for unbounded live engines"
        )
    return max_engines


class PlanEngineRegistry:
    """Routes plan traffic to one lazily-built engine per workload.

    Parameters
    ----------
    engine_factory:
        ``factory(workload, cache) -> PlanEngine`` — invoked once per
        workload on first request (and again after an LRU retirement).
        The registry always passes its own shared ``cache`` so every
        engine stores into one bounded artifact tier.  The engine's
        ``workload`` must be the key it was built for: it is the label
        the engine's counters are kept under.
    workloads:
        The loadable workload keys (a scale's zoo).  Requests naming
        anything else are a single-line 400.
    default:
        The workload unrouted requests (no ``workload``/``model``
        field) resolve to — the single-workload server's behavior.
        Defaults to the first entry of ``workloads``.
    cache:
        The shared :class:`~repro.plan.cache.PlanArtifactCache`
        (default: a fresh one).  Safe by construction: plan content
        keys fold in the model digest, so two engines can never
        address each other's artifacts.
    resolve_workers:
        Per-engine cold-resolution threads (each engine keeps its own
        executor, as before).
    max_engines:
        Live-engine cap via :func:`resolve_max_engines`
        (``REPRO_SERVE_MAX_ENGINES``; 0 = unbounded).

    :attr:`metrics` is the registry's own
    :class:`~repro.obs.metrics.MetricsRegistry`: routing counters and
    every per-workload service's families live in it (and the cache's
    too, when the registry builds the cache), so ``GET /metricsz`` is
    one exposition covering routing, engines, and artifact tiers.
    """

    def __init__(self, engine_factory, workloads, default=None, cache=None,
                 resolve_workers=1, max_engines=None):
        from repro.plan import PlanArtifactCache

        workloads = tuple(workloads)
        if not workloads:
            raise ScenarioConfigError("registry needs at least one workload")
        if default is None:
            default = workloads[0]
        if default not in workloads:
            raise ScenarioConfigError(
                f"default workload {default!r} is not loadable; loadable: "
                f"{sorted(workloads)}"
            )
        self._factory = engine_factory
        self.workloads = workloads
        self.default = default
        self.metrics = MetricsRegistry()
        self.cache = (
            cache if cache is not None
            else PlanArtifactCache(metrics=self.metrics)
        )
        self.resolve_workers = resolve_workers
        self.max_engines = resolve_max_engines(max_engines)
        # workload -> live PlanService, in least-recently-routed order.
        self._services = OrderedDict()
        # model digest -> workload, for every engine ever loaded here.
        # Digests are deterministic functions of the workload spec, so
        # entries survive retirement and never go stale.
        self._digests = {}
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
        engines = self.metrics.counter(
            "repro_serve_engines_total",
            "Engine lifecycle events (loaded includes rebuilds).",
            labels=("event",),
        )
        self._engines_loaded = engines.labels(event="loaded")
        self._engines_retired = engines.labels(event="retired")

    # ---------------------------------------------------------------- routing

    def service(self, workload):
        """The live :class:`PlanService` for one workload (built lazily).

        Touches the LRU (most-recently-routed last) and retires past
        the cap; retirement drains the retired executor on its worker
        threads without blocking the caller.
        """
        if workload not in self.workloads:
            raise PlanRequestError(
                f"unknown workload {workload!r}; loadable: "
                f"{sorted(self.workloads)}"
            )
        service = self._services.get(workload)
        if service is None:
            engine = self._factory(workload, self.cache)
            service = PlanService(
                engine, resolve_workers=self.resolve_workers,
                metrics=self.metrics,
            )
            self._services[workload] = service
            self._digests[engine._model_digest] = workload
            self._engines_loaded.inc()
        self._services.move_to_end(workload)
        while self.max_engines > 0 and len(self._services) > self.max_engines:
            _, retired = self._services.popitem(last=False)
            retired.close(wait=False)
            self._engines_retired.inc()
        return service

    def resolve(self, workload=None, model=None):
        """Resolve a request's routing fields to a live service.

        No field: the default workload.  ``model``: the digest map of
        every engine loaded at least once in this process (preloads at
        startup seed it) — an unknown digest is a 400, never a guess.
        """
        if model is not None:
            workload = self._digests.get(model)
            if workload is None:
                raise PlanRequestError(
                    f"unknown model digest {model!r}; loaded: "
                    f"{sorted(self._digests)} (route by workload to load "
                    f"a new engine)"
                )
        return self.service(workload if workload is not None else self.default)

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
        """``GET /v1/models``: loaded + loadable workloads, one row each.

        A row's ``requests`` are the workload's cumulative counters
        (:func:`~repro.serve.service.workload_stats`): a retired row
        keeps its digest (it is deterministic) and its counters, while
        a never-loaded row carries a null digest (unknowable without
        paying the load) and null counters.
        """
        views = workload_stats(self.metrics.snapshot())
        known = {w: d for d, w in self._digests.items()}
        rows = [
            {
                "workload": workload,
                "model": known.get(workload),
                "loaded": workload in self._services,
                "requests": views.get(workload, {}).get("requests"),
            }
            for workload in self.workloads
        ]
        return {
            "default": self.default,
            "max_engines": self.max_engines,
            "models": rows,
        }

    def healthz(self):
        """Liveness payload: what is loaded, what could be."""
        return {
            "status": "ok",
            "default": self.default,
            "loaded": list(self._services),
            "workloads": list(self.workloads),
            "max_engines": self.max_engines,
            "cache_version": self.cache.version,
        }

    def stats(self):
        """``/statsz``: a JSON view of :attr:`metrics`.

        ``engines`` has one section per live engine: its workload's
        counters and latency quantiles (:func:`~repro.serve.service.
        workload_stats`) beside the engine's live in-flight count and
        stage stats.  The aggregate ``requests`` sums the counters of
        every workload ever loaded, retired ones included, and folds in
        the registry-level ones (routing ``bad_requests``, shared-cache
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
                "engine": dict(service.engine.stats),
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
            "registry": {
                "default": self.default,
                "loaded": list(self._services),
                "loadable": list(self.workloads),
                "max_engines": self.max_engines,
                "engines_loaded": self._engines_loaded.value,
                "engines_retired": self._engines_retired.value,
            },
            "cache": self.cache.stats(),
        }

    def metricsz(self):
        """``GET /metricsz``: one Prometheus exposition for the whole
        process — routing counters, every loaded workload's families,
        and the shared cache (deduplicated by registry identity when the
        cache shares :attr:`metrics`).
        """
        return render_prometheus(self.metrics, self.cache.metrics)

    def close(self):
        """Shut every live engine's executor down (after the HTTP drain).

        Engines stay registered and :meth:`stats` stays readable (the
        CLI prints the drained summary from it *after* closing); the
        engines just cannot resolve anymore.
        """
        for service in self._services.values():
            service.close()
