"""Plan serving: the reproduction's first traffic-facing layer.

``repro.serve`` turns resolved :class:`~repro.plan.engine.
SelectionPlan`\\ s from a script output into a served product: a
stdlib-only asyncio HTTP service over :class:`~repro.plan.engine.
PlanEngine` / :class:`~repro.plan.cache.PlanArtifactCache` that
answers "which weights do I verify at budget b for model X /
technology Y / read_time t?" at memory-lookup speed once a plan is
warm.  One process serves the zoo workloads it was started with,
through the :class:`PlanEngineRegistry`: every engine is built at
startup on one shared artifact cache, routed by ``workload`` name or
``model`` digest, and resolves on its own single thread for the life
of the process.

The perf contract, in one sentence each:

- **warm-path fast serving** — a cache hit replays stored canonical
  bytes and never constructs an engine resolution (the per-engine
  ``engine_resolutions`` tripwire counter proves it);
- **single-flight coalescing** — N identical concurrent requests
  collapse into one resolution *per engine*, keyed by the same
  content digest the shared cache uses;
- **bounded memory** — the engines are fixed at startup and the
  cache's LRU cap (``REPRO_CACHE_MEM_ITEMS``) bounds its memory tier,
  so a long-lived server's RSS stays flat; counters and latency
  histograms are fixed-size children of the shared cache's one
  :class:`~repro.obs.metrics.MetricsRegistry`, which ``/metricsz``
  renders and ``/statsz`` views as JSON.

Entry points: ``runner serve`` (the CLI), :func:`build_service` +
:class:`PlanHTTPServer` (embedding; a single-workload server is a
one-engine registry, and :class:`PlanService` is its per-engine core),
:class:`PlanClient` (consumers), ``benchmarks/bench_serving.py`` (the
load benchmark behind ``BENCH_serving.json``).
"""

from repro.serve.client import PlanClient, PlanClientError, PlanResponse
from repro.serve.codec import (
    PlanRequestError,
    parse_plan_request,
    plan_bytes,
    plan_config,
    split_plan_route,
)
from repro.serve.http import DEFAULT_PORT, PlanHTTPServer
from repro.serve.registry import PlanEngineRegistry
from repro.serve.service import PlanService, ServedPlan
from repro.serve.cli import build_service, serve_main

__all__ = [
    "DEFAULT_PORT",
    "PlanClient",
    "PlanClientError",
    "PlanEngineRegistry",
    "PlanHTTPServer",
    "PlanRequestError",
    "PlanResponse",
    "PlanService",
    "ServedPlan",
    "build_service",
    "parse_plan_request",
    "plan_bytes",
    "plan_config",
    "serve_main",
    "split_plan_route",
]
