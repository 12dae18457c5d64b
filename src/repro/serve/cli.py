"""``runner serve``: stand up the plan-serving registry from the CLI.

Usage::

    python -m repro.experiments.runner serve --scale smoke --port 8321
    python -m repro.experiments.runner serve --workload lenet-digits \\
        --workload convnet-cifar --port 0   # two engines

The ``--workload`` flags (repeatable; default ``lenet-digits``) name
the engines the server builds at startup and serves for the life of
the process; the first is the default route for requests without a
``workload``/``model`` field.  A request that names any other workload
is a single-line 400.

Startup/shutdown speak the same exit-code taxonomy as every other
entry point (:mod:`repro.robustness.errors`), through the runner's
``run`` wrapper: a bad workload, scale or port exits 64; an unbindable
address or unwritable cache exits 74; a forced (double-signal)
shutdown exits 75; a drained shutdown exits 0.

Knobs: ``--port``/``--host``, and ``REPRO_CACHE_MEM_ITEMS`` (LRU cap on
the shared cache's memory tier, which bounds a long-lived server's
RSS).  Each engine resolves cold requests on one thread of its own.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.robustness.errors import ScenarioConfigError
from repro.robustness.report import render_cache_stats
from repro.serve.http import DEFAULT_PORT, PlanHTTPServer
from repro.serve.registry import PlanEngineRegistry

__all__ = ["build_service", "serve_main"]


def build_service(workloads, scale, cache=None):
    """Build the named engines on one shared cache and serve them.

    ``workloads``, zoo keys of ``scale`` (a scale name or a
    :class:`~repro.experiments.config.ScalePreset`), are built now, each
    through :func:`repro.plan.engine.build_engine` (sense set = the scale's
    training-subset slice, curvature batch size capped at 256), so
    served plans are the ones a scenario run would compute; the first
    is the default route.  ``cache`` defaults to a fresh
    :class:`~repro.plan.cache.PlanArtifactCache`, whose
    :class:`~repro.obs.metrics.MetricsRegistry` every engine, the
    routing layer and the HTTP transport count into, so ``GET
    /metricsz`` is a single exposition for the whole process and
    ``/statsz`` a view of it.
    """
    from repro.experiments.config import get_scale
    from repro.plan import PlanArtifactCache
    from repro.plan.engine import build_engine

    scale = get_scale(scale) if not hasattr(scale, "workloads") else scale
    workloads = tuple(dict.fromkeys(workloads))
    unknown = sorted(set(workloads) - set(scale.workloads))
    if unknown:
        raise ScenarioConfigError(
            f"unknown workload(s) {unknown}; available: "
            f"{sorted(scale.workloads)}"
        )
    cache = cache if cache is not None else PlanArtifactCache()
    return PlanEngineRegistry(
        build_engine(workload, scale=scale, cache=cache)
        for workload in workloads
    )


async def _serve(server, announce):
    await server.start()
    announce(server)
    return await server.run()


def serve_main(argv=None):
    """Parse flags, build the service, serve until signaled."""
    from repro.experiments.config import resolve_scale

    parser = argparse.ArgumentParser(
        prog="runner serve",
        description="Serve selection plans over HTTP (POST /v1/plan, "
                    "GET /v1/plan/<key>, /v1/models, /healthz, /statsz, "
                    "/metricsz).",
    )
    parser.add_argument("--workload", action="append", default=None,
                        dest="workloads", metavar="WORKLOAD",
                        help="zoo workload to serve; repeatable — the "
                             "first is the default route (default: "
                             "lenet-digits)")
    parser.add_argument("--scale", default=None,
                        help="smoke | default | full (or REPRO_SCALE)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT}; 0 = "
                             "ephemeral, printed at startup)")
    args = parser.parse_args(argv)

    service = build_service(
        workloads=args.workloads or ("lenet-digits",),
        scale=resolve_scale(args.scale),
    )
    server = PlanHTTPServer(service, host=args.host, port=args.port)

    def announce(bound):
        for row in service.models()["models"]:
            print(f"# plan-serving {row['workload']} (model {row['model']})")
        print(f"# cache v{service.cache.version}")
        print(f"[serving http://{bound.host}:{bound.port}]", flush=True)

    code = asyncio.run(_serve(server, announce))
    stats = service.stats()
    counts = stats["requests"]
    print(f"[drained: served {counts['requests']} plan request(s) "
          f"(warm={counts['warm']} cold={counts['cold']} "
          f"coalesced={counts['coalesced']}) | cache: "
          f"{render_cache_stats(stats['cache'])}]")
    return code
