"""``runner serve``: stand up the plan-serving registry from the CLI.

Usage (also reachable as ``python -m repro.serve``)::

    python -m repro.experiments.runner serve --scale smoke --port 8321
    python -m repro.experiments.runner serve --workload lenet-digits \\
        --workload convnet-cifar --port 0   # two preloaded engines

One process serves every zoo workload of its scale: the ``--workload``
flags (repeatable) name the engines *preloaded* at startup — the first
is the default route for requests without a ``workload``/``model``
field — and every other workload of the scale stays lazily loadable on
first request, bounded by ``--max-engines`` /
``REPRO_SERVE_MAX_ENGINES`` (least-recently-routed engines retire with
their executors drained).

Startup/shutdown speak the same exit-code taxonomy as every other
entry point (:mod:`repro.robustness.errors`): a bad workload, port,
worker count, or engine cap exits 64; an unbindable address or
unwritable cache exits 74; a forced (double-signal) shutdown exits 75;
a drained shutdown exits 0.

Knobs: ``--port``/``--host``, ``--workers`` (per-engine
cold-resolution threads; ``0`` = auto, via the same
:func:`~repro.robustness.scheduler.resolve_worker_count` semantics as
every other worker knob), ``--max-engines`` and
``REPRO_CACHE_MEM_ITEMS`` (LRU cap on the shared cache's memory tier —
with the engine cap, the two knobs that bound a long-lived server's
RSS).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.robustness.errors import ReproError, ScenarioConfigError
from repro.robustness.report import render_cache_stats
from repro.robustness.scheduler import resolve_worker_count
from repro.serve.http import DEFAULT_PORT, PlanHTTPServer
from repro.serve.registry import PlanEngineRegistry

__all__ = ["build_service", "run", "serve_main"]


def build_service(workloads=("lenet-digits",), scale=None, resolve_workers=1,
                  cache=None, max_engines=None, preload=True):
    """Wire a :class:`PlanEngineRegistry` over a scale's model zoo.

    ``workloads`` (a name or a sequence) are preloaded eagerly — the
    first is the default route — and every other workload of the scale
    stays lazily loadable.  Engine construction itself is
    :func:`repro.plan.engine.build_engine` (sense set = the scale's
    training-subset slice, curvature batch size capped at 256), so
    served plans are the ones a scenario run would compute.

    The registry's one :class:`~repro.obs.metrics.MetricsRegistry`
    spans routing, every per-workload service, and — when the cache is
    built here — the artifact cache, so ``GET /metricsz`` is a single
    exposition for the whole process and ``/statsz`` a view of it.
    """
    from repro.experiments.config import get_scale
    from repro.plan.engine import build_engine

    scale = get_scale(scale) if not hasattr(scale, "workloads") else scale
    if isinstance(workloads, str):
        workloads = (workloads,)
    workloads = tuple(workloads)
    unknown = sorted(set(workloads) - set(scale.workloads))
    if unknown:
        raise ScenarioConfigError(
            f"unknown workload(s) {unknown}; available: "
            f"{sorted(scale.workloads)}"
        )
    registry = PlanEngineRegistry(
        lambda workload, cache: build_engine(
            workload, scale=scale, cache=cache
        ),
        workloads=sorted(scale.workloads),
        default=workloads[0] if workloads else None,
        cache=cache,
        resolve_workers=resolve_workers,
        max_engines=max_engines,
    )
    if preload:
        for workload in workloads:
            registry.service(workload)
    return registry


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
                        help="zoo workload to preload; repeatable — the "
                             "first is the default route, and every other "
                             "workload of the scale stays lazily loadable "
                             "(default: lenet-digits)")
    parser.add_argument("--scale", default=None,
                        help="smoke | default | full (or REPRO_SCALE)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT}; 0 = "
                             "ephemeral, printed at startup)")
    parser.add_argument("--workers", type=int, default=None,
                        help="per-engine cold-resolution worker threads "
                             "(or REPRO_WORKERS); 0 = auto-size to the "
                             "core count; default 1 — warm serving never "
                             "queues behind resolutions either way")
    parser.add_argument("--max-engines", type=int, default=None,
                        help="cap on live engines (or "
                             "REPRO_SERVE_MAX_ENGINES; 0 = unbounded) — "
                             "least-recently-routed engines retire with "
                             "their executors drained")
    args = parser.parse_args(argv)

    workers = resolve_worker_count(args.workers, "REPRO_WORKERS", "workers")
    service = build_service(
        workloads=tuple(args.workloads or ("lenet-digits",)),
        scale=resolve_scale(args.scale),
        resolve_workers=workers if workers is not None else 1,
        max_engines=args.max_engines,
    )
    server = PlanHTTPServer(service, host=args.host, port=args.port)

    def announce(bound):
        health = service.healthz()
        for row in service.models()["models"]:
            if row["loaded"]:
                print(f"# plan-serving {row['workload']} "
                      f"(model {row['model']})")
        lazy = sorted(set(health["workloads"]) - set(health["loaded"]))
        if lazy:
            print(f"# loadable on demand: {', '.join(lazy)}")
        cap = health["max_engines"]
        print(f"# cache v{health['cache_version']}"
              + (f"; max engines {cap}" if cap else ""))
        print(f"[serving http://{bound.host}:{bound.port}]", flush=True)

    code = asyncio.run(_serve(server, announce))
    stats = service.stats()
    counts = stats["requests"]
    print(f"[drained: served {counts['requests']} plan request(s) "
          f"(warm={counts['warm']} cold={counts['cold']} "
          f"coalesced={counts['coalesced']}) | cache: "
          f"{render_cache_stats(stats['cache'])}]")
    return code


def run(argv=None):
    """``serve_main`` behind the taxonomy: one-line errors, typed codes."""
    try:
        return serve_main(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: cannot serve: {exc}", file=sys.stderr)
        return 74
