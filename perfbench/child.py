"""Fresh processes the benchmark times as a first-time user would start them.

``zoo``: import the experiment runner and train one zoo workload into an
empty ``REPRO_CACHE_DIR`` (the set-up of a scenario grid).

``serve``: stand up the plan service with the ``lenet-digits`` and
``convnet-cifar`` engines over a plan cache under ``--cache``, write the
bound port to ``--port-file`` once it accepts connections, and serve
until SIGTERM.  With ``--trace PATH`` spans are recorded from start-up
(so zoo training shows in the trace), SIGUSR1 toggles recording, and
the spans are written to PATH as JSONL at exit.

Both modes inherit the launcher's environment (thread pins, PYTHONPATH).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

SERVE_WORKLOADS = ("lenet-digits", "convnet-cifar")


def zoo(args):
    from repro.experiments import runner  # noqa: F401  (the user's import cost)
    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload

    load_workload(get_scale("smoke").workload(args.workload))
    return 0


def serve(args):
    from repro.obs import TRACER, write_spans_jsonl

    if args.trace:
        from layers import instrument

        instrument()
        TRACER.enable()

        def toggle(signum, frame):
            TRACER.enabled = not TRACER.enabled

        signal.signal(signal.SIGUSR1, toggle)

    from repro.plan import PlanArtifactCache
    from repro.serve import PlanHTTPServer
    from repro.serve.cli import build_service

    service = build_service(
        workloads=SERVE_WORKLOADS, scale="smoke",
        cache=PlanArtifactCache(root=args.cache),
    )
    server = PlanHTTPServer(service, port=0)

    async def main():
        await server.start()
        tmp = args.port_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(str(server.port))
        os.replace(tmp, args.port_file)
        return await server.run()

    code = asyncio.run(main())
    if args.trace:
        write_spans_jsonl(args.trace, TRACER.drain())
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    zoo_parser = sub.add_parser("zoo")
    zoo_parser.add_argument("--workload", required=True)
    serve_parser = sub.add_parser("serve")
    serve_parser.add_argument("--cache", required=True)
    serve_parser.add_argument("--port-file", required=True)
    serve_parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    return zoo(args) if args.mode == "zoo" else serve(args)


if __name__ == "__main__":
    sys.exit(main())
