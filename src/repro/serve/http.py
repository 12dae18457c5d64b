"""Hand-rolled asyncio HTTP/1.1 front end for :class:`PlanEngineRegistry`.

Stdlib only, built directly on :func:`asyncio.start_server`: a minimal
request parser (request line + headers + Content-Length body), four
routes, keep-alive, and JSON errors.  No framework — the whole wire
protocol the service needs fits in one page and keeps the dependency
budget at zero.

Routes::

    POST /v1/plan        resolve (or replay) a PlanRequest JSON body,
                         optionally routed by "workload"/"model" fields
    GET  /v1/plan/<key>  content-addressed warm fetch (404 on miss)
    GET  /v1/models      the served workloads: default, digests, counters
    GET  /healthz        liveness: status and cache version
    GET  /statsz         counters only, a JSON view of the metrics:
                         per-workload counters, aggregate, latency
                         quantiles, cache stats
    GET  /metricsz       Prometheus text exposition (engines + cache)

Plan responses carry ``X-Plan-Key`` (the content address, for later
warm ``GET``\\ s) and ``X-Plan-Source`` (``warm`` / ``cold`` /
``coalesced``) so clients and benchmarks can classify without parsing
bodies.  Every response carries ``X-Request-Id`` (echoing a sane
client-provided one, else generated) and ``X-Server-Ms`` (dispatch
wall time), and when tracing is enabled each request records an
``http.request`` span tagged with the same id — the client/server
correlation handle (:attr:`~repro.serve.client.PlanClient.
last_request_id`).  Per-route request counts and latency histograms
register in the engine registry's metrics registry, so ``/metricsz``
covers the transport too.

Shutdown discipline (the contract load tests rely on): the first
SIGTERM/SIGINT stops accepting, lets in-flight requests finish, and
exits cleanly (0); a second signal abandons the drain and surfaces as
a :class:`~repro.robustness.errors.TransientFaultError` — the
retryable exit-75 family, same taxonomy as every other CLI failure.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
import time
import uuid

from repro.obs.trace import TRACER
from repro.robustness.errors import ScenarioConfigError, TransientFaultError

__all__ = ["DEFAULT_PORT", "PlanHTTPServer"]

#: A client-supplied X-Request-Id we are willing to echo (anything else
#: is replaced, never reflected back into headers or traces).
_REQUEST_ID = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

#: Default serving port ("swim" on a phone keypad, close enough).
DEFAULT_PORT = 8321

#: Request body cap in bytes (413 beyond it) — one of the "RSS must stay
#: bounded" guards.
MAX_BODY = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _one_line(exc):
    """An exception as a single traceback-free line."""
    text = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    return " ".join(text.splitlines())


class PlanHTTPServer:
    """Serves one :class:`~repro.serve.registry.PlanEngineRegistry` over TCP.

    Parameters
    ----------
    registry:
        The transport-independent core: async ``plan`` plus ``fetch``
        / ``models`` / ``healthz`` / ``stats`` / ``metricsz`` /
        ``close``, and the ``metrics`` registry the transport counts
        into.
    host / port:
        Bind address; port ``0`` asks the kernel for an ephemeral port
        (read the bound one back from :attr:`port` after
        :meth:`start`).
    """

    def __init__(self, registry, host="127.0.0.1", port=DEFAULT_PORT):
        if not 0 <= int(port) <= 65535:
            raise ScenarioConfigError(
                f"port must be in [0, 65535], got {port}"
            )
        self.registry = registry
        self.host = host
        self.port = int(port)
        # Transport metrics share the registry's metrics, so /metricsz
        # is a single exposition.
        metrics = registry.metrics
        self._http_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by route and status.",
            labels=("route", "status"),
        )
        self._http_seconds = metrics.histogram(
            "repro_http_request_seconds",
            "HTTP dispatch latency by route.",
            labels=("route",),
        )
        self._server = None
        self._conn_tasks = set()
        self._inflight = 0
        self._stopping = False
        self._signals = 0
        self._stop_event = None
        self._loop = None  # captured at start(); shutdown routes through it

    # ----------------------------------------------------------------- wiring

    async def start(self):
        """Bind and start accepting; resolves :attr:`port` when ephemeral."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._signals:
            self._stop_event.set()  # a pre-start shutdown request sticks
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def request_shutdown(self):
        """The signal-handler body: first call drains, second forces.

        Public and genuinely thread-safe: the signal/event mutation is
        marshalled onto the serving loop via ``call_soon_threadsafe``
        (an ``asyncio.Event`` set from a foreign thread would not wake
        the loop), so embedders and tests can drive the same path a
        SIGTERM does from any thread.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            # Not started (or already torn down): no loop to wake.
            self._signal_stop()
            return
        try:
            loop.call_soon_threadsafe(self._signal_stop)
        except RuntimeError:
            pass  # loop closed between the check and the call: already down

    def _signal_stop(self):
        self._signals += 1
        if self._stop_event is not None:
            self._stop_event.set()

    async def run(self, install_signals=True):
        """Serve until signaled; returns 0 after a clean drain.

        A second signal mid-drain raises
        :class:`~repro.robustness.errors.TransientFaultError` (exit 75
        through the CLI taxonomy) after cancelling the stragglers.
        """
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or exotic platform: embedder's job

        await self._stop_event.wait()
        self._stopping = True
        self._server.close()
        # Drain: wait for in-flight *requests* (idle keep-alive readers
        # do not count); a second signal abandons them.
        while self._inflight > 0 and self._signals < 2:
            await asyncio.sleep(0.02)
        abandoned = self._inflight
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._server.wait_closed()
        self.registry.close()
        if abandoned:
            raise TransientFaultError(
                f"forced shutdown: abandoned {abandoned} in-flight "
                f"request(s) after second signal"
            )
        return 0

    # ------------------------------------------------------------ connections

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while not self._stopping:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client closed (or half a request) — done
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, 431, {"error": "request head too large"},
                        keep=False,
                    )
                    break

                request = self._parse_head(head)
                if request is None:
                    await self._respond(
                        writer, 400, {"error": "malformed request head"},
                        keep=False,
                    )
                    break
                method, target, version, headers = request

                # RFC 9110: Content-Length is 1*DIGIT.  Bare int() would
                # also accept "+5", "1_2", unicode digits and padded
                # whitespace — smuggling-adjacent laxness; reject anything
                # that is not pure ASCII digits with a single-line 400.
                raw_length = headers.get("content-length")
                if raw_length is None:
                    length = 0
                elif raw_length.isascii() and raw_length.isdigit():
                    length = int(raw_length)
                else:
                    await self._respond(
                        writer, 400, {"error": "malformed Content-Length"},
                        keep=False,
                    )
                    break
                if length > MAX_BODY:
                    await self._respond(
                        writer, 413,
                        {"error": f"request body exceeds {MAX_BODY} bytes"},
                        keep=False,
                    )
                    break
                try:
                    body = await reader.readexactly(length) if length else b""
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client died mid-body

                keep = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                    and not self._stopping
                )
                request_id = headers.get("x-request-id", "")
                if not _REQUEST_ID.match(request_id):
                    request_id = uuid.uuid4().hex[:16]
                route = self._route_of(target.split("?", 1)[0])
                self._inflight += 1
                started = time.monotonic()
                try:
                    status, payload, extra = await self._dispatch(
                        method, target, body
                    )
                    elapsed = time.monotonic() - started
                    extra = dict(extra or {})
                    extra.setdefault("X-Request-Id", request_id)
                    extra.setdefault("X-Server-Ms", f"{elapsed * 1e3:.3f}")
                    self._http_requests.labels(
                        route=route, status=str(status)
                    ).inc()
                    self._http_seconds.labels(route=route).observe(elapsed)
                    TRACER.record_span(
                        "http.request", started, elapsed,
                        route=route, method=method, status=int(status),
                        request_id=request_id,
                    )
                    await self._respond(
                        writer, status, payload, extra=extra, keep=keep
                    )
                finally:
                    self._inflight -= 1
                if not keep:
                    break
        except asyncio.CancelledError:
            pass  # forced shutdown (or abandoned idle reader)
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    @staticmethod
    def _parse_head(head):
        """``(method, target, version, headers)`` or None when malformed."""
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, version = lines[0].split(" ", 2)
            headers = {}
            for line in lines[1:]:
                if not line:
                    continue
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            return method.upper(), target, version.strip(), headers
        except ValueError:
            return None

    # ---------------------------------------------------------------- routing

    @staticmethod
    def _route_of(path):
        """Normalize a path to a fixed route label (bounded cardinality:
        arbitrary client paths must not mint metric children)."""
        if path == "/v1/plan":
            return "/v1/plan"
        if path.startswith("/v1/plan/"):
            return "/v1/plan/<key>"
        if path in ("/v1/models", "/healthz", "/statsz", "/metricsz"):
            return path
        return "other"

    async def _dispatch(self, method, target, body):
        """Route one request; returns ``(status, payload, extra_headers)``.

        ``payload`` is raw bytes (served verbatim) or a JSON-able dict.
        Errors are single-line JSON — a malformed request must never
        echo a stack trace.
        """
        path = target.split("?", 1)[0]
        try:
            if path == "/v1/plan":
                if method != "POST":
                    return 405, {"error": "use POST /v1/plan"}, None
                served = await self.registry.plan(body)
                return 200, served.data, {
                    "X-Plan-Key": served.key,
                    "X-Plan-Source": served.source,
                }
            if path.startswith("/v1/plan/"):
                if method != "GET":
                    return 405, {"error": "use GET /v1/plan/<key>"}, None
                key = path[len("/v1/plan/"):]
                data = self.registry.fetch(key)
                if data is None:
                    return 404, {"error": f"no plan at key {key!r}"}, None
                return 200, data, {
                    "X-Plan-Key": key,
                    "X-Plan-Source": "warm",
                }
            if path == "/v1/models":
                if method != "GET":
                    return 405, {"error": "use GET /v1/models"}, None
                return 200, self.registry.models(), None
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET /healthz"}, None
                return 200, self.registry.healthz(), None
            if path == "/statsz":
                if method != "GET":
                    return 405, {"error": "use GET /statsz"}, None
                return 200, self.registry.stats(), None
            if path == "/metricsz":
                if method != "GET":
                    return 405, {"error": "use GET /metricsz"}, None
                return 200, self.registry.metricsz(), {
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                }
            return 404, {"error": f"no route for {path}"}, None
        except ScenarioConfigError as exc:
            # Bad request content (PlanRequestError and kin): the
            # client's fault, one 400 line, no traceback.
            return 400, {"error": _one_line(exc)}, None
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a server-side bug: 500, still one line
            print(f"error: {_one_line(exc)}", file=sys.stderr)
            return 500, {"error": _one_line(exc)}, None

    @staticmethod
    async def _respond(writer, status, payload, extra=None, keep=True):
        extra = dict(extra or {})
        content_type = extra.pop("Content-Type", None)
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
            if content_type is None:
                content_type = "text/plain; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type or 'application/json'}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep else 'close'}",
        ]
        for name, value in extra.items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
