"""Tiny stdlib client for the plan-serving service.

``http.client`` only — a consumer of served plans should not need the
reproduction installed, let alone its numeric stack; this module's only
repro import is the error taxonomy.  One keep-alive connection per
client, transparently re-opened when the server (or a drain) closes it.

Example::

    from repro.serve.client import PlanClient

    with PlanClient(port=8321) as client:
        served = client.plan({"technology": "pcm", "read_time": 3.6e3})
        counts = dict(zip(served.plan["nwc_targets"], served.plan["counts"]))
        again = client.fetch(served.key)      # warm, byte-identical
        assert again.data == served.data
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

from repro.robustness.errors import ReproError

__all__ = ["PlanClient", "PlanClientError", "PlanResponse"]


class PlanClientError(ReproError):
    """A non-2xx (or transport-failed) service response.

    Carries the HTTP ``status`` (None when the transport itself
    failed); retryable is left False — the caller knows whether its
    request is safe to repeat.
    """

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class PlanResponse:
    """One served plan: canonical bytes plus the serving headers."""

    data: bytes
    key: str
    source: str

    @property
    def plan(self):
        """The plan as a dict (``SelectionPlan.to_json`` layout)."""
        return json.loads(self.data.decode("utf-8"))


class PlanClient:
    """Talks to one :class:`~repro.serve.http.PlanHTTPServer`.

    After every round trip the client keeps the server's correlation
    headers: :attr:`last_request_id` (the ``X-Request-Id`` the server
    attached to the response *and* to its ``http.request`` trace span)
    and :attr:`last_server_ms` (``X-Server-Ms``, the server-side
    dispatch time in milliseconds).  To chase a slow request down to
    the server's trace JSONL::

        served = client.plan({"technology": "pcm"})
        if client.last_server_ms and client.last_server_ms > 100:
            print("slow:", client.last_request_id)
            # server side (started with tracing enabled):
            #   grep <last_request_id> trace.jsonl
            # -> the http.request span with attrs.request_id ==
            #    last_request_id carries the route, status, and exact
            #    start/dur of this very request.

    A large client-measured latency with a small ``last_server_ms``
    indicts the network or the client, not the service.
    """

    def __init__(self, host="127.0.0.1", port=8321, timeout=60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn = None
        #: ``X-Request-Id`` of the most recent response (None before
        #: the first round trip or when the server predates the header).
        self.last_request_id = None
        #: ``X-Server-Ms`` of the most recent response, as a float.
        self.last_server_ms = None

    # ---------------------------------------------------------------- plumbing

    def _request(self, method, path, body=None):
        """One round trip: ``(status, lowercase headers, body bytes)``.

        Retries exactly once on a dead keep-alive connection (the
        server may have drained between requests); a failure on a
        fresh connection is the caller's problem.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (1, 2):
            if self._conn is None:
                self._conn = HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except (HTTPException, ConnectionError, OSError) as exc:
                self.close()
                if attempt == 2:
                    raise PlanClientError(
                        f"{method} {path} failed: {exc}"
                    ) from exc
                continue
            if response.will_close:
                self.close()
            headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            self.last_request_id = headers.get("x-request-id")
            try:
                self.last_server_ms = float(headers["x-server-ms"])
            except (KeyError, ValueError):
                self.last_server_ms = None
            return response.status, headers, data

    @staticmethod
    def _error_line(status, data):
        try:
            message = json.loads(data.decode("utf-8")).get("error", "")
        except (UnicodeDecodeError, ValueError):
            message = data[:200].decode("utf-8", "replace")
        return f"HTTP {status}: {message}"

    def _json(self, path):
        status, _, data = self._request("GET", path)
        if status != 200:
            raise PlanClientError(self._error_line(status, data), status=status)
        return json.loads(data.decode("utf-8"))

    # ------------------------------------------------------------------- API

    def plan(self, request=None, **fields):
        """``POST /v1/plan``; returns a :class:`PlanResponse`.

        ``request`` is the JSON body as a dict (or pass fields as
        keyword arguments).  Against a multi-workload server, a
        ``workload="convnet-cifar"`` or ``model="<digest>"`` field
        routes the request to that engine (default: the server's
        default workload).  Raises :class:`PlanClientError` on any
        non-200 — a 400's single-line reason is the exception message.
        """
        payload = dict(request or {})
        payload.update(fields)
        status, headers, data = self._request(
            "POST", "/v1/plan", body=json.dumps(payload).encode("utf-8")
        )
        if status != 200:
            raise PlanClientError(self._error_line(status, data), status=status)
        return PlanResponse(
            data=data,
            key=headers.get("x-plan-key", ""),
            source=headers.get("x-plan-source", ""),
        )

    def fetch(self, key):
        """``GET /v1/plan/<key>``; a :class:`PlanResponse`, or None on 404."""
        status, headers, data = self._request("GET", f"/v1/plan/{key}")
        if status == 404:
            return None
        if status != 200:
            raise PlanClientError(self._error_line(status, data), status=status)
        return PlanResponse(
            data=data,
            key=headers.get("x-plan-key", key),
            source=headers.get("x-plan-source", "warm"),
        )

    def models(self):
        """``GET /v1/models`` as a dict.

        ``{"default", "models": [{"workload", "model", "requests"},
        ...]}`` — one row per served workload; a row's ``model`` digest
        is what a ``plan(..., model=<digest>)`` request routes by.
        """
        return self._json("/v1/models")

    def healthz(self):
        """``GET /healthz`` as a dict."""
        return self._json("/healthz")

    def statsz(self):
        """``GET /statsz`` as a dict (counters, cache stats, latency)."""
        return self._json("/statsz")

    def metricsz(self):
        """``GET /metricsz`` as Prometheus exposition text (str)."""
        status, _, data = self._request("GET", "/metricsz")
        if status != 200:
            raise PlanClientError(self._error_line(status, data), status=status)
        return data.decode("utf-8")

    def close(self):
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
