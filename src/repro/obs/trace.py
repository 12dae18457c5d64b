"""Trace spans with fork-safe buffers and JSONL / Chrome export.

Spans time regions of the pipeline (``span("plan.curvature")``) on the
monotonic clock — which on Linux is system-wide, so timestamps recorded
in forked workers are directly comparable with the parent's.  Each
process accumulates finished spans in an in-memory buffer; fork workers
ship the spans they recorded back through ``supervised_map``'s result
channel, and the parent re-attaches them under the span that was open
when the map was entered (``adopt``).

Tracing is off by default and ``span()`` is a no-op singleton when
disabled, so the instrumented hot paths cost a single attribute read.
Span records never feed cache keys or artifact bytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

__all__ = [
    "SPAN_REQUIRED_FIELDS",
    "TRACER",
    "Tracer",
    "chrome_trace_path",
    "disable_tracing",
    "enable_tracing",
    "span",
    "traced",
    "write_chrome_trace",
    "write_spans_jsonl",
]

# Every span record carries at least these keys (CI validates them).
SPAN_REQUIRED_FIELDS = ("name", "start", "dur", "pid", "parent")


class _NullSpan:
    """Returned by ``span()`` when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "record")

    def __init__(self, tracer, record):
        self._tracer = tracer
        self.record = record

    def set(self, **attrs):
        self.record["attrs"].update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._finish(self.record, exc_type)
        return False


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._spans = []
        self._local = threading.local()
        self._seq = itertools.count(1)
        self.enabled = False

    # -- lifecycle -----------------------------------------------------
    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset_context(self):
        """Drop the inherited parent stack (call in freshly forked workers)."""
        self._local.stack = []

    def current_span_id(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _next_id(self):
        # pid-qualified so ids minted by sibling fork workers never collide
        return f"{os.getpid():x}-{next(self._seq)}"

    # -- recording -----------------------------------------------------
    def span(self, name, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        record = {
            "name": name,
            "id": self._next_id(),
            "parent": stack[-1] if stack else None,
            "start": time.monotonic(),
            "dur": None,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": dict(attrs),
        }
        stack.append(record["id"])
        return _Span(self, record)

    def record_span(self, name, start, dur, parent=None, **attrs):
        """Append an already-timed span without touching the context stack.

        For async contexts (the HTTP front end serves many requests
        interleaved on one thread) where the thread-local parent stack
        would mis-nest concurrent spans.  ``start`` is a
        ``time.monotonic()`` timestamp; returns the record, or None
        when tracing is disabled.
        """
        if not self.enabled:
            return None
        record = {
            "name": name,
            "id": self._next_id(),
            "parent": parent,
            "start": float(start),
            "dur": float(dur),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": dict(attrs),
        }
        with self._lock:
            self._spans.append(record)
        return record

    def _finish(self, record, exc_type):
        record["dur"] = time.monotonic() - record["start"]
        if exc_type is not None:
            record["attrs"]["error"] = exc_type.__name__
        stack = self._stack()
        if stack and stack[-1] == record["id"]:
            stack.pop()
        with self._lock:
            self._spans.append(record)

    # -- fork shipping -------------------------------------------------
    def mark(self):
        """Buffer length; pair with ``take_since`` to ship only new spans."""
        with self._lock:
            return len(self._spans)

    def take_since(self, mark):
        with self._lock:
            taken = self._spans[mark:]
            del self._spans[mark:]
            return taken

    def adopt(self, spans, parent=None):
        """Append spans shipped from another process.

        Root spans (``parent is None``) are re-parented under
        ``parent`` so a worker's spans nest beneath the span that was
        open when the work was dispatched.
        """
        if not spans:
            return
        adopted = []
        for record in spans:
            if parent is not None and record.get("parent") is None:
                record = dict(record, parent=parent)
            adopted.append(record)
        with self._lock:
            self._spans.extend(adopted)

    # -- export --------------------------------------------------------
    def drain(self):
        with self._lock:
            spans, self._spans = self._spans, []
            return spans


TRACER = Tracer()


def enable_tracing():
    TRACER.enable()


def disable_tracing():
    TRACER.disable()


def span(name, **attrs):
    return TRACER.span(name, **attrs)


def traced(name=None, **attrs):
    """Decorator form of ``span()``."""

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with TRACER.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def write_spans_jsonl(path, spans):
    """One span record per line; returns the path written."""
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def chrome_trace_path(jsonl_path):
    jsonl_path = os.fspath(jsonl_path)
    if jsonl_path.endswith(".jsonl"):
        return jsonl_path[: -len(".jsonl")] + ".chrome.json"
    return jsonl_path + ".chrome.json"


def write_chrome_trace(path, spans):
    """Chrome ``trace_event`` JSON (load via ``chrome://tracing``)."""
    events = []
    for record in spans:
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "ts": record["start"] * 1e6,
                "dur": (record["dur"] or 0.0) * 1e6,
                "pid": record["pid"],
                "tid": record.get("tid", 0),
                "args": dict(record.get("attrs", ())),
            }
        )
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path
