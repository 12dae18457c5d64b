"""Supervised process-pool execution: crash, hang, and retry handling.

``multiprocessing.Pool.map`` has exactly one failure mode the parent can
observe: an exception pickled back from a worker.  A worker that is
OOM-killed, segfaults, or hangs takes the whole map — and every
completed sibling's result — with it.  :func:`supervised_map` replaces
it with per-task supervision:

- each task runs in its own forked, daemonic worker process (the
  payload crosses via fork, results come back over a queue);
- a worker that *exits* without reporting (nonzero status, signal kill)
  is detected and its task retried — :class:`~repro.robustness.errors.
  WorkerCrashError`;
- a task that overruns its wall-clock budget (``REPRO_CELL_TIMEOUT``)
  is SIGKILLed and retried — :class:`~repro.robustness.errors.
  CellTimeoutError`;
- retries are bounded (``REPRO_CELL_RETRIES``) with exponential backoff
  (``REPRO_RETRY_BACKOFF`` base), and a task that exhausts them is
  re-executed *serially in the parent* — no pool, no timeout — before
  being declared failed;
- failures never abort the map: surviving tasks complete and the caller
  receives a per-task :class:`TaskReport` alongside the values.

:func:`serial_map` is the same map without the pool — the serial
scenario path and the fork-less fallback — under the same retry policy.

Tasks must be deterministic for retry to be sound — true of every
scenario tile here (all randomness comes from named RNG substreams),
which is also what makes a recovered run byte-identical to a
fault-free one.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.obs.trace import TRACER
from repro.robustness.errors import (
    CellTimeoutError,
    ScenarioConfigError,
    WorkerCrashError,
    is_retryable,
)

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "SupervisedResult",
    "TaskReport",
    "has_fork",
    "resolve_backoff",
    "resolve_retries",
    "resolve_timeout",
    "run_with_retry",
    "serial_map",
    "supervised_map",
]

#: Worker-level retry budget per task (beyond the first attempt).
DEFAULT_RETRIES = 2
#: Base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF = 0.25
#: Grace period between observing a worker's death and declaring a
#: crash, so a result already in the queue's pipe buffer can land.
_CRASH_GRACE = 0.5


def has_fork():
    """Whether this platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_timeout(timeout=None):
    """Per-task wall-clock budget: explicit arg, else ``REPRO_CELL_TIMEOUT``.

    Unset, empty, or ``<= 0`` means no timeout.
    """
    if timeout is None:
        raw = os.environ.get("REPRO_CELL_TIMEOUT", "").strip()
        if raw:
            try:
                timeout = float(raw)
            except ValueError as exc:
                raise ScenarioConfigError(
                    f"REPRO_CELL_TIMEOUT must be a number of seconds, got {raw!r}"
                ) from exc
    if timeout is not None and timeout <= 0:
        timeout = None
    return timeout


def resolve_retries(retries=None):
    """Retry budget per task: explicit arg, else ``REPRO_CELL_RETRIES``."""
    if retries is None:
        raw = os.environ.get("REPRO_CELL_RETRIES", "").strip()
        try:
            retries = int(raw) if raw else DEFAULT_RETRIES
        except ValueError as exc:
            raise ScenarioConfigError(
                f"REPRO_CELL_RETRIES must be an integer, got {raw!r}"
            ) from exc
    if retries < 0:
        raise ScenarioConfigError("retries must be >= 0")
    return int(retries)


def resolve_backoff(backoff=None):
    """Backoff base seconds: explicit arg, else ``REPRO_RETRY_BACKOFF``."""
    if backoff is None:
        raw = os.environ.get("REPRO_RETRY_BACKOFF", "").strip()
        try:
            backoff = float(raw) if raw else DEFAULT_BACKOFF
        except ValueError as exc:
            raise ScenarioConfigError(
                f"REPRO_RETRY_BACKOFF must be a number of seconds, got {raw!r}"
            ) from exc
    return max(0.0, float(backoff))


@dataclass
class TaskReport:
    """Supervision outcome of one task.

    ``status`` is one of ``ok`` (first attempt succeeded), ``recovered``
    (a retry succeeded in a worker), ``degraded`` (the serial parent
    fallback succeeded), or ``failed``; ``failures`` records every
    failed attempt's error string in order.
    """

    item: object
    label: str = ""
    status: str = "pending"
    attempts: int = 0
    duration: float = 0.0
    error: str = None
    failures: list = field(default_factory=list)


@dataclass
class SupervisedResult:
    """Values and per-task reports of one :func:`supervised_map`."""

    values: dict = field(default_factory=dict)  # item -> value (successes)
    reports: dict = field(default_factory=dict)  # item -> TaskReport

    @property
    def failed(self):
        """Items whose task permanently failed, in report order."""
        return [
            item for item, report in self.reports.items()
            if report.status == "failed"
        ]


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _supervisor_metrics():
    """The supervisor's counter families in the global registry."""
    registry = get_registry()
    return {
        "tasks": registry.counter(
            "repro_supervisor_tasks_total",
            "Supervised tasks by final status.",
            labels=("status",),
        ),
        "retries": registry.counter(
            "repro_supervisor_retries_total",
            "Task retries scheduled after a failed attempt.",
        ),
        "crashes": registry.counter(
            "repro_supervisor_crashes_total",
            "Workers that died before reporting a result.",
        ),
        "timeouts": registry.counter(
            "repro_supervisor_timeouts_total",
            "Workers killed for exceeding the wall-clock budget.",
        ),
    }


def _count_statuses(metrics, result):
    for report in result.reports.values():
        metrics["tasks"].labels(status=report.status).inc()


def _pending_result(items, labels):
    """A :class:`SupervisedResult` with one pending report per item."""
    labels = labels or {}
    return SupervisedResult(
        reports={
            item: TaskReport(item=item, label=str(labels.get(item, item)))
            for item in items
        },
    )


def run_with_retry(fn, retries=None, backoff=None, failures=None):
    """Run ``fn()`` with the supervisor's retry policy, in-process.

    The serial counterpart of a supervised worker: retryable exceptions
    (see :func:`~repro.robustness.errors.is_retryable`) are retried up
    to ``retries`` times with exponential backoff; anything else — and
    the final retryable failure — propagates.  Returns ``(value,
    attempts)``; ``failures`` (a list, when given) collects the error
    string of every failed attempt.
    """
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn(), attempt
        except Exception as exc:
            if failures is not None:
                failures.append(_describe(exc))
            if not is_retryable(exc) or attempt > retries:
                raise
            time.sleep(backoff * (2 ** (attempt - 1)))


def serial_map(fn, items, retries=None, backoff=None, labels=None,
               on_result=None):
    """Map ``fn`` over ``items`` in the calling process, one at a time.

    The fork-less twin of :func:`supervised_map`, with the same retry
    policy (:func:`run_with_retry`) and the same :class:`SupervisedResult`:
    a task that still fails after its retries is reported ``failed`` and
    the map moves on.  A :class:`~repro.robustness.errors.
    ScenarioConfigError` propagates instead — a usage error would fail
    every task the same way.  ``on_result(item, value)`` runs as each
    task completes.
    """
    items = list(items)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    result = _pending_result(items, labels)
    metrics = _supervisor_metrics()
    for item in items:
        report = result.reports[item]
        started = time.monotonic()
        try:
            value, attempts = run_with_retry(
                lambda item=item: fn(item),
                retries=retries,
                backoff=backoff,
                failures=report.failures,
            )
        except ScenarioConfigError:
            raise
        except Exception as exc:
            report.attempts = len(report.failures)
            report.status = "failed"
            report.error = _describe(exc)
        else:
            report.attempts = attempts
            report.status = "ok" if attempts == 1 else "recovered"
            result.values[item] = value
            if on_result is not None:
                on_result(item, value)
        if report.attempts > 1:
            metrics["retries"].inc(report.attempts - 1)
        report.duration = time.monotonic() - started
    _count_statuses(metrics, result)
    return result


def _child_run(fn, item, out_queue):
    """Worker body: report the value, or the error and its retryability.

    When tracing is enabled the worker also ships the spans it recorded:
    the fork copied the parent's span buffer *and* its open-span stack,
    so the child drops the inherited context (its spans must root at the
    task, not under a span the parent closes independently) and sends
    only spans recorded past the fork point.  The parent re-attaches
    them under the span that was open when the map was entered.
    """
    tracing = TRACER.enabled
    if tracing:
        TRACER.reset_context()
        baseline = TRACER.mark()
    try:
        value = fn(item)
    except BaseException as exc:
        spans = TRACER.take_since(baseline) if tracing else None
        out_queue.put((item, "error", _describe(exc), is_retryable(exc), spans))
    else:
        spans = TRACER.take_since(baseline) if tracing else None
        out_queue.put((item, "ok", value, spans))


def supervised_map(fn, items, workers, timeout=None, retries=None,
                   backoff=None, labels=None, on_result=None):
    """Map ``fn`` over ``items`` under crash/timeout/retry supervision.

    Parameters
    ----------
    fn:
        ``item -> value``.  Crosses to workers via fork (never pickled),
        so closures over models are fine; values cross back via a queue
        and must pickle.  Must be deterministic per item — a retried
        task re-executes from scratch.
    items:
        Hashable task identities (typically grid indices), in order.
    workers:
        Maximum concurrently running worker processes.
    timeout / retries / backoff:
        Supervision knobs; default to ``REPRO_CELL_TIMEOUT`` /
        ``REPRO_CELL_RETRIES`` / ``REPRO_RETRY_BACKOFF``.
    labels:
        Optional ``item -> str`` mapping for reports.
    on_result:
        Optional ``(item, value)`` callback, invoked in the parent as
        each task completes — the checkpoint hook.

    Returns
    -------
    SupervisedResult
        ``values`` holds every successful item; failed items are absent
        from ``values`` and carry ``status == "failed"`` in ``reports``.
    """
    items = list(items)
    workers = max(1, int(workers))
    timeout = resolve_timeout(timeout)
    if not has_fork():
        # The payload crosses to workers via fork (closures over models
        # never pickle), so a fork-less platform cannot run the pool at
        # all: degrade to the serial parent loop with the same retry
        # policy rather than crash in get_context("fork").
        warnings.warn(
            "supervised_map needs the fork start method; running "
            f"{len(items)} task(s) serially in the parent",
            RuntimeWarning,
            stacklevel=2,
        )
        return serial_map(fn, items, retries=retries, backoff=backoff,
                          labels=labels, on_result=on_result)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    result = _pending_result(items, labels)
    metrics = _supervisor_metrics()
    # Worker spans re-attach under the span open at map entry (the cell
    # span in the orchestrator) so traces nest across the fork boundary.
    adopt_parent = TRACER.current_span_id() if TRACER.enabled else None

    def adopt_spans(spans):
        if TRACER.enabled and spans:
            TRACER.adopt(spans, parent=adopt_parent)

    ctx = multiprocessing.get_context("fork")
    out_queue = ctx.Queue()
    pending = deque((item, 1, 0.0) for item in items)  # (item, attempt, not_before)
    running = {}  # item -> [proc, deadline, attempt, started, dead_since]
    degrade = []  # retry budget exhausted -> serial parent fallback

    def succeed(item, value, attempt, started):
        report = result.reports[item]
        report.attempts = attempt
        report.status = "ok" if attempt == 1 else "recovered"
        report.duration = time.monotonic() - started
        result.values[item] = value
        if on_result is not None:
            on_result(item, value)

    def fail_attempt(item, attempt, error, retryable):
        report = result.reports[item]
        report.attempts = attempt
        report.failures.append(error)
        if retryable and attempt <= retries:
            metrics["retries"].inc()
            delay = backoff * (2 ** (attempt - 1))
            pending.append((item, attempt + 1, time.monotonic() + delay))
        elif retryable:
            # Exhausted worker retries: re-execute serially in the
            # parent (unsupervised, so no timeout applies) before
            # declaring the task failed.
            degrade.append(item)
        else:
            report.status = "failed"
            report.error = error

    try:
        while pending or running:
            now = time.monotonic()
            for _ in range(len(pending)):
                if len(running) >= workers:
                    break
                if pending[0][2] > now:
                    pending.rotate(-1)
                    continue
                item, attempt, _ = pending.popleft()
                proc = ctx.Process(
                    target=_child_run, args=(fn, item, out_queue), daemon=True
                )
                started = time.monotonic()
                proc.start()
                deadline = None if timeout is None else started + timeout
                running[item] = [proc, deadline, attempt, started, None]

            try:
                message = out_queue.get(timeout=0.05)
            except queue_mod.Empty:
                message = None
            if message is not None:
                item = message[0]
                entry = running.pop(item, None)
                if entry is None:
                    continue  # stale report from a just-killed worker
                proc, _, attempt, started, _ = entry
                proc.join()
                if message[1] == "ok":
                    adopt_spans(message[3] if len(message) > 3 else None)
                    succeed(item, message[2], attempt, started)
                else:
                    adopt_spans(message[4] if len(message) > 4 else None)
                    fail_attempt(item, attempt, message[2], message[3])
                continue  # drain eagerly before liveness checks

            now = time.monotonic()
            for item in list(running):
                proc, deadline, attempt, started, dead_since = running[item]
                if deadline is not None and proc.is_alive() and now >= deadline:
                    proc.kill()
                    proc.join()
                    running.pop(item)
                    metrics["timeouts"].inc()
                    error = CellTimeoutError(
                        f"task exceeded {timeout:g}s wall-clock budget "
                        "and was killed"
                    )
                    fail_attempt(item, attempt, _describe(error),
                                 is_retryable(error))
                elif not proc.is_alive():
                    if dead_since is None:
                        running[item][4] = now
                    elif now - dead_since > _CRASH_GRACE:
                        # Dead, and the grace window for an in-flight
                        # result has passed: this worker crashed.
                        proc.join()
                        running.pop(item)
                        code = proc.exitcode
                        metrics["crashes"].inc()
                        cause = (f"signal {-code}" if code and code < 0
                                 else f"status {code}")
                        error = WorkerCrashError(
                            f"worker exited with {cause} before reporting "
                            "a result"
                        )
                        fail_attempt(item, attempt, _describe(error),
                                     is_retryable(error))
    finally:
        for proc, *_ in running.values():
            if proc.is_alive():
                proc.kill()
            proc.join()
        out_queue.close()

    for item in degrade:
        report = result.reports[item]
        started = time.monotonic()
        report.attempts += 1
        try:
            value = fn(item)
        except Exception as exc:
            report.failures.append(_describe(exc))
            report.status = "failed"
            report.error = _describe(exc)
        else:
            report.status = "degraded"
            report.duration = time.monotonic() - started
            result.values[item] = value
            if on_result is not None:
                on_result(item, value)
    _count_statuses(metrics, result)
    return result
