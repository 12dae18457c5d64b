"""Structured exception taxonomy for fault-tolerant scenario execution.

Failure handling only composes when every layer agrees on one question:
*is this worth retrying?*  A truncated cache artifact is — the producer
can simply run again; a misconfigured scenario is not — retrying would
repeat the same error forever.  Every failure the robustness layer can
observe is expressed as a :class:`ReproError` subclass that answers the
question statically (:data:`RetryableError` vs :data:`FatalError`), so
the supervisor, the cache, and the CLI never pattern-match on message
strings.

The CLI half of the contract is ``exit_code``: each fatal family maps to
a distinct (sysexits-flavored) process exit code, so scripted callers
can tell a usage error from an I/O error from a partially failed grid
without parsing stderr.
"""

from __future__ import annotations

__all__ = [
    "CacheCorruptionError",
    "CacheWriteError",
    "CellTimeoutError",
    "FatalError",
    "PartialGridError",
    "ReproError",
    "RetryableError",
    "ScenarioConfigError",
    "TransientFaultError",
    "WorkerCrashError",
    "is_retryable",
]


class ReproError(Exception):
    """Base of the robustness taxonomy.

    Attributes
    ----------
    retryable:
        Whether re-running the failed operation can plausibly succeed.
    exit_code:
        The process exit code the CLI maps this failure family to.
    """

    retryable = False
    exit_code = 70  # EX_SOFTWARE


class RetryableError(ReproError):
    """A transient failure: the operation may succeed if re-run.

    The supervisor retries these (bounded, with exponential backoff)
    before degrading to serial re-execution; the cache retries producers
    that raise them.
    """

    retryable = True
    exit_code = 75  # EX_TEMPFAIL — only reached when retries are exhausted


class FatalError(ReproError):
    """A deterministic failure: re-running would fail identically."""

    retryable = False


class WorkerCrashError(RetryableError):
    """A pool worker died without reporting a result.

    Raised by the supervisor when a worker process exits nonzero (or is
    signal-killed) before delivering its task's value — an OOM kill, a
    segfault in a native extension, or an ``os._exit`` all look like
    this from the parent.  Retryable: the crash may be environmental
    (memory pressure), and a deterministic cell re-executes identically.
    """


class CellTimeoutError(RetryableError):
    """A supervised task exceeded its wall-clock budget and was killed."""


class TransientFaultError(RetryableError):
    """An injected (or genuinely transient) producer/cell exception.

    The fault-injection harness raises exactly this class, so recovery
    paths exercised under injection are the same ones that handle real
    transient failures.
    """


class CacheCorruptionError(RetryableError):
    """An on-disk artifact failed to load or failed its checksum.

    The cache quarantines the file and treats the lookup as a miss, so
    ``get_or_create`` transparently recomputes; this class exists for
    callers that probe ``get`` directly and want to distinguish "never
    existed" from "existed but was rotten".
    """


class ScenarioConfigError(FatalError, ValueError):
    """The requested run is misconfigured (conflicting flags, bad names).

    Also a :class:`ValueError` so pre-taxonomy callers that catch
    ``ValueError`` keep working.
    """

    exit_code = 64  # EX_USAGE


class CacheWriteError(FatalError, OSError):
    """The artifact cache cannot be written (unwritable ``REPRO_CACHE_DIR``).

    Also an :class:`OSError`: it wraps the underlying filesystem error.
    """

    exit_code = 74  # EX_IOERR


class PartialGridError(FatalError):
    """A scenario grid completed, but one or more cells permanently failed.

    The surviving cells' results are intact (and reported); this error
    carries the CLI's "the run is usable but incomplete" exit code.
    """

    exit_code = 75  # EX_TEMPFAIL


def is_retryable(exc):
    """Whether an exception is worth retrying.

    Taxonomy members answer for themselves; anything outside the
    taxonomy is conservatively treated as deterministic (not retryable)
    — transient failures must be *declared* transient to be retried.
    """
    return bool(getattr(exc, "retryable", False))
