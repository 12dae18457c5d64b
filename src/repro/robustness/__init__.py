"""Fault tolerance for scenario execution: the reliability substrate.

Long multi-configuration simulation campaigns fail for infrastructure
reasons — a truncated cache artifact, an OOM-killed fork worker, a hung
cell — far more often than for physics reasons.  This package makes
those failures survivable and *testable*:

- :mod:`~repro.robustness.errors` — a retryable-vs-fatal exception
  taxonomy with per-family CLI exit codes;
- :mod:`~repro.robustness.supervisor` — :func:`supervised_map`, the
  crash/timeout/retry-aware replacement for ``Pool.map`` that runs
  every scenario's tiles, and :func:`serial_map`, the same map and
  retry policy in-process for serial runs;
- :mod:`~repro.robustness.scheduler` — the work-rectangle scheduler:
  worker-count resolution (``--workers`` / ``REPRO_WORKERS``, the one
  worker knob) and the worker-count independent (cells x trial-blocks)
  tile decomposition every scenario run schedules onto one
  :func:`supervised_map` pool;
- :mod:`~repro.robustness.checkpoint` — sweep-outcome serialization so
  evaluation tiles persist as content-addressed artifacts and warm
  reruns (including reruns after a crash) skip them byte-identically
  (:func:`merge_outcomes` reassembles tiles exactly);
- :mod:`~repro.robustness.report` — structured run reports (what ran,
  what recovered, what failed) behind the CLI summary and exit codes;
- :mod:`~repro.robustness.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS``) that drives all of the above in tests, CI
  chaos runs, and benchmarks.
"""

from repro.robustness.checkpoint import (
    decode_outcome,
    encode_outcome,
    merge_outcomes,
    merge_wear,
)
from repro.robustness.errors import (
    CacheCorruptionError,
    CacheWriteError,
    CellTimeoutError,
    FatalError,
    PartialGridError,
    ReproError,
    RetryableError,
    ScenarioConfigError,
    TransientFaultError,
    WorkerCrashError,
    is_retryable,
)
from repro.robustness.faults import (
    FaultEntry,
    FaultSchedule,
    active_schedule,
    parse_faults,
)
from repro.robustness.report import (
    CellRecord,
    RunReport,
    cache_eventful,
    render_cache_stats,
)
from repro.robustness.scheduler import (
    Tile,
    auto_workers,
    resolve_workers,
    tile_ranges,
)
from repro.robustness.supervisor import (
    SupervisedResult,
    TaskReport,
    has_fork,
    resolve_backoff,
    resolve_retries,
    resolve_timeout,
    run_with_retry,
    serial_map,
    supervised_map,
)

__all__ = [
    "CacheCorruptionError",
    "CacheWriteError",
    "CellRecord",
    "CellTimeoutError",
    "FatalError",
    "FaultEntry",
    "FaultSchedule",
    "PartialGridError",
    "ReproError",
    "RetryableError",
    "RunReport",
    "ScenarioConfigError",
    "SupervisedResult",
    "TaskReport",
    "Tile",
    "TransientFaultError",
    "WorkerCrashError",
    "active_schedule",
    "auto_workers",
    "cache_eventful",
    "decode_outcome",
    "encode_outcome",
    "has_fork",
    "is_retryable",
    "merge_outcomes",
    "merge_wear",
    "parse_faults",
    "render_cache_stats",
    "resolve_backoff",
    "resolve_retries",
    "resolve_timeout",
    "resolve_workers",
    "run_with_retry",
    "serial_map",
    "supervised_map",
]
