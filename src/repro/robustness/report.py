"""Structured run reports: what survived, what was retried, what failed.

A fault-tolerant grid run no longer has a binary outcome, so "it
printed a table" stops being evidence of health.  The orchestrator
records one :class:`CellRecord` per grid cell — executed, served from
the evaluation-tile cache, recovered after retries, degraded to the
serial fallback, or permanently failed — plus the cache's self-healing
counters, and the CLI renders the summary (and exits nonzero on partial
grids) from this report rather than from log archaeology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CellRecord", "RunReport", "cache_eventful", "render_cache_stats"]

#: Cache counters whose nonzero value means "something anomalous
#: happened" (rot healed, producers retried) — as opposed to ordinary
#: traffic counters (hits, misses, LRU evictions).
CACHE_EVENT_COUNTERS = ("quarantined", "producer_retries")


def cache_eventful(stats):
    """Whether a :meth:`~repro.plan.cache.PlanArtifactCache.stats` dict
    records anything beyond ordinary hit/miss traffic.

    The one shared predicate: :class:`RunReport`, the CLI, and the
    serving layer all consume the cache's ``stats()`` dict through this
    (and :func:`render_cache_stats`) instead of each re-deriving which
    counters matter.
    """
    return any(stats.get(counter, 0) for counter in CACHE_EVENT_COUNTERS)


#: Tier-hit keys folded into one leading ``hits=`` figure.
_HIT_TIER_KEYS = ("memory", "disk")

#: Keys always rendered (zero or not), in this order, after ``hits``.
_LEAD_KEYS = ("misses", "quarantined", "producer_retries")


def render_cache_stats(stats):
    """One-line human summary of a cache ``stats()`` dict.

    Generic over the dict — the headline counters render in a fixed
    order, and *every other* nonzero entry follows (sorted), so a
    counter added to the cache's registry once shows up here, on
    ``/statsz``, and on ``/metricsz`` without touching this function.
    """
    parts = [f"hits={sum(stats.get(key, 0) for key in _HIT_TIER_KEYS)}"]
    parts.extend(f"{key}={stats.get(key, 0)}" for key in _LEAD_KEYS)
    rendered = set(_HIT_TIER_KEYS) | set(_LEAD_KEYS)
    parts.extend(
        f"{key}={stats[key]}"
        for key in sorted(stats)
        if key not in rendered and stats[key]
    )
    return " ".join(parts)

#: Cell statuses in severity order (render order for anomalies).
#: ``cached`` means every evaluation tile of the cell was served from
#: the content-addressed eval cache (an incremental warm rerun).
STATUSES = ("ok", "cached", "recovered", "degraded", "failed")


@dataclass
class CellRecord:
    """Execution outcome of one scenario cell.

    ``tiles`` / ``tiles_cached`` describe the cell's work-rectangle
    decomposition: how many trial-window tiles it spanned and how many
    of them were served from the evaluation-artifact cache instead of
    recomputed.
    """

    key: object
    status: str  # one of STATUSES
    attempts: int = 1
    duration: float = 0.0
    error: str = None
    failures: list = field(default_factory=list)
    tiles: int = 1
    tiles_cached: int = 0


@dataclass
class RunReport:
    """One scenario run's robustness ledger."""

    scenario: str = ""
    cells: list = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    checkpoint_errors: int = 0
    tiles_total: int = 0
    tiles_cached: int = 0
    tiles_computed: int = 0

    def add(self, record):
        self.cells.append(record)
        return record

    def count(self, status):
        return sum(1 for cell in self.cells if cell.status == status)

    @property
    def failed(self):
        """Permanently failed cells, in grid order."""
        return [cell for cell in self.cells if cell.status == "failed"]

    @property
    def eventful(self):
        """Whether anything beyond clean first-attempt execution happened."""
        return (
            any(cell.status != "ok" for cell in self.cells)
            or self.checkpoint_errors > 0
            or cache_eventful(self.cache)
        )

    def render(self):
        """Human summary: one counts line, one line per anomalous cell."""
        counts = " ".join(
            f"{status}={self.count(status)}" for status in STATUSES
        )
        tiles = ""
        if self.tiles_total:
            tiles = (
                f" | tiles: total={self.tiles_total}"
                f" cached={self.tiles_cached}"
                f" computed={self.tiles_computed}"
            )
        cache = ""
        if self.cache:
            cache = f" | cache: {render_cache_stats(self.cache)}"
        checkpoint = (
            f" checkpoint_errors={self.checkpoint_errors}"
            if self.checkpoint_errors else ""
        )
        lines = [
            f"[robustness] {self.scenario or 'run'}: cells={len(self.cells)} "
            f"{counts}{tiles}{cache}{checkpoint}"
        ]
        for cell in self.cells:
            if cell.status == "ok":
                continue
            detail = f"  cell {cell.key!r}: {cell.status}"
            if cell.attempts > 1:
                detail += f" after {cell.attempts} attempts"
            if cell.failures:
                detail += f" ({'; '.join(cell.failures)})"
            lines.append(detail)
        return "\n".join(lines)
