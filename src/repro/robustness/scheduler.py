"""The work-rectangle scheduler: one worker pool for cells x trials.

Every scenario run is a **work rectangle**: the grid's cells on one
side, each cell's Monte Carlo trials on the other.  :func:`tile_ranges`
decomposes each cell's trial axis into *tiles* — contiguous runs of
whole Monte Carlo trial blocks (see :func:`~repro.core.mc.
default_trial_block`; the batched verify stage draws one RNG per
block, keyed on the block's first trial, so only block-aligned splits
are bitwise-identical to an unsplit run) — and the resulting flat tile
list is packed onto **one** supervised fork pool
(:func:`~repro.robustness.supervisor.supervised_map`; no second
supervision path), sized by :func:`resolve_workers`: ``workers`` /
``REPRO_WORKERS`` is the one worker knob of the program — total
concurrent worker processes, ``0`` meaning auto-size to the detected
core count (:func:`auto_workers`).  The plan service has no such knob:
each of its engines resolves on one thread.

Tile boundaries are a pure function of the cell's trial count and the
trial-block width — never of the worker count — so a tile's
content-addressed cache key is stable across serial and ``--workers N``
invocations, which is what makes warm reruns incremental (only changed
cells/blocks recompute) and still byte-identical to a cold serial run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.robustness.errors import ScenarioConfigError

__all__ = [
    "DEFAULT_TILES_PER_CELL",
    "Tile",
    "auto_workers",
    "resolve_workers",
    "tile_ranges",
]


#: Upper bound on tiles per cell: enough grain to saturate a many-core
#: box on a handful of cells, without paying per-tile setup (accelerator
#: mapping, fork) for every single trial block.  Part of the tile cache
#: key's geometry — change it and warm reruns re-tile (and therefore
#: recompute).
DEFAULT_TILES_PER_CELL = 8


def auto_workers():
    """The machine's usable core count.

    ``len(os.sched_getaffinity(0))`` respects cgroup/CPU-set limits
    (what a containerized CI run can actually use); platforms without
    it fall back to ``os.cpu_count()``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers=None):
    """Resolve the rectangle's worker count: arg, else ``REPRO_WORKERS``.

    Unset or empty means "not requested": the result is ``None`` and
    the caller runs serially (parallelism stays opt-in).  ``0`` — from
    either source — means auto-size to the core count
    (:func:`auto_workers`); negative values raise
    :class:`~repro.robustness.errors.ScenarioConfigError`.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return None
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ScenarioConfigError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from exc
    workers = int(workers)
    if workers < 0:
        raise ScenarioConfigError(
            "workers must be >= 1, or 0 to auto-size to the core count"
        )
    if workers == 0:
        return auto_workers()
    return workers


@dataclass(frozen=True)
class Tile:
    """One rectangle tile: trials ``[start, stop)`` of cell ``cell``."""

    cell: int
    start: int
    stop: int


def tile_ranges(n_trials, block):
    """Deterministic tile boundaries for one cell's trial axis.

    Every tile is a contiguous run of whole trial blocks starting at a
    multiple of ``block`` — the alignment the batched verify stream
    requires for bitwise identity — and a cell splits into at most
    :data:`DEFAULT_TILES_PER_CELL` tiles.  The decomposition depends
    only on ``(n_trials, block)``, never on the worker count, so the
    same cell always yields the same tiles (and the same tile cache
    keys) no matter how — or whether — the run is parallelized.
    """
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    block = max(1, int(block))
    n_blocks = -(-n_trials // block)  # ceil
    per_tile = -(-n_blocks // DEFAULT_TILES_PER_CELL)
    span = per_tile * block
    return [
        (start, min(start + span, n_trials))
        for start in range(0, n_trials, span)
    ]
