"""Statistics and bookkeeping helpers shared by the workloads."""

from __future__ import annotations

import resource


def percentile(samples, p):
    """The ``p``-th percentile (0-100), linearly interpolated.

    The same rule as ``numpy.percentile``'s default: rank
    ``p/100 * (n - 1)`` between the two nearest order statistics.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples):
    return percentile(samples, 50)


def peak_rss(lines):
    """Peak RSS in MB of this process plus the largest child it has
    waited for; the split is appended to ``lines``.  Read it when the
    measured phase ends, before the correctness checks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    lines.append(f"peak RSS: this process {own:.1f} MB, largest child {child:.1f} MB")
    return own + child


class Tally:
    """Attempted and failed operations, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok
