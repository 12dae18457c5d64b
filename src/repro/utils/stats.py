"""Statistical helpers used by the Monte Carlo experiment harness.

These are deliberately small, dependency-light implementations of the
aggregate statistics reported in the paper: mean +/- std over Monte Carlo
runs (Table 1, Fig. 2 shading) and Pearson correlation (Fig. 1b quotes a
coefficient of 0.83), with its rank form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MeanStd", "summarize", "pearson", "spearman"]


@dataclass(frozen=True)
class MeanStd:
    """A mean +/- std pair with sample count, formatted like the paper."""

    mean: float
    std: float
    n: int

    def __str__(self):
        return f"{self.mean:.2f} ± {self.std:.2f}"


def summarize(values):
    """Summarize a sequence of Monte Carlo results as :class:`MeanStd`.

    Uses the population std (ddof=0) as the paper's tables do not state a
    correction and run counts are large.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sequence")
    return MeanStd(mean=float(arr.mean()), std=float(arr.std()), n=int(arr.size))


def pearson(x, y):
    """Pearson correlation coefficient between two 1-D sequences.

    Returns 0.0 when either input is constant (correlation undefined),
    which is the conservative choice for sensitivity-metric comparisons.
    """
    ax = np.asarray(x, dtype=np.float64).ravel()
    ay = np.asarray(y, dtype=np.float64).ravel()
    if ax.shape != ay.shape:
        raise ValueError(f"shape mismatch: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise ValueError("need at least two points")
    sx = ax.std()
    sy = ay.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((ax - ax.mean()) * (ay - ay.mean())).mean() / (sx * sy))


def _rankdata(values):
    """Average-tie ranks (1-based), like scipy.stats.rankdata."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y):
    """Spearman rank correlation (Pearson on average-tie ranks)."""
    return pearson(_rankdata(x), _rankdata(y))
