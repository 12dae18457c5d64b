"""Utilities: RNG streams, statistics, tables, plots.

The artifact store under :func:`repro.utils.cache.default_cache_dir` is
:class:`repro.plan.cache.PlanArtifactCache`; ``tests/test_plan_cache.py``
and ``tests/test_robustness.py`` test it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.ascii_plot import line_plot, scatter_plot
from repro.utils.rng import RngStream, derive_seed
from repro.utils.stats import pearson, spearman, summarize
from repro.utils.tables import Table, format_table


# ------------------------------------------------------------------ rng

def test_same_path_same_stream():
    root = RngStream(7)
    a = root.child("x", 1).normal(size=4)
    b = RngStream(7).child("x", 1).normal(size=4)
    np.testing.assert_array_equal(a, b)


def test_different_paths_independent():
    root = RngStream(7)
    a = root.child("x", 1).normal(size=100)
    b = root.child("x", 2).normal(size=100)
    assert abs(pearson(a, b)) < 0.5


def test_child_unaffected_by_draw_order():
    root_a = RngStream(9)
    root_a.child("first").normal(size=10)  # consume some entropy
    late = root_a.child("target").normal(size=4)
    early = RngStream(9).child("target").normal(size=4)
    np.testing.assert_array_equal(late, early)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_child_requires_path():
    with pytest.raises(ValueError):
        RngStream(1).child()


# ---------------------------------------------------------------- stats

def test_summarize_basics():
    stat = summarize([1.0, 2.0, 3.0])
    assert stat.mean == pytest.approx(2.0)
    assert stat.n == 3
    assert "±" in str(stat)
    with pytest.raises(ValueError):
        summarize([])


def test_pearson_known_values():
    x = np.arange(10.0)
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    assert pearson(x, np.ones(10)) == 0.0


def test_spearman_monotone_invariance():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10000))
def test_pearson_bounds_property(seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=30)
    y = gen.normal(size=30)
    assert -1.0 - 1e-9 <= pearson(x, y) <= 1.0 + 1e-9


# ---------------------------------------------------------------- tables

def test_table_render_aligns():
    table = Table(["a", "bb"], title="T")
    table.add_row([1, "xyz"])
    table.add_separator()
    table.add_row(["22", "y"])
    text = table.render()
    assert "T" in text and "xyz" in text
    widths = {len(line) for line in text.splitlines()[2:]}
    assert len(widths) == 1  # all body lines equal width


def test_table_rejects_bad_row():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_format_helpers_direct():
    text = format_table(["h"], [["v"], None])
    assert "h" in text


# ----------------------------------------------------------------- plots

def test_line_plot_contains_markers():
    text = line_plot({"s1": ([0, 1, 2], [0, 1, 4]),
                      "s2": ([0, 1, 2], [4, 1, 0])},
                     width=40, height=10, title="demo")
    assert "demo" in text
    assert "legend" in text
    assert "o" in text and "x" in text


def test_scatter_plot_runs():
    text = scatter_plot([1, 2, 3], [3, 1, 2], width=30, height=8)
    assert "legend" in text


def test_line_plot_rejects_empty():
    with pytest.raises(ValueError):
        line_plot({})
