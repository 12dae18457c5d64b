"""Work-rectangle scheduler: worker resolution and tile decomposition.

Pins the scheduler's contracts: ``0`` means "auto-size to the core
count" in every resolver, ``workers`` / ``REPRO_WORKERS`` is the one
worker knob, and tile boundaries are a pure function of (trial count,
block size) — never of the worker count — and always align to the
sweep's trial-block grid.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.mc import DEFAULT_MAX_FOLD, default_trial_block
from repro.core.metrics import EVAL_BATCH_SIZE
from repro.robustness import ScenarioConfigError
from repro.robustness.scheduler import (
    DEFAULT_TILES_PER_CELL,
    auto_workers,
    resolve_workers,
    tile_ranges,
)
from repro.utils.rng import RngStream

from .helpers import plan_for


class TestWorkerResolution:
    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback_and_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() is None
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_zero_means_auto_in_every_resolver(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)),
                            raising=False)
        assert auto_workers() == 6
        assert resolve_workers(0) == 6
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers() == 6

    def test_auto_workers_falls_back_to_cpu_count(self, monkeypatch):
        def unsupported(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", unsupported,
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert auto_workers() == 3

    def test_negative_is_a_config_error(self):
        with pytest.raises(ScenarioConfigError, match="workers"):
            resolve_workers(-1)

    def test_garbage_env_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ScenarioConfigError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_workers_knob_is_authoritative(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(workers=2) == 2
        assert resolve_workers() == 5

    def test_no_knob_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() is None


class TestTileRanges:
    def test_tiles_cover_the_trial_axis_exactly_once(self):
        ranges = tile_ranges(100, 2)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_tiles_align_to_the_block_grid(self):
        for start, stop in tile_ranges(100, 4):
            assert start % 4 == 0
            assert stop % 4 == 0 or stop == 100

    def test_default_heuristic_caps_tiles_per_cell(self):
        ranges = tile_ranges(3000, 2)
        assert len(ranges) <= DEFAULT_TILES_PER_CELL
        assert tile_ranges(2, 2) == [(0, 2)]

    def test_boundaries_independent_of_everything_but_inputs(self):
        assert tile_ranges(34, 2) == [
            (0, 6), (6, 12), (12, 18), (18, 24), (24, 30), (30, 34)]
        assert tile_ranges(1, 2) == [(0, 1)]
        with pytest.raises(ValueError):
            tile_ranges(0, 2)


def _window_sweep(zoo, mc_runs, trial_range=None):
    """The magnitude accuracy rows of one seeded sweep window."""
    from repro.experiments.sweeps import run_method_sweep

    plan = plan_for(zoo, sense_samples=64, sigma=0.1,
                    nwc_targets=(0.0, 0.5), methods=("magnitude",))
    outcome = run_method_sweep(
        zoo, plan, mc_runs=mc_runs, rng=RngStream(9).child("window"),
        eval_samples=32, trial_range=trial_range,
    )
    return outcome.curves["magnitude"].accuracy_runs


class TestEngineWindow:
    """The sweep's ``trial_range`` window: absolute trial indices and
    an absolute block grid, checked once at the top of the sweep."""

    def test_block_anchors_are_absolute_under_a_window(self, mini_zoo):
        # Blocks start at the window's (aligned) start and key their
        # shared verify stream on absolute trial indices, so a window
        # reproduces its rows of the full run, verified cells included.
        whole = _window_sweep(mini_zoo, 6)
        window = _window_sweep(mini_zoo, 6, trial_range=(2, 6))
        np.testing.assert_array_equal(window, whole[2:6])

    def test_window_validation(self, mini_zoo):
        with pytest.raises(ValueError, match="trial_range"):
            _window_sweep(mini_zoo, 4, trial_range=(2, 8))
        with pytest.raises(ValueError, match="trial_range"):
            _window_sweep(mini_zoo, 4, trial_range=(3, 3))
        with pytest.raises(ValueError, match="mc_runs"):
            _window_sweep(mini_zoo, 0)

    def test_default_trial_block_grain(self):
        assert default_trial_block() == DEFAULT_MAX_FOLD // EVAL_BATCH_SIZE
        assert default_trial_block() == 2
