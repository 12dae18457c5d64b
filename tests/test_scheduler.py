"""Work-rectangle scheduler: worker resolution and tile decomposition.

Pins the scheduler's contracts: ``0`` means "auto-size to the core
count" in every resolver, ``workers`` / ``REPRO_WORKERS`` is the one
worker knob, and tile boundaries are a pure function of (trial count,
block size, tile height) — never of the worker count — and always align
to the engine's trial-block grid.
"""

from __future__ import annotations

import os

import pytest

from repro.core.mc import MonteCarloEngine, default_trial_block
from repro.robustness import ScenarioConfigError
from repro.robustness.scheduler import (
    DEFAULT_TILES_PER_CELL,
    Tile,
    auto_workers,
    resolve_tile_trials,
    resolve_worker_count,
    resolve_workers,
    tile_ranges,
)
from repro.utils.rng import RngStream


class TestWorkerResolution:
    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_worker_count(3, "REPRO_WORKERS", "workers") == 3

    def test_env_fallback_and_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_worker_count(None, "REPRO_WORKERS", "workers") is None
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_worker_count(None, "REPRO_WORKERS", "workers") == 5

    def test_zero_means_auto_in_every_resolver(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)),
                            raising=False)
        assert auto_workers() == 6
        assert resolve_worker_count(0, "REPRO_WORKERS", "workers") == 6
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
            resolve_worker_count(-1, "REPRO_WORKERS", "workers")

    def test_garbage_env_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ScenarioConfigError, match="REPRO_WORKERS"):
            resolve_worker_count(None, "REPRO_WORKERS", "workers")

    def test_workers_knob_is_authoritative(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(workers=2) == 2
        assert resolve_workers() == 5

    def test_no_knob_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() is None


class TestTileTrials:
    def test_arg_then_env_then_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TILE_TRIALS", raising=False)
        assert resolve_tile_trials() is None
        assert resolve_tile_trials(5) == 5
        monkeypatch.setenv("REPRO_TILE_TRIALS", "3")
        assert resolve_tile_trials() == 3

    def test_invalid_values_are_config_errors(self, monkeypatch):
        with pytest.raises(ScenarioConfigError, match="tile_trials"):
            resolve_tile_trials(0)
        monkeypatch.setenv("REPRO_TILE_TRIALS", "a few")
        with pytest.raises(ScenarioConfigError, match="REPRO_TILE_TRIALS"):
            resolve_tile_trials()


class TestTileRanges:
    def test_tiles_cover_the_trial_axis_exactly_once(self):
        ranges = tile_ranges(100, 2, tile_trials=16)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_tiles_align_to_the_block_grid(self):
        for start, stop in tile_ranges(100, 4, tile_trials=10):
            assert start % 4 == 0
            assert stop % 4 == 0 or stop == 100

    def test_tile_trials_rounds_up_to_whole_blocks(self):
        assert tile_ranges(8, 2, tile_trials=3) == [(0, 4), (4, 8)]

    def test_default_heuristic_caps_tiles_per_cell(self):
        ranges = tile_ranges(3000, 2)
        assert len(ranges) <= DEFAULT_TILES_PER_CELL
        assert tile_ranges(2, 2) == [(0, 2)]

    def test_boundaries_independent_of_everything_but_inputs(self):
        assert tile_ranges(10, 2, tile_trials=4) == [(0, 4), (4, 8), (8, 10)]
        assert tile_ranges(1, 2) == [(0, 1)]
        with pytest.raises(ValueError):
            tile_ranges(0, 2)

    def test_tile_carries_its_trial_count(self):
        tile = Tile(cell=3, start=4, stop=10)
        assert tile.trials == 6


class TestEngineWindow:
    def test_block_anchors_are_absolute_under_a_window(self):
        engine = MonteCarloEngine(8, RngStream(1), trial_range=(2, 6))
        assert engine.span == (2, 6)
        blocks = [b.tolist() for b in engine.blocks()]
        assert blocks == [[2, 3], [4, 5]]
        # A window that starts mid-block still anchors to the grid.
        offcut = MonteCarloEngine(8, RngStream(1), trial_range=(3, 6))
        assert [b.tolist() for b in offcut.blocks()] == [[3], [4, 5]]

    def test_substreams_use_absolute_trial_indices(self):
        whole = MonteCarloEngine(8, RngStream(9))
        window = MonteCarloEngine(8, RngStream(9), trial_range=(4, 6))
        assert window.substreams()[0].seed == whole.substream(4).seed

    def test_window_validation(self):
        with pytest.raises(ValueError, match="trial_range"):
            MonteCarloEngine(4, RngStream(1), trial_range=(2, 8))
        with pytest.raises(ValueError, match="trial_range"):
            MonteCarloEngine(4, RngStream(1), trial_range=(3, 3))

    def test_default_trial_block_grain(self):
        assert default_trial_block(256) == 2
        assert default_trial_block(4096) == 1
