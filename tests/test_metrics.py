"""The paper's NWC grid and reporting helpers."""

from __future__ import annotations

import os

from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments.reporting import results_dir


def test_default_targets_match_paper_columns():
    assert DEFAULT_NWC_TARGETS == (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def test_results_dir_env_override(tmp_path, monkeypatch):
    target = os.path.join(tmp_path, "outputs")
    monkeypatch.setenv("REPRO_RESULTS_DIR", target)
    path = results_dir()
    assert path == target
    assert os.path.isdir(path)


def test_results_dir_explicit_argument(tmp_path):
    target = os.path.join(tmp_path, "explicit")
    assert results_dir(target) == target
    assert os.path.isdir(target)
