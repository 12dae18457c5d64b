"""Experiment drivers: presets, zoo caching, sweep machinery (smoke scale)."""

from __future__ import annotations

import dataclasses
import os
import warnings

import numpy as np
import pytest

from repro.core.metrics import DEFAULT_NWC_TARGETS
from repro.experiments import model_zoo
from repro.experiments.config import SCALES, SMOKE, get_scale
from repro.experiments.model_zoo import build_data, build_model, load_workload
from repro.experiments.reporting import render_ablation, save_sweep_csv
from repro.experiments.sweeps import GridResult, run_grid, run_method_sweep
from repro.experiments.table1 import render_table1
from repro.utils.rng import RngStream

from .helpers import plan_for


def test_get_scale_resolution(monkeypatch):
    assert get_scale("smoke").name == "smoke"
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert get_scale().name == "smoke"
    with pytest.raises(KeyError, match="unknown scale"):
        get_scale("huge")


def test_presets_cover_all_workloads():
    keys = {"lenet-digits", "convnet-cifar", "resnet18-cifar", "resnet18-tiny"}
    for preset in SCALES.values():
        assert set(preset.workloads) == keys
    with pytest.raises(KeyError, match="unknown workload"):
        SMOKE.workload("alexnet")


def test_build_data_and_model_dispatch():
    spec = SMOKE.workload("lenet-digits")
    data = build_data(spec, RngStream(1).child("d"))
    assert data.train_x.shape[0] == spec.n_train
    model = build_model(spec, RngStream(1).child("m"))
    assert model.num_parameters() > 0


def test_zoo_cache_roundtrip(tmp_path, monkeypatch):
    """A stored model and split reload bit for bit, the split is built
    once per cache directory, and a truncated artifact of either kind
    heals."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    builds = []

    def counted(spec, rng):
        builds.append(spec.key)
        return build_data(spec, rng)

    monkeypatch.setattr(model_zoo, "build_data", counted)
    spec = _tiny_spec()
    first = load_workload(spec)
    second = load_workload(spec)  # hits cache
    assert len(builds) == 1
    assert second.clean_accuracy == first.clean_accuracy
    _assert_same_state(first.model, second.model)
    fresh = build_data(
        spec, RngStream(spec.seed).child("zoo", spec.key).child("data"))
    _assert_same_split(fresh, second.data)
    with pytest.raises(ValueError, match="read-only"):
        second.data.train_x[0, 0, 0, 0] = 0.0

    for kind, rebuilds in (("zoo", 0), ("data", 1)):
        # What a writer killed mid-flush leaves: the file cut to half.
        (path,) = (tmp_path / "plan" / "v2").glob(f"{kind}-*.npz")
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        before = len(builds)
        with pytest.warns(RuntimeWarning, match="quarantined") as caught:
            healed = load_workload(spec)
        assert _quarantines(caught) == 1
        assert len(builds) == before + rebuilds
        assert (tmp_path / "plan" / "v2" / f"{path.name}.corrupt").exists()
        assert healed.clean_accuracy == first.clean_accuracy
        _assert_same_state(first.model, healed.model)
        _assert_same_split(fresh, healed.data)


def test_corrupt_data_artifact_fault_fires_once_and_heals(tmp_path,
                                                          monkeypatch):
    """``corrupt:artifact@data`` truncates the stored split on its first
    read; the store quarantines it and rebuilds the same bytes."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = _tiny_spec()
    reference = load_workload(spec).data
    monkeypatch.setenv("REPRO_FAULTS", "corrupt:artifact@data")
    monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "ledger"))
    with pytest.warns(RuntimeWarning, match="quarantined") as caught:
        healed = load_workload(spec).data
    assert _quarantines(caught) == 1
    assert len(os.listdir(tmp_path / "ledger")) == 1
    store = tmp_path / "cache" / "plan" / "v2"
    assert len(list(store.glob("data-*.corrupt"))) == 1
    _assert_same_split(reference, healed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = load_workload(spec).data  # fired once: a clean hit
    assert _quarantines(caught) == 0
    _assert_same_split(reference, again)


def _tiny_spec():
    return dataclasses.replace(
        SMOKE.workload("lenet-digits"), n_train=160, n_test=64, epochs=2,
    )


def _quarantines(caught):
    return sum("quarantined" in str(record.message) for record in caught)


def _assert_same_split(split_a, split_b):
    for name in ("train_x", "train_y", "test_x", "test_y"):
        a, b = getattr(split_a, name), getattr(split_b, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    assert (split_a.num_classes, split_a.name) == (
        split_b.num_classes, split_b.name)


def _assert_same_state(model_a, model_b):
    state_a = model_a.state_dict()
    state_b = model_b.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


@pytest.fixture(scope="module")
def smoke_zoo():
    return load_workload(SMOKE.workload("lenet-digits"))


def test_method_sweep_shapes_and_endpoints(smoke_zoo):
    targets = (0.0, 0.2, 1.0)
    plan = plan_for(smoke_zoo, sense_samples=128, sigma=0.15,
                    nwc_targets=targets, methods=("swim", "random"))
    outcome = run_method_sweep(
        smoke_zoo, plan, mc_runs=2, rng=RngStream(3).child("sweep"),
        eval_samples=120,
    )
    assert set(outcome.curves) == {"swim", "random"}
    for curve in outcome.curves.values():
        assert curve.accuracy_runs.shape == (2, 3)
        assert curve.achieved_nwc[0] == 0.0
        assert curve.achieved_nwc[-1] == pytest.approx(1.0)
        assert np.all((0 <= curve.accuracy_runs) & (curve.accuracy_runs <= 1))
    # Same noise draw at NWC=1.0 -> identical accuracy across methods.
    np.testing.assert_allclose(
        outcome.curve("swim").accuracy_runs[:, -1],
        outcome.curve("random").accuracy_runs[:, -1],
    )


def test_method_sweep_insitu_row(smoke_zoo):
    plan = plan_for(smoke_zoo, sense_samples=128, sigma=0.15,
                    nwc_targets=(0.0, 0.3), methods=("insitu",))
    outcome = run_method_sweep(
        smoke_zoo, plan, mc_runs=1, rng=RngStream(4).child("sweep"),
        eval_samples=100, insitu_lr=0.01,
    )
    curve = outcome.curve("insitu")
    assert curve.accuracy_runs.shape == (1, 2)
    assert curve.achieved_nwc[1] > 0


def test_sweep_csv_round_trip(smoke_zoo, tmp_path):
    plan = plan_for(smoke_zoo, sense_samples=128, sigma=0.1,
                    nwc_targets=(0.0, 1.0), methods=("swim",))
    outcome = run_method_sweep(
        smoke_zoo, plan, mc_runs=1, rng=RngStream(5).child("sweep"),
        eval_samples=80,
    )
    path = save_sweep_csv(outcome, os.path.join(tmp_path, "out.csv"))
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0].startswith("workload,sigma,method")
    assert len(lines) == 1 + 2  # header + 2 targets x 1 method


def test_render_table1_layout(smoke_zoo):
    plan = plan_for(smoke_zoo, sense_samples=128, sigma=0.1,
                    nwc_targets=DEFAULT_NWC_TARGETS,
                    methods=("swim", "magnitude"))
    outcome = run_method_sweep(
        smoke_zoo, plan, mc_runs=1, rng=RngStream(6).child("sweep"),
        eval_samples=80,
    )
    result = GridResult(
        scenario="table1",
        workload=smoke_zoo.spec.key,
        clean_accuracy=smoke_zoo.clean_accuracy,
        nwc_targets=DEFAULT_NWC_TARGETS,
        outcomes={0.1: outcome},
        plans={0.1: plan},
    )
    text = render_table1(result)
    assert "SWIM" in text and "Magnitude" in text
    assert "NWC=0.1" in text


def test_empty_grid_is_an_empty_result(smoke_zoo):
    result = run_grid("empty", smoke_zoo, [], SMOKE)
    assert (result.outcomes, result.plans, result.nwc_targets) == ({}, {}, ())


def test_render_ablation_formats():
    from repro.experiments.ablations import AblationRow

    rows = [AblationRow(label="a", metrics={"x": 1.0, "y": 2}),
            AblationRow(label="b", metrics={"x": 3.5, "y": 4})]
    text = render_ablation(rows, title="demo")
    assert "demo" in text and "3.5" in text
    with pytest.raises(ValueError):
        render_ablation([], title="none")


@pytest.mark.slow
def test_retention_accepts_unregistered_technology():
    """A custom DeviceTechnology instance runs and renders end to end."""
    from repro.cim import DeviceTechnology
    from repro.experiments.retention import render_retention, run_retention

    custom = DeviceTechnology(
        name="lab-pcm", drift_nu=0.03, drift_sigma_nu=0.005
    )
    result = run_retention(
        SMOKE, technologies=(custom,), times=(1.0, 3.6e3), methods=("swim",)
    )
    assert {plan.technology.name for plan in result.plans.values()} == {
        "lab-pcm"
    }
    assert set(result.outcomes) == {("lab-pcm", 1.0), ("lab-pcm", 3.6e3)}
    text = render_retention(result)
    assert "Retention — lab-pcm" in text


def test_runner_cli_rejects_unknown():
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["definitely-not-an-experiment"])
