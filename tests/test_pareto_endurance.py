"""Iso-accuracy speedups (the paper's headline metric) and endurance wear."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import EnduranceModel, EnduranceObserver
from repro.core.pareto import nwc_to_reach, speedup_at_iso_accuracy, speedup_table


# ----------------------------------------------------------------- pareto

def test_nwc_to_reach_interpolates():
    nwc = [0.0, 0.1, 0.5, 1.0]
    acc = [0.80, 0.90, 0.95, 0.95]
    assert nwc_to_reach(nwc, acc, 0.90) == pytest.approx(0.1)
    # Halfway between 0.90 and 0.95 -> halfway between 0.1 and 0.5.
    assert nwc_to_reach(nwc, acc, 0.925) == pytest.approx(0.3)
    assert nwc_to_reach(nwc, acc, 0.80) == 0.0
    assert nwc_to_reach(nwc, acc, 0.99) is None


def test_nwc_to_reach_unsorted_input():
    assert nwc_to_reach([1.0, 0.0, 0.5], [0.95, 0.8, 0.9], 0.9) == pytest.approx(0.5)


def test_nwc_to_reach_validates():
    with pytest.raises(ValueError):
        nwc_to_reach([0, 1], [0.5], 0.4)


def test_speedup_reproduces_paper_style_numbers():
    """SWIM reaching target at 0.1 vs Random at 0.9 -> the paper's 9x."""
    swim_nwc, swim_acc = [0.0, 0.1, 1.0], [0.9, 0.98, 0.985]
    rand_nwc, rand_acc = [0.0, 0.5, 0.9, 1.0], [0.9, 0.95, 0.98, 0.985]
    speedup = speedup_at_iso_accuracy(swim_nwc, swim_acc, rand_nwc, rand_acc,
                                      target=0.98)
    assert speedup == pytest.approx(9.0)


def test_speedup_handles_unreachable_and_zero():
    assert speedup_at_iso_accuracy([0, 1], [0.5, 0.6], [0, 1], [0.5, 0.55],
                                   target=0.9) is None
    assert speedup_at_iso_accuracy([0, 1], [0.95, 0.99], [0, 1], [0.5, 0.95],
                                   target=0.9) == float("inf")


def test_speedup_table_from_sweep_outcome():
    from repro.experiments.sweeps import MethodCurve, SweepOutcome

    outcome = SweepOutcome(workload="w", sigma=0.1, clean_accuracy=0.99,
                           nwc_targets=(0.0, 0.1, 1.0))
    outcome.curves["swim"] = MethodCurve(
        method="swim", nwc_targets=(0.0, 0.1, 1.0),
        accuracy_runs=np.array([[0.9, 0.98, 0.985]]),
        nwc_runs=np.array([[0.0, 0.1, 1.0]]),
    )
    outcome.curves["random"] = MethodCurve(
        method="random", nwc_targets=(0.0, 0.1, 1.0),
        accuracy_runs=np.array([[0.9, 0.91, 0.985]]),
        nwc_runs=np.array([[0.0, 0.1, 1.0]]),
    )
    rows = speedup_table(outcome, targets=[0.98])
    target, speedups = rows[0]
    assert target == 0.98
    assert speedups["random"] == pytest.approx(
        nwc_to_reach([0.0, 0.1, 1.0], [0.9, 0.91, 0.985], 0.98) / 0.1
    )


# -------------------------------------------------------------- endurance

def _wear(cycles, model=None):
    """Wear summary of one session that verified with ``cycles``."""
    observer = EnduranceObserver(model)
    observer.observe("w", cycles)
    return observer.summary()


def test_wear_report_counts_initial_write():
    report = _wear(np.array([0, 5, 20]), EnduranceModel(endurance_cycles=1000))
    assert report["total_pulses"] == 3 + 25
    assert report["max_pulses_per_device"] == 21
    assert report["deployments_to_failure"] == pytest.approx(1000 / 21)


def test_endurance_validation():
    with pytest.raises(ValueError):
        EnduranceModel(endurance_cycles=0)


def test_wear_from_accelerator_cycles(trained_lenet):
    """End to end: SWIM's 10% selection cuts mean wear several-fold."""
    from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
    from repro.utils.rng import RngStream

    model, data, _ = trained_lenet
    accelerator = CimAccelerator(
        model,
        mapping_config=MappingConfig(weight_bits=4,
                                     device=DeviceConfig(bits=4, sigma=0.1)),
    )
    rng = RngStream(808)
    accelerator.program(rng.child("p").generator)
    verified = accelerator.write_verify_all(rng.child("wv").generator)
    cycles = np.concatenate([
        r.cycles.sum(axis=0).reshape(-1) for r in verified.values()
    ])
    mask = np.zeros(cycles.size, dtype=bool)
    mask[: cycles.size // 10] = True
    full = _wear(cycles)
    selective = _wear(np.where(mask, cycles, 0))
    lifetime_gain = (
        full["mean_pulses_per_device"] / selective["mean_pulses_per_device"]
    )
    assert lifetime_gain > 2.0
    accelerator.clear()
