"""End-to-end pipeline integration: train -> map -> SWIM -> deploy -> age.

One test walks the full public API exactly as a downstream user would,
asserting cross-module invariants that unit tests cannot see (cycle
accounting consistency, override hygiene, accuracy ordering).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import (
    CimAccelerator,
    DeviceConfig,
    EnduranceModel,
    EnduranceObserver,
    MappingConfig,
)
from repro.core import (
    SwimConfig,
    SwimScorer,
    WeightSpace,
    evaluate_accuracy,
    nwc_to_reach,
    selective_write_verify,
)
from repro.utils.rng import RngStream


def test_full_pipeline(trained_lenet):
    model, data, clean = trained_lenet
    rng = RngStream(909).child("pipeline")
    mapping = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.15))
    accelerator = CimAccelerator(model, mapping_config=mapping)

    # 1. Algorithm 1 meets a 3% target with a partial selection.
    result = selective_write_verify(
        model, accelerator, SwimScorer(max_batches=2),
        data.test_x[:200], data.test_y[:200],
        baseline_accuracy=clean,
        config=SwimConfig(delta_a=0.03, granularity=0.05),
        rng=rng,
        sense_x=data.train_x[:256], sense_y=data.train_y[:256],
    )
    assert result.met_target
    assert 0.0 <= result.achieved_nwc <= 1.0

    # 2. Cycle accounting is self-consistent: the achieved NWC equals
    #    selected cycles over this run's total.  Algorithm 1 programs and
    #    verifies from these two substreams, so rerunning them rebuilds
    #    its device state and returns the per-device cycles.
    accelerator.program(rng.child("program").generator)
    verified = accelerator.write_verify_all(rng.child("verify").generator)
    cycles = {name: r.cycles.sum(axis=0) for name, r in verified.items()}
    total = accelerator.total_cycles()
    assert total == sum(int(c.sum()) for c in cycles.values())

    # 3. The NWC trace is exploitable by the pareto tools.
    reach = nwc_to_reach(result.nwc_history, result.accuracy_history,
                         clean - 0.03)
    assert reach is not None and reach <= result.achieved_nwc + 1e-9

    # 4. Wear reports are finite and sensible: selecting a subset never
    #    wears the average device more than verifying everything.
    flat_cycles = np.concatenate([c.reshape(-1) for c in cycles.values()])
    mask = np.zeros(flat_cycles.size, dtype=bool)
    mask[: int(result.selected_fraction * flat_cycles.size)] = True
    wear = {}
    for label, cycles_spent in (
        ("full", flat_cycles), ("selective", np.where(mask, flat_cycles, 0))
    ):
        observer = EnduranceObserver(EnduranceModel())
        observer.observe("weights", cycles_spent)
        wear[label] = observer.summary()["mean_pulses_per_device"]
    assert wear["full"] >= wear["selective"]

    # 5. Deployed accuracy ordering: none <= partial (SWIM) <= all, up to
    #    noise slack on a single draw.
    accelerator.apply_none()
    floor = evaluate_accuracy(model, data.test_x[:200], data.test_y[:200])
    accelerator.apply_all()
    ceiling = evaluate_accuracy(model, data.test_x[:200], data.test_y[:200])
    assert result.achieved_accuracy >= floor - 0.02
    assert result.achieved_accuracy <= ceiling + 0.02

    # 6. Clearing restores the float model exactly.
    accelerator.clear()
    restored = evaluate_accuracy(model, data.test_x[:200], data.test_y[:200])
    assert restored == pytest.approx(
        evaluate_accuracy(model, data.test_x[:200], data.test_y[:200])
    )
    for layer in accelerator._layers.values():
        assert layer.weight_override is None
