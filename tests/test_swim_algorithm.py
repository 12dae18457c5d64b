"""Algorithm 1 and the NWC sweep: end-to-end behaviour on a trained model.

The sweep tests drive :func:`~repro.experiments.sweeps.run_method_sweep`
(the one Monte Carlo sweep), with plans resolved by a
:class:`~repro.plan.PlanEngine`; Algorithm 1 verifies from the trial's
own stream, so its test compares it with the per-trial reference
(``tests/helpers.py::scalar_sweep``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
from repro.core import (
    MagnitudeScorer,
    RandomScorer,
    SwimConfig,
    SwimScorer,
    selective_write_verify,
)
from repro.core.metrics import evaluate_accuracy_trials
from repro.experiments.ablations import (
    DELTA_A,
    EVAL_SAMPLES,
    SENSE_SAMPLES,
    ablation_cells,
    algorithm1_stop,
)
from repro.experiments.sweeps import run_method_sweep
from repro.plan import PlanArtifactCache, PlanEngine
from repro.utils.rng import RngStream

from .helpers import deployed_weights, plan_for, scalar_sweep


@pytest.fixture
def mapped(trained_lenet):
    model, data, clean = trained_lenet
    config = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.15))
    accelerator = CimAccelerator(model, mapping_config=config)
    yield model, data, clean, accelerator
    accelerator.clear()


def test_swim_config_validation():
    with pytest.raises(ValueError, match="delta_a"):
        SwimConfig(delta_a=-1)
    with pytest.raises(ValueError, match="granularity"):
        SwimConfig(granularity=0.0)


def test_algorithm1_meets_target_with_partial_selection(mapped):
    model, data, clean, accelerator = mapped
    rng = RngStream(10)
    result = selective_write_verify(
        model,
        accelerator,
        SwimScorer(max_batches=2),
        data.test_x[:200],
        data.test_y[:200],
        baseline_accuracy=clean,
        config=SwimConfig(delta_a=0.02, granularity=0.05),
        rng=rng,
        sense_x=data.train_x[:256],
        sense_y=data.train_y[:256],
    )
    assert result.met_target
    assert result.selected_fraction < 1.0
    assert 0.0 <= result.achieved_nwc <= 1.0
    assert len(result.accuracy_history) == len(result.nwc_history)


def test_algorithm1_requires_rng(mapped):
    model, data, clean, accelerator = mapped
    with pytest.raises(ValueError, match="rng"):
        selective_write_verify(
            model, accelerator, SwimScorer(), data.test_x, data.test_y,
            baseline_accuracy=clean,
        )


def test_algorithm1_nwc_history_monotone(mapped):
    model, data, clean, accelerator = mapped
    rng = RngStream(11)
    result = selective_write_verify(
        model,
        accelerator,
        RandomScorer(),
        data.test_x[:200],
        data.test_y[:200],
        baseline_accuracy=clean,
        config=SwimConfig(delta_a=0.01, granularity=0.1),
        rng=rng,
    )
    assert all(b >= a for a, b in zip(result.nwc_history, result.nwc_history[1:]))


def test_algorithm1_impossible_target_verifies_everything(mapped):
    """delta_a = -0.1 can never be met -> loop exhausts all groups."""
    model, data, clean, accelerator = mapped
    rng = RngStream(12)
    config = SwimConfig.__new__(SwimConfig)  # bypass validation for the probe
    object.__setattr__(config, "delta_a", 0.0)
    object.__setattr__(config, "granularity", 0.25)
    object.__setattr__(config, "eval_batch_size", 256)
    result = selective_write_verify(
        model, accelerator, SwimScorer(max_batches=1),
        data.test_x[:100], data.test_y[:100],
        baseline_accuracy=1.01,  # unreachable accuracy
        config=config, rng=rng,
    )
    assert result.selected_fraction == pytest.approx(1.0)
    assert not result.met_target


def _sweep(mini_zoo, methods, targets, mc_runs, seed, eval_samples=400,
           sense_samples=512, curvature_batches=2):
    """The Monte Carlo sweep at the ``mapped`` fixture's sigma."""
    plan = plan_for(mini_zoo, sense_samples=sense_samples, sigma=0.15,
                    nwc_targets=targets, methods=methods,
                    curvature_batches=curvature_batches)
    return run_method_sweep(
        mini_zoo, plan, mc_runs=mc_runs, rng=RngStream(seed).child("sweep"),
        eval_samples=eval_samples,
    )


def test_sweep_endpoints_match_apply_none_and_all(mini_zoo, mapped):
    targets = (0.0, 1.0)
    outcome = _sweep(mini_zoo, ("swim",), targets, mc_runs=3, seed=13,
                     eval_samples=200, sense_samples=128,
                     curvature_batches=1)
    curve = outcome.curve("swim")
    np.testing.assert_array_equal(curve.achieved_nwc, [0.0, 1.0])
    # NWC=1.0 must match the fully verified deployment of the same
    # draws: block 0 (trials 0 and 1), verified from its shared stream.
    model, data, clean, accelerator = mapped
    root = RngStream(13).child("sweep")
    accelerator.program_trials(
        [root.child("mc", trial).child("program").generator
         for trial in (0, 1)]
    )
    accelerator.write_verify_trials(root.child("verify-batch", 0).generator)
    accelerator.apply_selection_trials({
        name: np.ones(m.codes.shape, dtype=bool)
        for name, m in accelerator.map_model().items()
    })
    full = evaluate_accuracy_trials(
        model, data.test_x[:200], data.test_y[:200], 2
    )
    np.testing.assert_array_equal(curve.accuracy_runs[:2, 1], full)
    # Write-verify must not hurt on average: full verify >= no verify.
    means = curve.means()
    assert means[1] >= means[0] - 0.02


def test_sweep_achieved_nwc_tracks_targets(mini_zoo):
    targets = (0.0, 0.25, 0.5, 0.75, 1.0)
    outcome = _sweep(mini_zoo, ("random",), targets, mc_runs=1, seed=14,
                     eval_samples=100)
    # Random selection: cycle share ~ weight share.
    np.testing.assert_allclose(
        outcome.curve("random").achieved_nwc, targets, atol=0.08
    )


def test_swim_beats_random_at_low_nwc(mini_zoo):
    """The headline claim, averaged over a few paired Monte Carlo draws."""
    outcome = _sweep(mini_zoo, ("swim", "random"), (0.1,), mc_runs=4,
                     seed=15, eval_samples=200, sense_samples=256,
                     curvature_batches=2)
    swim = outcome.curve("swim").means()[0]
    random = outcome.curve("random").means()[0]
    assert swim > random + 0.01


def test_failed_sweep_leaves_no_weights_deployed(mini_zoo, monkeypatch):
    """A tile that fails mid-sweep must not leave its noisy weights on
    the model that the next plan ranks."""
    import repro.experiments.sweeps as sweeps

    def fail(*args, **kwargs):
        raise RuntimeError("tile failed")

    monkeypatch.setattr(sweeps, "evaluate_accuracy_trials", fail)
    plan = plan_for(mini_zoo, sense_samples=128, sigma=0.1,
                    methods=("swim",), nwc_targets=(0.1,),
                    curvature_batches=1)
    with pytest.raises(RuntimeError, match="tile failed"):
        run_method_sweep(mini_zoo, plan, mc_runs=1, rng=RngStream(17),
                         eval_samples=50)
    deployed = deployed_weights(CimAccelerator(mini_zoo.model))
    assert all(weights is None for weights in deployed.values())


def test_overrides_do_not_touch_ideal_weights(mapped):
    model, data, clean, accelerator = mapped
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    rng = RngStream(16)
    selective_write_verify(
        model, accelerator, MagnitudeScorer(),
        data.test_x[:100], data.test_y[:100],
        baseline_accuracy=clean,
        config=SwimConfig(delta_a=0.05, granularity=0.2),
        rng=rng,
    )
    accelerator.clear()
    for name, param in model.named_parameters():
        np.testing.assert_array_equal(param.data, before[name])


def test_granularity_cell_is_algorithm1(mini_zoo):
    """Algorithm 1 deploys exactly the budgets of a granularity cell, so
    the cell's curve on the per-trial reference, which verifies from
    the trial's own stream as Algorithm 1 does, is Algorithm 1's
    accuracy and NWC history up to the point where it stops.

    The target is the draw's fully verified accuracy (this 4-bit LeNet
    never comes within 0.01 of its float accuracy), so both the study's
    delta_a and delta_a = 0 stop partway."""
    model, data = mini_zoo.model, mini_zoo.data
    engine = PlanEngine.from_zoo(
        mini_zoo, SENSE_SAMPLES, cache=PlanArtifactCache(disk=False)
    )
    stops = set()
    for cell in ablation_cells(mini_zoo)["granularity"]:
        plan = engine.plan(cell.request)
        curve = scalar_sweep(
            mini_zoo, plan, cell.mc_runs, cell.rng,
            eval_samples=EVAL_SAMPLES,
        ).curve("swim")
        accuracies = curve.accuracy_runs[0]
        accelerator = CimAccelerator(model, mapping_config=plan.resolve()[2])
        for delta_a in (DELTA_A, 0.0):
            result = selective_write_verify(
                model, accelerator,
                SwimScorer(batch_size=SENSE_SAMPLES, max_batches=2),
                data.test_x[:EVAL_SAMPLES], data.test_y[:EVAL_SAMPLES],
                baseline_accuracy=accuracies[-1],
                config=SwimConfig(delta_a=delta_a, granularity=cell.key[1]),
                rng=cell.rng.child("mc", 0),
                sense_x=data.train_x[:SENSE_SAMPLES],
                sense_y=data.train_y[:SENSE_SAMPLES],
            )
            stop = algorithm1_stop(accuracies, accuracies[-1], delta_a)
            assert result.accuracy_history == list(accuracies[:stop + 1]), (
                cell.key, delta_a
            )
            assert result.nwc_history == list(curve.achieved_nwc[:stop + 1])
            assert result.selected_fraction == plan.nwc_targets[stop]
            stops.add(stop / (len(accuracies) - 1))
        accelerator.clear()
    assert any(0 < stop < 1 for stop in stops), stops
