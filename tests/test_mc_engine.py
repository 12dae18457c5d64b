"""Trial-batched Monte Carlo stages: seeded equivalence with the scalar path.

The batched stages must reproduce the scalar protocol's physics — same
per-trial programming draws (bitwise), same write-verify statistics
(mean cycles ~10, residual sigma ~0.03-0.05 full-scale at the paper's
operating point) — while stacking all trials on one leading axis.  The
whole sweep's gates against the per-trial reference
(``tests/helpers.py::scalar_sweep``) are
``test_device_stack.py::test_sweep_batched_matches_scalar_for_every_technology``
and :func:`test_engine_blocks_cover_all_trials`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
from repro.cim.write_verify import (
    WriteVerifyConfig,
    WriteVerifyResult,
    write_verify,
    write_verify_trials,
)
from repro.core import WeightSpace
from repro.core.metrics import evaluate_accuracy, evaluate_accuracy_trials
from repro.core.sensitivity import MagnitudeScorer
from repro.utils.rng import RngStream

from .helpers import plan_for, scalar_sweep


@pytest.fixture
def device():
    return DeviceConfig(bits=4, sigma=0.1)


def _trial_stack(device, n_trials, n_devices, seed=0):
    gen = np.random.default_rng(seed)
    targets = gen.uniform(0, device.max_level, size=n_devices)
    initial = np.stack(
        [device.program(targets, np.random.default_rng(seed + 1 + i))
         for i in range(n_trials)]
    )
    return targets, initial


# --------------------------------------------------------- write-verify


def test_write_verify_trials_shapes_and_dtypes(device):
    targets, initial = _trial_stack(device, 5, 400)
    result = write_verify_trials(
        targets, initial, device, WriteVerifyConfig(),
        rng=np.random.default_rng(3),
    )
    assert result.levels.shape == (5, 400)
    assert result.levels.dtype == np.float64
    assert result.cycles.shape == (5, 400)
    assert result.cycles.dtype == np.int64
    assert result.converged.shape == (5, 400)
    assert result.converged.dtype == np.bool_


def _scalar_trials(targets, initial, device, config, seed):
    """The scalar reference: one standalone write_verify per trial, each
    from its own generator, stacked on the trial axis."""
    results = [
        write_verify(targets, initial[i], device, config,
                     np.random.default_rng(seed + i))
        for i in range(initial.shape[0])
    ]
    return WriteVerifyResult(
        levels=np.stack([r.levels for r in results]),
        cycles=np.stack([r.cycles for r in results]),
        converged=np.stack([r.converged for r in results]),
    )


def test_write_verify_trials_batched_matches_scalar_statistics(device):
    """Paper operating point: both paths hit ~10 cycles, same residual sigma."""
    config = WriteVerifyConfig()
    targets, initial = _trial_stack(device, 8, 4000)
    scalar = _scalar_trials(targets, initial, device, config, seed=50)
    batched = write_verify_trials(
        targets, initial, device, config, rng=np.random.default_rng(99)
    )
    assert scalar.mean_cycles == pytest.approx(10.0, abs=3.0)
    assert batched.mean_cycles == pytest.approx(scalar.mean_cycles, rel=0.05)
    sigma_scalar = (scalar.levels - targets).std() / device.max_level
    sigma_batched = (batched.levels - targets).std() / device.max_level
    assert 0.02 < sigma_scalar < 0.05  # paper: "deviation < 3%" band
    assert sigma_batched == pytest.approx(sigma_scalar, rel=0.1)
    # Pulse noise occasionally strands a device past max_pulses; the
    # overwhelming majority must converge on both paths.
    assert scalar.converged.mean() > 0.999
    assert batched.converged.mean() > 0.999


def test_write_verify_trials_scalar_mode_is_bitwise_per_trial(device):
    """A one-trial stack, the scalar case, is bitwise a standalone
    write_verify call."""
    config = WriteVerifyConfig()
    targets, initial = _trial_stack(device, 4, 300, seed=7)
    stacked = write_verify_trials(
        targets, initial[2:3], device, config, np.random.default_rng(72)
    )
    single = write_verify(
        targets, initial[2], device, config, np.random.default_rng(72)
    )
    np.testing.assert_array_equal(stacked.levels[0], single.levels)
    np.testing.assert_array_equal(stacked.cycles[0], single.cycles)


def test_write_verify_trials_validates_inputs(device):
    with pytest.raises(ValueError, match="leading trial axis"):
        write_verify_trials(5.0, 5.0, device, WriteVerifyConfig(),
                            np.random.default_rng(0))


# ------------------------------------------------------- engine streams


def test_engine_substreams_are_independent_and_stable():
    """Trial ``i`` of a sweep draws from ``rng.child("mc", i)``: named,
    not sequential, so re-deriving a trial's stream replays its draws."""
    root = RngStream(11).child("mc-test")
    a = root.child("mc", 0).generator.normal(size=4)
    b = root.child("mc", 1).generator.normal(size=4)
    assert np.abs(a - b).max() > 0
    again = root.child("mc", 0).generator.normal(size=4)
    np.testing.assert_array_equal(a, again)


def test_engine_blocks_cover_all_trials(mini_zoo):
    """The sweep walks 5 trials in blocks of 2, 2 and 1 and writes every
    trial's row.  Where its draws are per trial it equals the per-trial
    reference bit for bit: the write-verify methods' unverified column,
    and in-situ at every target, since both train trial ``i`` on
    ``rng.child("mc", i).child("insitu")``."""
    from repro.experiments.sweeps import run_method_sweep

    targets = (0.0, 0.1, 0.5, 1.0)
    plan = plan_for(mini_zoo, sense_samples=64, sigma=0.1,
                    nwc_targets=targets,
                    methods=("swim", "magnitude", "random", "insitu"))
    sweep, reference = (
        run(mini_zoo, plan, mc_runs=5, rng=RngStream(3).child("blocks"),
            eval_samples=32).curves
        for run in (run_method_sweep, scalar_sweep)
    )
    for method in plan.methods:
        assert sweep[method].accuracy_runs.shape == (5, len(targets))
    for method in ("swim", "magnitude", "random"):
        np.testing.assert_array_equal(sweep[method].accuracy_runs[:, 0],
                                      reference[method].accuracy_runs[:, 0])
    np.testing.assert_array_equal(sweep["insitu"].accuracy_runs,
                                  reference["insitu"].accuracy_runs)
    np.testing.assert_array_equal(sweep["insitu"].nwc_runs,
                                  reference["insitu"].nwc_runs)


@pytest.mark.parametrize("physics", [
    {"sigma": 0.1},
    {"technology": "pcm", "read_time": 3600.0},
], ids=["no-drift", "pcm-1h"])
def test_batched_sweep_evaluates_each_deployment_once(mini_zoo, monkeypatch,
                                                      physics):
    """A joint batched sweep over swim, magnitude and random equals,
    bitwise, a batched sweep of each method alone on the same ``rng``
    (one method shares nothing, so it is the oracle), and it runs one
    evaluation per distinct selection per block: none at NWC = 0, all
    at NWC = 1, one per distinct index set of the deterministic orders,
    and one per random cell between the ends."""
    import dataclasses

    from repro.core.mc import default_trial_block
    from repro.experiments import sweeps
    from repro.experiments.sweeps import run_method_sweep

    plan = plan_for(mini_zoo, sense_samples=64,
                    nwc_targets=(0.0, 0.05, 0.3, 1.0),
                    methods=("swim", "magnitude", "random"), **physics)
    total = plan.total_weights
    selections = {
        frozenset(plan.order(method)[:count].tolist())
        for method in ("swim", "magnitude") for count in plan.counts
    }
    random_only = sum(0 < count < total for count in plan.counts)
    mc_runs = 3 * default_trial_block()
    blocks = 3

    evaluate = sweeps.evaluate_accuracy_trials
    calls = []

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(sweeps, "evaluate_accuracy_trials", counted)

    def sweep(methods):
        return run_method_sweep(
            mini_zoo, dataclasses.replace(plan, methods=methods),
            mc_runs=mc_runs, rng=RngStream(9).child("dedupe"),
            eval_samples=32,
        )

    joint = sweep(plan.methods)
    evaluations = len(calls)
    for method in plan.methods:
        alone = sweep((method,)).curves[method]
        np.testing.assert_array_equal(
            joint.curves[method].accuracy_runs, alone.accuracy_runs)
        np.testing.assert_array_equal(
            joint.curves[method].nwc_runs, alone.nwc_runs)
    assert evaluations == (len(selections) + random_only) * blocks


# ---------------------------------------------- accelerator pipeline


@pytest.fixture(scope="module")
def small_setup():
    from repro.data import synthetic_digits
    from repro.nn import SGD, TrainConfig, Trainer, cosine_schedule
    from repro.nn.models import lenet

    root = RngStream(seed=4242)
    data = synthetic_digits(n_train=400, n_test=200, rng=root.child("data"))
    model = lenet(root.child("model"), conv_channels=(4, 8),
                  fc_features=(32, 16), act_bits=4)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = Trainer(optimizer, schedule=cosine_schedule(0.05, 4),
                      rng=root.child("train"))
    trainer.fit(model, data.train_x, data.train_y,
                config=TrainConfig(epochs=4, batch_size=64))
    model.eval()
    mapping = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.1))
    accelerator = CimAccelerator(model, mapping_config=mapping)
    space = WeightSpace.from_model(model)
    order = MagnitudeScorer().ranking(model, space, None, None)
    return model, data, accelerator, space, order


def test_program_trials_bitwise_matches_scalar(small_setup):
    model, data, accelerator, space, order = small_setup
    root = RngStream(1).child("bitwise")
    streams = [root.child("mc", i) for i in range(3)]
    stacked = accelerator.program_trials(
        [s.child("program").generator for s in streams]
    )
    scalar = accelerator.program(streams[1].child("program").generator)
    for name in scalar:
        np.testing.assert_array_equal(stacked[name][:, 1], scalar[name])


def test_trial_cycle_accounting_consistent_with_nwc(small_setup):
    """Per-trial cycle totals are the NWC denominator apply_selection uses."""
    model, data, accelerator, space, order = small_setup
    root = RngStream(61).child("cycles")
    streams = [root.child("mc", i) for i in range(3)]
    accelerator.program_trials([s.child("program").generator for s in streams])
    verified = accelerator.write_verify_trials(rng=root.child("pulse").generator)

    per_weight = {name: result.cycles.sum(axis=0)
                  for name, result in verified.items()}
    totals = accelerator.total_cycles_trials()
    assert totals.shape == (3,)
    assert (totals > 0).all()
    summed = sum(
        cycles.reshape(3, -1).sum(axis=1) for cycles in per_weight.values()
    )
    np.testing.assert_array_equal(summed, totals)
    # Selecting everything spends exactly the denominator: NWC == 1.
    full = space.masks_from_indices(order)
    np.testing.assert_allclose(accelerator.apply_selection_trials(full), 1.0)
    accelerator.clear()


def test_apply_selection_trials_subset_and_per_trial_masks(small_setup):
    model, data, accelerator, space, order = small_setup
    root = RngStream(31).child("subset")
    streams = [root.child("mc", i) for i in range(4)]
    accelerator.program_trials([s.child("program").generator for s in streams])
    accelerator.write_verify_trials(rng=root.child("pulse").generator)

    count = space.total_size // 2
    shared = space.masks_from_indices(order[:count])
    nwc_all = accelerator.apply_selection_trials(shared)
    assert nwc_all.shape == (4,)

    per_trial = space.masks_from_indices_trials(
        [order[:count], order[:0], order[:count], order[: space.total_size]]
    )
    nwc_mixed = accelerator.apply_selection_trials(per_trial)
    assert nwc_mixed[1] == 0.0
    assert nwc_mixed[3] == pytest.approx(1.0)
    assert 0.0 < nwc_mixed[0] < 1.0
    accelerator.clear()


def test_evaluate_accuracy_trials_matches_scalar_with_shared_weights(small_setup):
    model, data, accelerator, space, order = small_setup
    accelerator.clear()
    x, y = data.test_x[:120], data.test_y[:120]
    scalar = evaluate_accuracy(model, x, y)
    per_trial = evaluate_accuracy_trials(model, x, y, n_trials=3)
    np.testing.assert_allclose(per_trial, scalar)


# -------------------------------------------------- perturbation engine


def test_perturbation_evaluator_exact_vs_bruteforce(small_setup):
    from repro.core.perturbation import PerturbationEvaluator

    model, data, accelerator, space, order = small_setup
    accelerator.clear()
    x = data.test_x[:64]
    gen = np.random.default_rng(3)
    evaluator = PerturbationEvaluator(model, x, max_fold_samples=256)

    for module in list(model):
        weight = getattr(module, "weight", None)
        if weight is None:
            continue
        size = weight.data.size
        inner = gen.integers(0, size, size=5)
        signed = gen.normal(0.0, 0.05, size=5)
        fast = evaluator.evaluate(module, inner, signed)
        for t in range(5):
            perturbed = module.weight.data.copy()
            perturbed.reshape(-1)[inner[t]] += signed[t]
            module.set_weight_override(perturbed)
            reference = model(x)
            module.clear_weight_override()
            # The model computes in float32 here, so incremental vs full
            # recomputation differ only by reordered float32 rounding.
            np.testing.assert_allclose(
                fast[t], reference, rtol=1e-4, atol=1e-5,
                err_msg=f"mismatch for {type(module).__name__} trial {t}",
            )


def test_perturbation_evaluator_fallback_matches(small_setup):
    """The override-tile fallback agrees with the structured paths."""
    from repro.core.perturbation import PerturbationEvaluator

    model, data, accelerator, space, order = small_setup
    accelerator.clear()
    x = data.test_x[:48]
    conv = next(m for m in model if getattr(m, "weight", None) is not None)
    inner = np.array([0, 3, 7])
    signed = np.array([0.05, -0.02, 0.08])

    evaluator = PerturbationEvaluator(model, x, max_fold_samples=128)
    fast = evaluator.evaluate(conv, inner, signed)
    fallback = evaluator._evaluate_override(conv, inner, signed)
    np.testing.assert_allclose(fast, fallback, rtol=1e-4, atol=1e-5)
