"""Composable nonideality stack + technology registry.

Contract under test: the stack's trial forms take the leading
``(n_trials, ...)`` axis through per-trial named RNG substreams, with
trial ``i`` of the batched path bitwise-identical to the scalar call —
programming noise, spatial fields, retention drift, and their stacked
composition — plus the registry round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import (
    CimAccelerator,
    DeviceConfig,
    DeviceTechnology,
    MappingConfig,
    NonidealityStack,
    ProgrammingNoiseStage,
    RetentionDriftStage,
    RetentionModel,
    SpatialCorrelationStage,
    SpatialVariationModel,
    get_technology,
    register_technology,
    resolve_technology,
    technology_names,
)
from repro.cim.devices.registry import _REGISTRY
from repro.nn.models import mlp
from repro.utils.rng import RngStream

from repro.plan import PlanRequest

from .helpers import accelerator_on, deployed_weights, plan_for, scalar_sweep


@pytest.fixture
def mapping():
    return MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.1))


def _gens(seed, n):
    return [np.random.default_rng(seed + i) for i in range(n)]


# ------------------------------------------------- per-stage trial batching


def test_stack_program_trials_matches_scalar_bitwise(mapping):
    stack = NonidealityStack(stages=(
        ProgrammingNoiseStage(),
        SpatialCorrelationStage(SpatialVariationModel(sigma=0.05)),
    ))
    levels = np.random.default_rng(1).uniform(0, 15, size=(1, 6, 8))
    batched = stack.program_trials(levels, mapping, _gens(11, 3))
    assert batched.shape == (1, 3, 6, 8)
    for i, rng in enumerate(_gens(11, 3)):
        np.testing.assert_array_equal(batched[:, i], stack.program(levels, mapping, rng))


def test_stack_read_trials_matches_scalar_bitwise(mapping):
    stack = NonidealityStack(stages=(
        ProgrammingNoiseStage(),
        RetentionDriftStage(RetentionModel(nu=0.05, sigma_nu=0.01)),
    ))
    levels = np.random.default_rng(2).uniform(0, 15, size=(1, 4, 5, 5))
    streams = [RngStream(90).child("trial", i) for i in range(4)]
    batched = stack.read_trials(levels, mapping, streams, t=3600.0)
    for i, stream in enumerate(streams):
        scalar = stack.read(levels[:, i], mapping, stream, t=3600.0)
        np.testing.assert_array_equal(batched[:, i], scalar)
    # Named substreams: the same (stream, t) always reproduces the draw.
    again = stack.read_trials(levels, mapping, streams, t=3600.0)
    np.testing.assert_array_equal(batched, again)


def test_stack_read_identity_without_time_or_read_stages(mapping):
    drifting = NonidealityStack(stages=(
        RetentionDriftStage(RetentionModel(nu=0.05)),
    ))
    writes_only = NonidealityStack(stages=(ProgrammingNoiseStage(),))
    levels = np.ones((1, 3, 3))
    stream = RngStream(4)
    assert drifting.read(levels, mapping, stream, t=None) is levels
    assert writes_only.read(levels, mapping, stream, t=1e5) is levels
    assert not writes_only.has_read_stages


def test_default_stack_matches_mapper_program_levels(mapping):
    """The refactor must not change the paper's seeded programming draws."""
    from repro.cim.mapping import WeightMapper

    mapper = WeightMapper(mapping)
    mapped = mapper.map_tensor(np.random.default_rng(5).normal(size=(7, 9)))
    legacy = mapper.program_levels(mapped, np.random.default_rng(42))
    stacked = NonidealityStack.default().program(
        mapped.levels, mapping, np.random.default_rng(42)
    )
    np.testing.assert_array_equal(legacy, stacked)


def test_default_stack_matches_mapper_program_levels_differential():
    mapping = MappingConfig(
        weight_bits=6, device=DeviceConfig(bits=4, sigma=0.1), differential=True
    )
    from repro.cim.mapping import WeightMapper

    mapper = WeightMapper(mapping)
    mapped = mapper.map_tensor(np.random.default_rng(6).normal(size=(5, 4)))
    legacy = mapper.program_levels(mapped, np.random.default_rng(9))
    stacked = NonidealityStack.default().program(
        mapped.levels, mapping, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(legacy, stacked)


# ----------------------------------------------------------------- registry


def test_registry_has_the_four_builtins():
    assert set(technology_names()) >= {"fefet", "rram", "pcm", "mram"}


def test_fefet_is_the_papers_operating_point():
    tech = get_technology("fefet")
    device = tech.device_config()
    assert device.bits == 4
    assert device.sigma == pytest.approx(0.1)


def test_technology_round_trip_and_seeded_stack_determinism(mapping):
    for name in technology_names():
        tech = get_technology(name)
        clone = DeviceTechnology.from_dict(tech.to_dict())
        assert clone == tech
        levels = np.random.default_rng(0).uniform(0, tech.device_config().max_level,
                                                  size=(1, 40))
        a = clone.build_stack().program(levels, mapping, np.random.default_rng(17))
        b = tech.build_stack().program(levels, mapping, np.random.default_rng(17))
        np.testing.assert_array_equal(a, b)


def test_technology_stack_composition():
    assert [s.name for s in get_technology("pcm").build_stack().stages] == [
        "program-noise", "retention",
    ]
    assert not get_technology("mram").build_stack().has_read_stages
    spatial = DeviceTechnology(name="_spatial", spatial_sigma=0.05,
                               drift_nu=0.01)
    assert [s.name for s in spatial.build_stack().stages] == [
        "program-noise", "spatial", "retention",
    ]


def test_register_technology_guards():
    with pytest.raises(ValueError, match="already registered"):
        register_technology(get_technology("pcm"))
    with pytest.raises(TypeError):
        register_technology("pcm")
    with pytest.raises(KeyError, match="unknown technology"):
        get_technology("ecram")
    custom = DeviceTechnology(name="_custom_test", sigma=0.2)
    try:
        register_technology(custom)
        assert resolve_technology("_custom_test") is custom
        assert resolve_technology(custom) is custom
    finally:
        _REGISTRY.pop("_custom_test", None)


# ------------------------------------------------- accelerator integration


@pytest.fixture
def small_setup(rng):
    model = mlp(rng.child("m"), (6, 10, 4), activation="relu")
    x = rng.child("x").normal(size=(32, 6))
    y = rng.child("y").integers(0, 4, size=32)
    return model, x, y


def test_accelerator_technology_wiring(small_setup):
    model, _, _ = small_setup
    tech, _, mapping, stack = PlanRequest(technology="pcm").resolve()
    acc = CimAccelerator(model, mapping_config=mapping, stack=stack)
    assert tech.name == "pcm"
    assert acc.mapping_config.device.sigma == pytest.approx(0.12)
    assert acc.stack.has_read_stages


def test_accelerator_drift_changes_deployment_and_is_deterministic(small_setup):
    model, _, _ = small_setup
    acc = accelerator_on(model, "pcm")
    stream = RngStream(21).child("run")
    acc.program(stream.child("program").generator)
    acc.write_verify_all(stream.child("verify").generator)

    fresh = acc.apply_all()
    fresh_weights = {n: w.copy() for n, w in deployed_weights(acc).items()}
    acc.apply_all(read_time=1e5, read_stream=stream)
    aged = deployed_weights(acc)
    for name in fresh_weights:
        assert np.abs(aged[name] - fresh_weights[name]).max() > 0
    # Same (stream, t): identical drift realization (paired design).
    acc.apply_all(read_time=1e5, read_stream=stream)
    again = deployed_weights(acc)
    for name in fresh_weights:
        np.testing.assert_array_equal(aged[name], again[name])
    assert fresh == pytest.approx(1.0)


@pytest.mark.parametrize("technology", technology_names())
def test_accelerator_trial_drift_matches_scalar_bitwise(small_setup,
                                                        technology):
    """The scalar protocol is a one-trial view of the trial state.

    Whole pipeline, bitwise, on every registered technology (read at
    7200 s when it drifts): each trial of a three-trial stack deploys
    its raw draw as a scalar run of that trial does; and a one-trial
    stack verified from the scalar run's stream deploys a partial
    selection with the scalar run's weights, float NWC and NWC
    denominator.
    """
    model, _, _ = small_setup
    n_trials = 3
    root = RngStream(33)
    streams = [root.child("mc", i) for i in range(n_trials)]

    batched = accelerator_on(model, technology)
    read_time = 7200.0 if batched.stack.has_read_stages else None
    batched.program_trials([s.child("program").generator for s in streams])
    batched.write_verify_trials(rng=root.child("verify").generator)
    batched.apply_selection_trials({}, read_time=read_time,
                                   read_streams=streams)
    trial_weights = deployed_weights(batched)

    scalar = accelerator_on(model, technology)
    one_trial = accelerator_on(model, technology)
    masks = {
        name: (np.arange(m.codes.size) % 3 == 0).reshape(m.codes.shape)
        for name, m in scalar.map_model().items()
    }
    for i, stream in enumerate(streams):
        scalar.program(stream.child("program").generator)
        scalar.write_verify_all(stream.child("verify").generator)
        scalar.apply_none(read_time=read_time, read_stream=stream)
        for name, weights in deployed_weights(scalar).items():
            assert weights.shape == trial_weights[name].shape[1:]
            np.testing.assert_array_equal(trial_weights[name][i], weights)

        # The accelerators share the model's layers: read each
        # deployment before the next one overrides it.
        nwc = scalar.apply_selection(masks, read_time=read_time,
                                     read_stream=stream)
        selected = deployed_weights(scalar)
        one_trial.program_trials([stream.child("program").generator])
        one_trial.write_verify_trials(stream.child("verify").generator)
        nwcs = one_trial.apply_selection_trials(
            masks, read_time=read_time, read_streams=[stream])
        assert type(nwc) is float and 0.0 < nwc < 1.0
        assert nwc == nwcs[0]
        assert scalar.total_cycles() == one_trial.total_cycles_trials()[0]
        for name, stacked in deployed_weights(one_trial).items():
            assert stacked.shape == (1,) + selected[name].shape
            np.testing.assert_array_equal(stacked[0], selected[name])


def test_accelerator_read_time_requires_stream(small_setup):
    model, _, _ = small_setup
    acc = accelerator_on(model, "pcm")
    acc.program(np.random.default_rng(0))
    acc.write_verify_all(np.random.default_rng(1))
    with pytest.raises(ValueError, match="read_stream"):
        acc.apply_all(read_time=100.0)


def test_wear_summary_tracks_sessions(small_setup):
    model, _, _ = small_setup
    acc = accelerator_on(model, "rram")
    assert acc.wear_summary() is None
    acc.program(np.random.default_rng(0))
    acc.write_verify_all(np.random.default_rng(1))
    wear = acc.wear_summary()
    assert wear["endurance_cycles"] == pytest.approx(1e6)
    assert wear["total_pulses"] > 0
    assert wear["mean_pulses_per_device"] >= 1.0
    assert wear["deployments_to_failure"] > 0
    # Re-programming folds the session into the running aggregates, so a
    # multi-block sweep's wear covers every trial, not just the last one.
    acc.program(np.random.default_rng(2))
    folded = acc.wear_summary()
    assert folded == wear
    acc.write_verify_all(np.random.default_rng(3))
    both = acc.wear_summary()
    assert both["total_pulses"] == pytest.approx(2 * wear["total_pulses"], rel=0.1)


# ------------------------------------------------------- sweep equivalence


@pytest.mark.slow
def test_sweep_batched_matches_scalar_for_every_technology():
    """Seeded equivalence with the per-trial reference, per technology.

    The NWC=0 column involves no verify pulses, so the sweep and
    :func:`~tests.helpers.scalar_sweep` must agree bitwise there
    (programming and drift draws are per-trial named); the sweep's
    verified cells share one pulse rng per block, so they agree
    statistically (deterministic given the seed — tolerance has margin
    over the observed 0.052 worst case).
    """
    from repro.experiments.config import get_scale
    from repro.experiments.model_zoo import load_workload
    from repro.experiments.sweeps import run_method_sweep

    zoo = load_workload(get_scale("smoke").workload("lenet-digits"))
    for tech in technology_names():
        read_time = 3600.0 if get_technology(tech).has_drift else None
        plan = plan_for(zoo, sense_samples=96, technology=tech,
                        read_time=read_time, nwc_targets=(0.0, 0.5, 1.0),
                        methods=("swim", "random"))
        kwargs = dict(mc_runs=2, eval_samples=96)
        batched = run_method_sweep(
            zoo, plan, rng=RngStream(5).child("eq", tech), **kwargs
        )
        scalar = scalar_sweep(
            zoo, plan, rng=RngStream(5).child("eq", tech), **kwargs
        )
        assert batched.technology == tech
        for method in ("swim", "random"):
            np.testing.assert_array_equal(
                batched.curves[method].accuracy_runs[:, 0],
                scalar.curves[method].accuracy_runs[:, 0],
            )
            np.testing.assert_allclose(
                batched.curves[method].accuracy_runs,
                scalar.curves[method].accuracy_runs,
                atol=0.10,
            )
            np.testing.assert_allclose(
                batched.curves[method].achieved_nwc,
                scalar.curves[method].achieved_nwc,
                atol=0.05,
            )
