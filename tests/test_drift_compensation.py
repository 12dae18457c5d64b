"""Drift compensation: exact mean rescale, no-op at t0, accuracy rescue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import (
    DriftCompensationStage,
    RetentionModel,
    get_technology,
)
from repro.nn.models import mlp
from repro.plan import PlanRequest
from repro.utils.rng import RngStream

from .helpers import accelerator_on, deployed_weights, plan_for, to_float64

ONE_MONTH = 2.592e6


def test_decay_moments_match_monte_carlo():
    """The clipped-Gaussian closed form is what apply() actually draws."""
    model = RetentionModel(nu=0.01, sigma_nu=0.02, relaxation_sigma=0.0)
    t = ONE_MONTH
    gen = np.random.default_rng(3)
    # Large nu spread relative to the mean => the clip at zero matters;
    # the unclipped lognormal moments would be visibly wrong here.
    draws = model.apply(np.ones(200_000), t, gen)
    m1, m2 = model.decay_moments(t)
    assert draws.mean() == pytest.approx(m1, rel=5e-3)
    assert (draws ** 2).mean() == pytest.approx(m2, rel=5e-3)
    unclipped_m1 = np.exp(-np.log(t) * model.nu
                          + 0.5 * (np.log(t) * model.sigma_nu) ** 2)
    assert abs(unclipped_m1 - draws.mean()) > 10 * abs(m1 - draws.mean())


def test_decay_moments_identity_at_t0_and_validation():
    model = RetentionModel(nu=0.05, sigma_nu=0.01, relaxation_sigma=0.005)
    assert model.decay_moments(model.t0) == (1.0, 1.0)
    assert model.mean_decay(model.t0) == 1.0
    assert model.relaxation_variance(model.t0) == 0.0
    with pytest.raises(ValueError, match="t0"):
        model.decay_moments(0.5)
    with pytest.raises(ValueError, match="t0"):
        model.relaxation_variance(0.5)


def test_compensation_stage_recovers_the_mean():
    """Drift then compensation is mean-unbiased, unlike drift alone."""
    model = RetentionModel(nu=0.05, sigma_nu=0.01, relaxation_sigma=0.0)
    stage = DriftCompensationStage(model)
    levels = np.full(100_000, 10.0)
    gen = np.random.default_rng(7)
    drifted = model.apply(levels, ONE_MONTH, gen)
    assert drifted.mean() < 6.0  # raw pcm loses ~half the conductance
    compensated = stage.apply(drifted, None, None, t=ONE_MONTH)
    assert compensated.mean() == pytest.approx(10.0, rel=2e-3)
    # The exponent spread survives: compensation is not a clean rewrite.
    assert compensated.std() > 0.5


def test_pcm_comp_stack_order_and_registry_roundtrip():
    tech = get_technology("pcm-comp")
    assert tech.drift_compensated
    stack = tech.build_stack()
    assert [s.name for s in stack.stages] == [
        "program-noise", "retention", "drift-compensation",
    ]
    clone = type(tech).from_dict(tech.to_dict())
    assert clone == tech
    assert not get_technology("pcm").drift_compensated


@pytest.fixture
def small_model(rng):
    return to_float64(mlp(rng.child("m"), (6, 10, 4), activation="relu"))


def test_compensation_is_bitwise_noop_at_t0(small_model):
    """Deploying at the write-verify reference time changes nothing."""
    accelerator = accelerator_on(small_model, "pcm-comp")
    rng = RngStream(11).child("noop")
    accelerator.program(rng.child("program").generator)
    accelerator.write_verify_all(rng.child("verify").generator)

    accelerator.apply_all()
    plain = {
        name: weights.copy()
        for name, weights in deployed_weights(accelerator).items()
    }
    accelerator.apply_all(read_time=1.0, read_stream=rng)
    at_t0 = deployed_weights(accelerator)
    for name in plain:
        np.testing.assert_array_equal(at_t0[name], plain[name])


@pytest.mark.slow
def test_compensated_pcm_beats_uncompensated_at_one_month():
    """The Table-1 smoke model recovers under compensation at 30 days.

    Shared RNG root => both technologies program and verify the same
    draws; the only difference is the read path's global rescale, so a
    strict accuracy win at every NWC target is the regression contract.
    """
    from repro.experiments.config import SMOKE
    from repro.experiments.model_zoo import load_workload
    from repro.experiments.sweeps import run_method_sweep

    zoo = load_workload(SMOKE.workload("lenet-digits"))
    curves = {}
    for technology in ("pcm", "pcm-comp"):
        plan = plan_for(zoo, sense_samples=128, technology=technology,
                        read_time=ONE_MONTH, nwc_targets=(0.0, 0.5, 1.0),
                        methods=("swim",))
        outcome = run_method_sweep(
            zoo, plan, mc_runs=2, rng=RngStream(13).child("comp"),
            eval_samples=160,
        )
        curves[technology] = outcome.curves["swim"].means()
    assert np.all(curves["pcm-comp"] > curves["pcm"] + 0.2), curves


def test_compensation_shrinks_the_variance_map(small_model):
    """Analytic view of the same story: E[dw^2] drops under compensation."""
    from repro.core import WeightSpace

    space = WeightSpace.from_model(small_model)
    raw = get_technology("pcm")
    comp = get_technology("pcm-comp")
    _, _, mapping, _ = PlanRequest(technology=raw).resolve()
    var_raw = raw.build_stack().variance_map(
        mapping, read_time=ONE_MONTH, space=space, model=small_model
    )
    var_comp = comp.build_stack().variance_map(
        mapping, read_time=ONE_MONTH, space=space, model=small_model
    )
    assert var_comp.mean() < 0.5 * var_raw.mean()
    # The win is on the weights that matter: the rescale cancels the
    # level-proportional bias of large weights, while near-zero weights
    # (no signal to recover) see their noise amplified by the 1/E[D]
    # factor — compensation trades a large bias for a small variance.
    largest = np.argsort(var_raw)[-space.total_size // 4:]
    assert np.all(var_comp[largest] < var_raw[largest])
