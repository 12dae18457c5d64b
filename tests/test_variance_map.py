"""Variance closure: analytic stack variance vs Monte Carlo, end to end.

The tentpole contract of the variance-closure subsystem: the analytic
``NonidealityStack.variance_map`` is the *exact* per-weight second moment
``E[dw^2]`` of an unverified deployment through the same stack — write
noise through the quantization scales, drift at the read time,
compensation — and feeding it into Eq. 5 (hetero-SWIM) buys accuracy at
equal write-verify budget when the platform is heterogeneous.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim import (
    DeviceConfig,
    DeviceTechnology,
    MappingConfig,
    NonidealityStack,
    ProgrammingNoiseStage,
)
from repro.cim.mapping import WeightMapper
from repro.core import WeightSpace
from repro.nn.models import mlp
from repro.plan import PlanRequest
from repro.utils.rng import RngStream

from .helpers import plan_for, to_float64

ONE_MONTH = 2.592e6


def chi2_quantile(p, df):
    """Chi-square quantile via the Wilson-Hilferty approximation.

    Accurate to a fraction of a percent for the df >= 100 used here;
    avoids a SciPy dependency in the test suite.
    """
    z = statistics.NormalDist().inv_cdf(p)
    return df * (1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)) ** 0.5) ** 3


@pytest.fixture
def small_model(rng):
    model = to_float64(mlp(rng.child("m"), (6, 10, 4), activation="relu"))
    return model, WeightSpace.from_model(model)


def _one_layer_model(codes_for, scale):
    """A one-layer model whose weights are ``codes_for(shape) * scale``,
    with its space."""
    model = to_float64(mlp(RngStream(0).child("m"), (3, 5)))
    weight = next(model.parameters())
    weight.data = np.asarray(codes_for(weight.data.shape), np.float64) * scale
    return model, WeightSpace.from_model(model)


# ------------------------------------------------- MC vs analytic closure

@pytest.mark.slow
@pytest.mark.parametrize("technology", ["fefet", "pcm"])
@pytest.mark.parametrize("read_time", [None, ONE_MONTH])
def test_empirical_variance_matches_analytic(small_model, technology,
                                             read_time):
    """256-trial per-weight second moments sit in the chi-square band.

    For every weight, ``n * m2_hat / m2`` is approximately chi-square
    with ``n`` degrees of freedom; the band below uses far-out quantiles
    (plus slack for the non-Gaussian drift factor at long read times) so
    a correct analytic map passes with margin while an error in any term
    — slice weighting, differential doubling, drift bias, noise shrink,
    relaxation — moves whole tensors far outside it.
    """
    model, space = small_model
    n_trials = 256
    _, _, mapping, stack = PlanRequest(technology=technology).resolve()

    analytic = stack.variance_map(mapping, space, model, read_time=read_time)
    empirical = stack.empirical_variance_map(
        mapping, space, model, n_trials,
        RngStream(2024).child("mc", technology), read_time=read_time,
    )
    assert analytic.shape == empirical.shape == (space.total_size,)
    assert np.all(analytic > 0)

    ratio = empirical / analytic
    lo = chi2_quantile(1e-7, n_trials) / n_trials
    hi = chi2_quantile(1.0 - 1e-7, n_trials) / n_trials
    slack = 1.25  # heavy-tailed drift factor inflates the chi-square band
    assert ratio.min() > 1.0 - slack * (1.0 - lo), ratio.min()
    assert ratio.max() < 1.0 + slack * (hi - 1.0), ratio.max()
    # The across-weight mean ratio is far tighter than any single weight.
    assert ratio.mean() == pytest.approx(1.0, abs=0.03)


def test_variance_map_drift_raises_the_mean(small_model):
    """Sanity: pcm at one month is far noisier than at write time."""
    model, space = small_model
    _, _, mapping, stack = PlanRequest(technology="pcm").resolve()
    at_write = stack.variance_map(mapping, space, model)
    at_month = stack.variance_map(mapping, space, model, read_time=ONE_MONTH)
    assert at_month.mean() > 2.0 * at_write.mean()


# ------------------------------------------------- hypothesis properties

@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(0.01, 0.3),
    bits=st.integers(1, 4),
    weight_bits=st.integers(1, 6),
    differential=st.booleans(),
    nu=st.floats(0.0, 0.1),
    sigma_nu=st.floats(0.0, 0.02),
    relaxation=st.floats(0.0, 0.02),
    spatial_sigma=st.floats(0.0, 0.2),
    compensated=st.booleans(),
    read_time=st.one_of(st.none(), st.floats(1.0, 3.2e7)),
    seed=st.integers(0, 2**16),
)
def test_variance_map_is_non_negative(sigma, bits, weight_bits, differential,
                                      nu, sigma_nu, relaxation, spatial_sigma,
                                      compensated, read_time, seed):
    """E[dw^2] >= 0 for any stack composition, weights and read time."""
    tech = DeviceTechnology(
        name="prop", bits=bits, sigma=sigma, drift_nu=nu, drift_sigma_nu=sigma_nu,
        relaxation_sigma=relaxation, spatial_sigma=spatial_sigma,
        drift_compensated=compensated,
    )
    mapping = MappingConfig(
        weight_bits=weight_bits,
        device=DeviceConfig(bits=bits, sigma=sigma),
        differential=differential,
    )
    stack = tech.build_stack()
    gen = np.random.default_rng(seed)
    model, space = _one_layer_model(
        lambda shape: gen.integers(-mapping.qmax, mapping.qmax + 1,
                                   size=shape),
        0.01,
    )
    variance = stack.variance_map(mapping, space, model, read_time=read_time)
    assert variance.shape == (space.total_size,)
    assert np.all(variance >= 0.0)
    assert np.all(np.isfinite(variance))


@settings(max_examples=40, deadline=None)
@given(
    nu=st.floats(0.03, 0.1),
    sigma_nu_frac=st.floats(0.0, 0.25),
    relaxation=st.floats(0.0, 0.01),
    sigma=st.floats(0.05, 0.15),
    compensated=st.booleans(),
    t_pair=st.tuples(st.floats(600.0, 3.15e7), st.floats(600.0, 3.15e7)),
    seed=st.integers(0, 2**16),
)
def test_variance_map_monotone_in_read_time(nu, sigma_nu_frac, relaxation,
                                            sigma, compensated, t_pair, seed):
    """Longer storage never helps a programmed weight.

    For strongly drifting technologies and devices programmed in the
    upper half of their range — where the level-proportional drift error
    dominates the (physically real) multiplicative shrink of the write
    noise — the per-weight variance map is elementwise non-decreasing in
    the read time.
    """
    t1, t2 = sorted(t_pair)
    tech = DeviceTechnology(
        name="prop", bits=4, sigma=sigma, drift_nu=nu,
        drift_sigma_nu=nu * sigma_nu_frac, relaxation_sigma=relaxation,
        drift_compensated=compensated,
    )
    mapping = MappingConfig(weight_bits=4, device=tech.device_config())
    stack = tech.build_stack()
    gen = np.random.default_rng(seed)
    # Codes 8..15 stay in the upper half when quantization rescales them.
    model, space = _one_layer_model(
        lambda shape: gen.integers(8, 16, size=shape)
        * gen.choice([-1, 1], size=shape),
        0.02,
    )
    early = stack.variance_map(mapping, space, model, read_time=t1)
    late = stack.variance_map(mapping, space, model, read_time=t2)
    assert np.all(late >= early * (1.0 - 1e-12))


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.floats(0.01, 0.3),
    bits=st.integers(1, 4),
    weight_bits=st.integers(1, 6),
    differential=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_variance_map_reduces_to_mapping_constant(sigma, bits, weight_bits,
                                                  differential, seed):
    """Homogeneous programming noise only => exactly the Eq. 16 constant.

    The oracle is the paper's arithmetic: per tensor, the mapped code
    noise std (Eq. 16) times the tensor's quantization scale, squared.
    """
    mapping = MappingConfig(
        weight_bits=weight_bits,
        device=DeviceConfig(bits=bits, sigma=sigma),
        differential=differential,
    )
    stack = NonidealityStack(stages=(ProgrammingNoiseStage(),))
    model = to_float64(mlp(RngStream(seed).child("m"), (4, 6, 3),
                           activation="relu"))
    space = WeightSpace.from_model(model)
    from_stack = stack.variance_map(mapping, space, model)
    mapper = WeightMapper(mapping)
    params = dict(model.named_parameters())
    eq16 = {}
    for name in space.names:
        _, scale = mapper.quantize(params[name].data)
        std_w = mapping.code_noise_std() * scale
        eq16[name] = np.full(params[name].shape, std_w ** 2)
    np.testing.assert_array_equal(from_stack, space.flatten(eq16))


def test_variance_map_rejects_custom_stages():
    """Unknown stage types fail loudly instead of returning a wrong map."""
    from repro.cim import NonidealityStage

    class LineDropStage(NonidealityStage):
        name = "line-drop"
        when = "write"

        def apply(self, levels, ctx, rng, t=None):
            return levels * 0.99

    mapping = MappingConfig()
    model, space = _one_layer_model(lambda shape: np.ones(shape), 0.1)
    stack = NonidealityStack(
        stages=(ProgrammingNoiseStage(), LineDropStage())
    )
    with pytest.raises(NotImplementedError, match="line-drop"):
        stack.variance_map(mapping, space, model)

    class ReadDropStage(LineDropStage):
        name = "read-drop"
        when = "read"

    stack = NonidealityStack(stages=(ProgrammingNoiseStage(), ReadDropStage()))
    # Without a read time the read pipeline never runs: still analytic.
    assert np.all(stack.variance_map(mapping, space, model) > 0)
    with pytest.raises(NotImplementedError, match="read-drop"):
        stack.variance_map(mapping, space, model, read_time=10.0)


def test_variance_map_without_programming_stage_has_no_noise_floor():
    """The map reflects the stack's actual stages, not Eq. 16 by fiat."""
    from repro.cim import SpatialCorrelationStage, SpatialVariationModel

    mapping = MappingConfig()
    scale = 0.1
    model, space = _one_layer_model(
        lambda shape: np.full(shape, mapping.qmax), scale)
    spatial_only = NonidealityStack(
        stages=(SpatialCorrelationStage(SpatialVariationModel(sigma=0.1)),)
    )
    with_noise = NonidealityStack(
        stages=(
            ProgrammingNoiseStage(),
            SpatialCorrelationStage(SpatialVariationModel(sigma=0.1)),
        )
    )
    lean = spatial_only.variance_map(mapping, space, model)
    full = with_noise.variance_map(mapping, space, model)
    assert np.all(lean > 0)
    assert np.all(full > lean)
    expected_gap = (mapping.code_noise_std() * scale) ** 2
    np.testing.assert_allclose(full - lean, expected_gap, rtol=1e-12)


# ------------------------------------------- selection closes the loop

@pytest.mark.slow
def test_stack_fed_hetero_swim_beats_swim_under_drift():
    """Equal budget, drifted pcm: the physics-fed ranking wins.

    ReLU networks are positively homogeneous, so scaling conv1 up and
    conv2 down preserves the function while skewing the per-tensor
    quantization scales — the within-one-chip heterogeneity regime of
    Qin et al.  Plain SWIM's curvature ranking is distorted by the
    rescale (H_ii picks up 1/c^2); the stack-fed hetero ranking is
    invariant (H_ii * var_i cancels the scale) and verifies the tensor
    that actually hurts, winning at the same NWC budget.
    """
    from repro.experiments.config import SMOKE
    from repro.experiments.model_zoo import load_workload
    from repro.experiments.sweeps import run_method_sweep
    from repro.nn.layers import Conv2d

    zoo = load_workload(SMOKE.workload("lenet-digits"))
    convs = [m for _, m in zoo.model.named_modules() if isinstance(m, Conv2d)]
    c = 8.0
    convs[0].weight.data *= c
    convs[0].bias.data *= c
    convs[1].weight.data /= c

    plan = plan_for(zoo, sense_samples=128, technology="pcm-comp",
                    read_time=ONE_MONTH, nwc_targets=(0.3,),
                    methods=("swim", "hetero_swim"))
    outcome = run_method_sweep(
        zoo, plan, mc_runs=12, rng=RngStream(23).child("demo"),
        eval_samples=200,
    )
    swim = float(outcome.curves["swim"].means()[0])
    hetero = float(outcome.curves["hetero_swim"].means()[0])
    # Paired draws: both methods deploy against identical noise, so the
    # difference is pure selection quality.
    assert hetero > swim + 0.01, (swim, hetero)
