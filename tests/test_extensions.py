"""Extensions: spatial variation, retention drift, hetero-SWIM, Eq. 5."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import (
    RetentionModel,
    SpatialVariationModel,
    get_technology,
)
from repro.core import SwimScorer, WeightSpace, rank_descending
from repro.nn.models import mlp
from repro.plan import PlanArtifactCache, PlanEngine, PlanRequest
from repro.utils.tables import format_duration

from .helpers import MSELoss, to_float64


# ------------------------------------------------------------- spatial

def test_spatial_marginal_std_matches_sigma():
    # global_fraction=0: the wafer offset is constant within one field, so
    # the single-field std only reflects the local component.
    model = SpatialVariationModel(sigma=0.1, correlation_length=6.0,
                                  global_fraction=0.0)
    rng = np.random.default_rng(0)
    field = model.sample_field(20000, rng)
    assert field.std() == pytest.approx(0.1 * 15, rel=0.1)


def test_spatial_correlation_decays_with_lag():
    model = SpatialVariationModel(sigma=0.1, correlation_length=6.0,
                                  global_fraction=0.0)
    near = model.correlation_at_lag(1)
    far = model.correlation_at_lag(40)
    assert near > 0.5
    assert far < near - 0.3


def test_spatial_zero_length_is_iid():
    model = SpatialVariationModel(sigma=0.1, correlation_length=0.0,
                                  global_fraction=0.0)
    assert abs(model.correlation_at_lag(1)) < 0.1


def test_spatial_global_component_shifts_everything():
    model = SpatialVariationModel(sigma=0.1, correlation_length=0.0,
                                  global_fraction=0.9)
    rng = np.random.default_rng(3)
    fields = [model.sample_field(500, np.random.default_rng(s)).mean()
              for s in range(30)]
    # Array means vary strongly run to run when global fraction is high.
    assert np.std(fields) > 0.1


def test_spatial_validation():
    with pytest.raises(ValueError):
        SpatialVariationModel(sigma=-0.1)
    with pytest.raises(ValueError):
        SpatialVariationModel(global_fraction=1.0)


def test_spatial_zero_sigma_is_zero_field():
    model = SpatialVariationModel(sigma=0.0)
    field = model.sample_field(100, np.random.default_rng(0))
    np.testing.assert_array_equal(field, 0.0)


# ------------------------------------------------------------ retention

def test_retention_identity_at_t0():
    model = RetentionModel(nu=0.05, sigma_nu=0.0, relaxation_sigma=0.0)
    levels = np.linspace(0, 15, 16)
    out = model.apply(levels, t=model.t0, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out, levels)


def test_retention_drifts_down_over_time():
    model = RetentionModel(nu=0.05, sigma_nu=0.0, relaxation_sigma=0.0)
    levels = np.full(1000, 10.0)
    day = model.apply(levels, t=86400.0, rng=np.random.default_rng(0))
    assert np.all(day < levels)
    month = model.apply(levels, t=30 * 86400.0, rng=np.random.default_rng(0))
    assert month.mean() < day.mean()


def test_retention_mean_shift_formula():
    model = RetentionModel(nu=0.05, sigma_nu=0.0, relaxation_sigma=0.0)
    levels = np.full(200, 8.0)
    t = 3600.0
    drifted = model.apply(levels, t, rng=np.random.default_rng(0))
    want = model.mean_relative_shift(t)
    assert (1 - drifted.mean() / 8.0) == pytest.approx(want, rel=1e-9)


def test_retention_relaxation_adds_spread():
    quiet = RetentionModel(nu=0.0, sigma_nu=0.0, relaxation_sigma=0.0)
    noisy = RetentionModel(nu=0.0, sigma_nu=0.0, relaxation_sigma=0.02)
    levels = np.full(5000, 8.0)
    a = quiet.apply(levels, 1e4, np.random.default_rng(1))
    b = noisy.apply(levels, 1e4, np.random.default_rng(1))
    assert a.std() == 0.0
    assert b.std() > 0.05


def test_retention_validates_time():
    model = RetentionModel()
    with pytest.raises(ValueError, match="t0"):
        model.apply(np.ones(3), t=0.5, rng=np.random.default_rng(0))


# ---------------------------------------------------------- rendering

def test_format_duration_units():
    assert format_duration(0.5).endswith("ms")
    assert format_duration(90) == "1min 30s"
    assert format_duration(86400 * 6.5).startswith("6d")


# ---------------------------------------------------------- hetero-SWIM
# ``hetero_swim`` is planned by PlanEngine: the shared curvature pass
# times the request's per-weight variance map, ranked with SWIM's
# magnitude tie-break.

@pytest.fixture
def setup(rng):
    model = to_float64(mlp(rng.child("m"), (6, 10, 4), activation="relu"))
    space = WeightSpace.from_model(model)
    x = rng.child("x").normal(size=(24, 6))
    y = rng.child("y").integers(0, 4, size=24)
    return model, space, x, y


def _engine(setup, variance=None, monkeypatch=None):
    """A PlanEngine over the setup model; ``variance`` pins its
    variance stage to a fixed flat map."""
    model, space, x, y = setup
    engine = PlanEngine(model, x, y, cache=PlanArtifactCache(disk=False),
                        curvature_batch_size=24)
    if variance is not None:
        monkeypatch.setattr(engine, "variance",
                            lambda request, resolved=None: variance)
    return engine


def test_hetero_reduces_to_swim_with_constant_variance(setup, monkeypatch):
    model, space, x, y = setup
    engine = _engine(setup, np.ones(space.total_size), monkeypatch)
    plan = engine.plan(PlanRequest(methods=("swim", "hetero_swim"),
                                   sigma=0.1))
    np.testing.assert_array_equal(plan.order("hetero_swim"),
                                  plan.order("swim"))


def test_hetero_variance_reweights_ranking(setup, monkeypatch):
    model, space, x, y = setup
    variance = np.ones(space.total_size)
    variance[: space.total_size // 2] = 100.0  # first tensor much noisier
    engine = _engine(setup, variance, monkeypatch)
    order = engine.plan(
        PlanRequest(methods=("hetero_swim",), sigma=0.1)
    ).order("hetero_swim")
    scorer = SwimScorer(batch_size=24)
    plain = scorer.scores(model, space, x, y)
    tie = scorer.tie_break(model, space)
    np.testing.assert_array_equal(order, rank_descending(plain * variance, tie))
    assert not np.array_equal(order, rank_descending(plain, tie))


def test_hetero_technology_constructor_path(setup):
    """technology= derives mapping + stack; without a read time the
    stack's map reduces exactly to the mapping-config variance."""
    engine = _engine(setup)
    fefet = get_technology("fefet")
    by_tech = PlanRequest(methods=("hetero_swim",), technology="fefet")
    _, device, mapping, stack = by_tech.resolve()
    assert device == fefet.device_config() and stack is not None
    by_mapping = PlanRequest(methods=("hetero_swim",), sigma=fefet.sigma,
                             device_bits=fefet.bits)
    np.testing.assert_array_equal(engine.variance(by_tech),
                                  engine.variance(by_mapping))
    np.testing.assert_array_equal(
        engine.plan(by_tech).order("hetero_swim"),
        engine.plan(by_mapping).order("hetero_swim"),
    )
    # At a drifted read time the stack path diverges from the constant map.
    drifted = PlanRequest(methods=("hetero_swim",), technology="pcm",
                          read_time=2.592e6)
    assert not np.allclose(engine.variance(drifted),
                           engine.variance(by_tech))


def test_variance_map_uses_per_tensor_scales(setup):
    model, space, x, y = setup
    # Make the two weight tensors very different in magnitude.
    params = dict(model.named_parameters())
    params[space.names[0]].data *= 10.0
    variance = _engine(setup).variance(
        PlanRequest(methods=("hetero_swim",), sigma=0.1)
    )
    per_tensor = space.unflatten(variance)
    v0 = per_tensor[space.names[0]].flat[0]
    v1 = per_tensor[space.names[1]].flat[0]
    assert v0 > v1 * 10


def test_expected_loss_increase_matches_monte_carlo(rng):
    """Eq. 5 vs the truth on a converged two-layer MSE model.

    This is the regime where the paper's approximation is exact: the
    gradient vanishes (trained to convergence, killing the linear Taylor
    term's Monte Carlo noise) and the loss is quadratic-dominated.  For
    independent zero-mean perturbations, ``E[dw' H dw] = sum_i H_ii
    var_i`` holds for *any* Hessian, so the diagonal estimate predicts
    the mean loss increase.
    """
    from repro.nn import SGD

    model = to_float64(mlp(rng.child("m"), (5, 8, 3), activation="tanh"))
    x = rng.child("x").normal(size=(32, 5))
    targets = rng.child("t").normal(size=(32, 3))
    loss = MSELoss()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    for _ in range(400):
        value = loss(model(x), targets)
        model.zero_grad()
        model.backward(loss.backward())
        optimizer.step()
    base = loss(model(x), targets)

    space = WeightSpace.from_model(model)
    curvature = SwimScorer(batch_size=32, loss=MSELoss()).scores(
        model, space, x, targets
    )
    sigma_w = 0.01
    predicted = 0.5 * (curvature * sigma_w ** 2).sum()  # Eq. 5

    params = dict(model.named_parameters())
    gen = np.random.default_rng(7)
    originals = {n: params[n].data.copy() for n in space.names}
    increases = []
    for _ in range(500):
        for name in space.names:
            params[name].data = originals[name] + gen.normal(
                0.0, sigma_w, size=originals[name].shape
            )
        increases.append(loss(model(x), targets) - base)
    for name in space.names:
        params[name].data = originals[name]
    measured = float(np.mean(increases))
    assert measured > 0
    assert predicted == pytest.approx(measured, rel=0.35)
