"""WeightSpace indexing, ranking rules, and granularity grouping.

``rank_descending`` is checked against its oracles, ``np.lexsort((-tie,
-scores))`` and ``np.argsort(-scores, kind="stable")``, on inputs where
ties are the common case, as they are in the planner's real scores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import WeightSpace, cumulative_groups, rank_descending
from repro.nn.models import lenet, mlp


def test_weight_space_from_model_covers_weights(rng):
    model = lenet(rng.child("m"))
    space = WeightSpace.from_model(model)
    params = dict(model.named_parameters())
    want = sum(params[name].size for name in space.names)
    assert space.total_size == want
    assert all(name.endswith(".weight") for name in space.names)


def test_flatten_unflatten_roundtrip(rng):
    model = mlp(rng.child("m"), (6, 8, 4))
    space = WeightSpace.from_model(model)
    flat = rng.child("v").normal(size=space.total_size)
    tensors = space.unflatten(flat)
    np.testing.assert_array_equal(space.flatten(tensors), flat)
    for index, value in enumerate(flat):
        name, inner = space.locate(index)
        assert tensors[name].reshape(-1)[inner] == value
    with pytest.raises(IndexError):
        space.locate(space.total_size)


def test_flatten_validates_shapes(rng):
    model = mlp(rng.child("m"), (6, 8, 4))
    space = WeightSpace.from_model(model)
    bad = {name: np.zeros((1,)) for name in space.names}
    with pytest.raises(ValueError, match="shape"):
        space.flatten(bad)


def test_unflatten_validates_length(rng):
    model = mlp(rng.child("m"), (6, 8, 4))
    space = WeightSpace.from_model(model)
    with pytest.raises(ValueError, match="shape"):
        space.unflatten(np.zeros(space.total_size + 1))


def test_masks_from_indices_selects_exactly(rng):
    model = mlp(rng.child("m"), (6, 8, 4))
    space = WeightSpace.from_model(model)
    indices = np.array([0, 5, space.total_size - 1])
    masks = space.masks_from_indices(indices)
    flat = space.flatten({k: v.astype(np.float64) for k, v in masks.items()})
    assert flat.sum() == 3
    assert flat[0] == 1 and flat[5] == 1 and flat[-1] == 1


def test_gather_from_model_matches_parameters(rng):
    model = mlp(rng.child("m"), (6, 8, 4))
    space = WeightSpace.from_model(model)
    flat = space.gather_from_model(model, "data")
    params = dict(model.named_parameters())
    want = np.concatenate([params[n].data.reshape(-1) for n in space.names])
    np.testing.assert_array_equal(flat, want)


def test_rank_descending_orders_scores():
    order = rank_descending(np.array([0.1, 3.0, 2.0]))
    np.testing.assert_array_equal(order, [1, 2, 0])


def test_rank_descending_tie_break_by_magnitude():
    """Paper Sec. 3.2: equal curvature -> larger magnitude first."""
    scores = np.array([1.0, 1.0, 1.0, 2.0])
    magnitude = np.array([0.5, 2.0, 1.0, 0.1])
    order = rank_descending(scores, tie_break=magnitude)
    np.testing.assert_array_equal(order, [3, 1, 2, 0])


def test_rank_descending_tie_break_shape_checked():
    with pytest.raises(ValueError, match="tie_break"):
        rank_descending(np.zeros(3), tie_break=np.zeros(4))


def test_cumulative_groups_five_percent():
    order = np.arange(100)
    groups = list(cumulative_groups(order, 0.05))
    assert len(groups) == 20
    assert groups[0].size == 5
    assert groups[-1].size == 100
    np.testing.assert_array_equal(groups[2], np.arange(15))


def test_cumulative_groups_final_partial():
    order = np.arange(13)
    groups = list(cumulative_groups(order, 0.4))
    sizes = [g.size for g in groups]
    assert sizes == [5, 10, 13]


def test_cumulative_groups_validates_granularity():
    with pytest.raises(ValueError, match="granularity"):
        list(cumulative_groups(np.arange(5), 0.0))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    granularity=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10000),
)
def test_cumulative_groups_properties(n, granularity, seed):
    """Groups are prefixes, strictly growing, and end with everything."""
    order = np.random.default_rng(seed).permutation(n)
    groups = list(cumulative_groups(order, granularity))
    assert groups[-1].size == n
    previous = 0
    for group in groups:
        assert group.size > previous
        np.testing.assert_array_equal(group, order[: group.size])
        previous = group.size


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10000))
def test_rank_descending_is_permutation(seed):
    gen = np.random.default_rng(seed)
    scores = gen.normal(size=50)
    ties = gen.normal(size=50)
    order = rank_descending(scores, tie_break=np.abs(ties))
    assert sorted(order) == list(range(50))
    ranked = scores[order]
    assert np.all(np.diff(ranked) <= 1e-12)


def _lexsort_oracle(scores, tie_break=None):
    """The ranking rule as NumPy's stable sorts state it."""
    if tie_break is None:
        return np.argsort(-scores, kind="stable")
    return np.lexsort((-tie_break, -scores))


def _assert_ranks_as_oracle(scores, tie_break=None):
    order = rank_descending(scores, tie_break)
    oracle = _lexsort_oracle(scores, tie_break)
    assert order.dtype == oracle.dtype
    np.testing.assert_array_equal(order, oracle)


#: Values that collide under a descending sort: zeros of both signs,
#: both infinities, NaNs of both signs, and repeated finite values.
_TIE_HEAVY = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan,
                       -np.nan, 1e-30, -1e-30])


@pytest.mark.parametrize("score_dtype,tie_dtype", [
    (np.float64, np.float64), (np.float32, np.float32),
    (np.float32, np.float64), (np.float64, np.float32),
])
@pytest.mark.parametrize("size", [0, 1, 2, 7, 400])
def test_rank_descending_matches_lexsort_on_tie_heavy_inputs(
        score_dtype, tie_dtype, size):
    gen = np.random.default_rng(size)
    scores = gen.choice(_TIE_HEAVY, size=size).astype(score_dtype)
    tie = gen.choice(_TIE_HEAVY, size=size).astype(tie_dtype)
    _assert_ranks_as_oracle(scores, tie)
    _assert_ranks_as_oracle(scores)


def test_rank_descending_signed_zeros_and_nan_place_as_lexsort():
    """-0.0 ties with +0.0 (so the tie key decides), and NaN ranks last
    in either key."""
    scores = np.array([-0.0, np.nan, 0.0, -np.inf, np.inf, 0.0])
    tie = np.array([1.0, 5.0, 2.0, 0.0, np.nan, -0.0])
    np.testing.assert_array_equal(rank_descending(scores, tie),
                                  [4, 2, 0, 5, 3, 1])
    np.testing.assert_array_equal(rank_descending(scores),
                                  [4, 0, 2, 5, 3, 1])
    _assert_ranks_as_oracle(scores, tie)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=400),
    decimals=st.integers(min_value=0, max_value=2),
    special=st.floats(min_value=0.0, max_value=0.2),
    dtypes=st.sampled_from([(np.float64, np.float64),
                            (np.float32, np.float32),
                            (np.float64, np.float32)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rank_descending_matches_lexsort_on_rounded_arrays(
        n, decimals, special, dtypes, seed):
    """Rounding makes ties (and -0.0) common; a share of each key is
    replaced by infinities, NaNs and signed zeros."""
    gen = np.random.default_rng(seed)
    keys = []
    for dtype in dtypes:
        key = np.round(gen.normal(size=n), decimals)
        hit = gen.random(n) < special
        key[hit] = gen.choice([np.inf, -np.inf, np.nan, -0.0, 0.0],
                              size=int(hit.sum()))
        keys.append(key.astype(dtype))
    scores, tie = keys
    _assert_ranks_as_oracle(scores, tie)
    _assert_ranks_as_oracle(scores)


def test_rank_descending_matches_lexsort_on_zoo_scores():
    """The smoke LeNet's real scores: curvature x a drifted variance map
    (``hetero_swim``), plain curvature with and without the magnitude
    tie-break, and magnitude.  About a quarter of the curvature is
    exactly zero, so ties decide much of every order."""
    from repro.experiments.config import SMOKE
    from repro.experiments.model_zoo import load_workload
    from repro.plan import PlanArtifactCache, PlanEngine, PlanRequest

    zoo = load_workload(SMOKE.workload("lenet-digits"))
    engine = PlanEngine.from_zoo(zoo, SMOKE.sense_samples,
                                 cache=PlanArtifactCache(disk=False))
    scores, tie = engine.curvature()
    variance = engine.variance(PlanRequest(
        technology="pcm-comp", read_time=2.592e6,
        weight_bits=zoo.spec.weight_bits,
    ))
    assert np.count_nonzero(scores == 0) > scores.size // 10
    _assert_ranks_as_oracle(scores * variance, tie)
    _assert_ranks_as_oracle(scores, tie)
    _assert_ranks_as_oracle(scores)
    _assert_ranks_as_oracle(tie)


def test_rank_descending_rejects_a_matrix():
    with pytest.raises(ValueError, match="flat"):
        rank_descending(np.zeros((2, 3)))
