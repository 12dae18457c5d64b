"""Sensitivity scorers: determinism and discriminative power."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.second_derivative import accumulate_second_derivatives
from repro.core.selection import WeightSpace, rank_descending
from repro.core.sensitivity import (
    FisherScorer,
    GradientScorer,
    MagnitudeScorer,
    RandomScorer,
    SwimScorer,
)
from repro.nn.models import mlp
from repro.utils.stats import spearman

from .helpers import fd_diagonal_hessian, to_float64


@pytest.fixture
def setup(rng):
    model = to_float64(mlp(rng.child("m"), (8, 12, 4), activation="relu"))
    space = WeightSpace.from_model(model)
    x = rng.child("x").normal(size=(32, 8))
    y = rng.child("y").integers(0, 4, size=32)
    return model, space, x, y


def test_swim_scores_match_direct_curvature(setup):
    model, space, x, y = setup
    scorer = SwimScorer(batch_size=x.shape[0])
    scores = scorer.scores(model, space, x, y)
    curv = accumulate_second_derivatives(model, x, y)
    want = space.flatten({n: curv[n] for n in space.names})
    np.testing.assert_allclose(scores, want, rtol=1e-10)


def test_swim_ranking_is_deterministic(setup):
    model, space, x, y = setup
    scorer = SwimScorer()
    a = scorer.ranking(model, space, x, y)
    b = scorer.ranking(model, space, x, y)
    np.testing.assert_array_equal(a, b)


def test_swim_tie_break_toggle(setup):
    """Sec. 3.2's tie-break (``swim``) vs none (``untied_swim``): both
    orders walk the same scores, and the tie-break only reorders ties."""
    model, space, x, y = setup
    scorer = SwimScorer(batch_size=x.shape[0])
    scores = scorer.scores(model, space, x, y)
    tie = scorer.tie_break(model, space)
    np.testing.assert_array_equal(
        tie, np.abs(space.gather_from_model(model, "data"))
    )
    tied = rank_descending(scores, tie)
    untied = rank_descending(scores)
    np.testing.assert_array_equal(tied, scorer.ranking(model, space, x, y))
    np.testing.assert_array_equal(scores[tied], scores[untied])
    # Where every score ties, the larger magnitude goes first; untied,
    # the order stays the index order.
    flat = np.zeros_like(scores)
    np.testing.assert_array_equal(rank_descending(flat, tie),
                                  np.argsort(-tie, kind="stable"))
    np.testing.assert_array_equal(rank_descending(flat),
                                  np.arange(scores.size))


def test_magnitude_scores_are_absolute_weights(setup):
    model, space, x, y = setup
    scores = MagnitudeScorer().scores(model, space, x, y)
    want = np.abs(space.gather_from_model(model, "data"))
    np.testing.assert_array_equal(scores, want)


def test_random_scorer_requires_rng(setup):
    model, space, x, y = setup
    with pytest.raises(ValueError, match="rng"):
        RandomScorer().scores(model, space, x, y)


def test_random_scorer_differs_across_streams(setup, rng):
    model, space, x, y = setup
    a = RandomScorer().scores(model, space, x, y, rng=rng.child("a"))
    b = RandomScorer().scores(model, space, x, y, rng=rng.child("b"))
    assert not np.array_equal(a, b)
    assert sorted(a) == list(range(space.total_size))


def test_swim_agrees_with_fd_reference_ranking(setup):
    """Spearman correlation between SWIM and the exact FD diagonal Hessian."""
    model, space, x, y = setup
    swim = SwimScorer(batch_size=x.shape[0]).scores(model, space, x, y)
    curv = fd_diagonal_hessian(model, x, y, eps=1e-3, param_names=space.names)
    fd = space.flatten({n: curv[n] for n in space.names})
    rho = spearman(swim, fd)
    assert rho > 0.8, f"rank agreement too weak: {rho}"


def test_gradient_scores_near_zero_at_convergence(setup, rng):
    """After training to (local) convergence gradients shrink; curvature
    stays informative — the paper's argument for second derivatives."""
    model, space, x, y = setup
    from repro.nn import SGD
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.trainer import Trainer, TrainConfig

    trainer = Trainer(SGD(model.parameters(), lr=0.2, momentum=0.9),
                      rng=rng.child("fit"))
    trainer.fit(model, x, y, config=TrainConfig(epochs=120, batch_size=32))
    grads = GradientScorer().scores(model, space, x, y)
    curv = SwimScorer(batch_size=x.shape[0]).scores(model, space, x, y)
    assert np.abs(grads).mean() < 1e-3
    assert curv.max() > np.abs(grads).mean()


def test_fisher_scores_nonnegative_and_finite(setup):
    model, space, x, y = setup
    scores = FisherScorer(batch_size=8, max_batches=3).scores(model, space, x, y)
    assert scores.shape == (space.total_size,)
    assert np.all(scores >= 0) and np.all(np.isfinite(scores))
