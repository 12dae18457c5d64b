"""Weight-sensitivity metrics: SWIM's second derivative and the baselines.

The paper's central claim (Sec. 3.2): because device variation is
independent of the programmed value, the expected loss increase from
perturbing weight ``w_i`` is ``0.5 * H_ii * E[dw^2]`` — so the *diagonal
Hessian* ranks weights, not the magnitude.  Each scorer below maps a
trained model to a flat score vector (higher = write-verify first) over a
:class:`~repro.core.selection.WeightSpace`; SWIM additionally supplies the
magnitude tie-breaker the paper specifies.

Scorers beyond the paper's three (gradient magnitude and the Fisher/
squared-gradient proxy) are the usual cheap curvature surrogates.  The
deterministic scorers are ranked through
:class:`~repro.plan.PlanEngine`, which caches each order per model and
sense set; ``random`` re-draws its order per Monte Carlo trial.
"""

from __future__ import annotations

import numpy as np

from repro.core.second_derivative import (
    accumulate_second_derivatives,
    compute_gradients,
)

__all__ = [
    "SensitivityScorer",
    "SwimScorer",
    "MagnitudeScorer",
    "RandomScorer",
    "GradientScorer",
    "FisherScorer",
]


class SensitivityScorer:
    """Base interface: produce flat scores (and optional tie-breaker)."""

    def scores(self, model, space, x, y, rng=None):
        """Return a flat score vector aligned with ``space``."""
        raise NotImplementedError

    def tie_break(self, model, space):
        """Secondary key (same alignment); default: none."""
        return None

    def ranking(self, model, space, x, y, rng=None):
        """Full descending ranking (scores + tie-break applied)."""
        from repro.core.selection import rank_descending

        return rank_descending(
            self.scores(model, space, x, y, rng=rng),
            self.tie_break(model, space),
        )


class SwimScorer(SensitivityScorer):
    """The paper's metric: single-pass diagonal second derivative.

    Parameters
    ----------
    loss:
        Loss object (default cross-entropy).
    batch_size, max_batches:
        Curvature is accumulated over up to ``max_batches`` training
        batches; one large batch matches the paper's single pass.

    The tie-breaker is the Sec. 3.2 rule: the larger magnitude first.
    """

    def __init__(self, loss=None, batch_size=256, max_batches=None):
        self.loss = loss
        self.batch_size = batch_size
        self.max_batches = max_batches

    def scores(self, model, space, x, y, rng=None):
        curvature = accumulate_second_derivatives(
            model, x, y, loss=self.loss,
            batch_size=self.batch_size, max_batches=self.max_batches,
        )
        return space.flatten({name: curvature[name] for name in space.names})

    def tie_break(self, model, space):
        return np.abs(space.gather_from_model(model, "data"))


class MagnitudeScorer(SensitivityScorer):
    """Baseline: larger |w| first (shown weak in Fig. 1a)."""

    def scores(self, model, space, x, y, rng=None):
        return np.abs(space.gather_from_model(model, "data"))


class RandomScorer(SensitivityScorer):
    """Baseline: a fresh uniformly random order per call."""

    def scores(self, model, space, x, y, rng=None):
        if rng is None:
            raise ValueError("RandomScorer requires an rng")
        generator = rng.generator if hasattr(rng, "generator") else rng
        return generator.permutation(space.total_size).astype(np.float64)


class GradientScorer(SensitivityScorer):
    """Ablation: first-derivative magnitude |dF/dw|.

    Near convergence gradients are ~0, which is exactly why the paper
    reaches for second derivatives; this scorer quantifies that argument.
    """

    def __init__(self, loss=None):
        self.loss = loss

    def scores(self, model, space, x, y, rng=None):
        grads = compute_gradients(model, x, y, loss=self.loss)
        return np.abs(space.flatten({n: grads[n] for n in space.names}))


class FisherScorer(SensitivityScorer):
    """Ablation: empirical Fisher (squared per-batch gradients summed).

    A common Hessian surrogate; cheaper than exact curvature but blind to
    curvature directions where the gradient vanishes.
    """

    def __init__(self, loss=None, batch_size=64, max_batches=8):
        self.loss = loss
        self.batch_size = batch_size
        self.max_batches = max_batches

    def scores(self, model, space, x, y, rng=None):
        from repro.nn.trainer import iterate_batches

        total = np.zeros(space.total_size, dtype=np.float64)
        n_batches = 0
        for xb, yb in iterate_batches(x, y, self.batch_size):
            grads = compute_gradients(model, xb, yb, loss=self.loss)
            flat = space.flatten({n: grads[n] for n in space.names})
            total += np.square(flat)
            n_batches += 1
            if self.max_batches is not None and n_batches >= self.max_batches:
                break
        return total
