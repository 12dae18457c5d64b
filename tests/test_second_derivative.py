"""Correctness of the single-pass second-derivative recursion (Sec. 3.3).

The recursion is *exact* in specific regimes and an approximation
elsewhere; these tests pin down both:

- exact for the last linear layer of any network (Eq. 8 has no cross
  terms: weight W_ji touches only output O_j);
- exact for every layer of a two-layer MLP under MSE loss (the loss
  Hessian w.r.t. outputs is diagonal and the network is one
  activation deep), for ReLU *and* smooth activations (tanh/sigmoid,
  exercising the g'' term of Eq. 9);
- a strong positive correlation with the true diagonal Hessian on deeper
  ReLU networks, where the method is approximate by design;
- structural properties: non-negativity for ReLU+CE networks, additivity
  over accumulation, invariance of ranking under output-preserving
  transformations;
- the cost: one forward, backward and curvature pass per layer, against
  two forward passes per parameter for finite differencing.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.second_derivative import (
    accumulate_second_derivatives,
    compute_gradients,
)
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import mlp
from repro.nn.module import Sequential
from repro.utils.stats import pearson

from .helpers import MSELoss, fd_diagonal_hessian, to_float64


def _last_layer_names(model):
    names = [name for name, _ in model.named_parameters()]
    return [n for n in names if n.rsplit(".", 1)[0] == names[-1].rsplit(".", 1)[0]]


def test_last_layer_exact_cross_entropy(rng):
    """Eq. 8 is exact for last-layer weights under any loss."""
    model = to_float64(mlp(rng.child("m"), (6, 10, 5), activation="relu"))
    x = rng.child("x").normal(size=(8, 6))
    y = rng.child("y").integers(0, 5, size=8)
    loss = CrossEntropyLoss()
    got = accumulate_second_derivatives(model, x, y, loss=loss)
    last = _last_layer_names(model)
    want = fd_diagonal_hessian(model, x, y, loss=loss, param_names=last, eps=1e-4)
    for name in last:
        np.testing.assert_allclose(got[name], want[name], atol=1e-5, rtol=1e-3)


@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
def test_two_layer_mse_exact_everywhere(rng, activation):
    """Two-layer MLP + MSE: the recursion is exact for *all* parameters.

    This is the strongest available exactness check and exercises the
    smooth-activation g'' term for tanh/sigmoid.
    """
    model = to_float64(mlp(rng.child("m"), (5, 7, 4), activation=activation))
    x = rng.child("x").normal(size=(6, 5))
    targets = rng.child("t").normal(size=(6, 4))
    loss = MSELoss()
    got = accumulate_second_derivatives(model, x, targets, loss=loss)
    want = fd_diagonal_hessian(model, x, targets, loss=loss, eps=1e-4)
    for name in want:
        np.testing.assert_allclose(
            got[name], want[name], atol=1e-4, rtol=1e-3,
            err_msg=f"curvature mismatch for {name}",
        )


def test_conv_last_stage_exact(rng):
    """Conv feature extractor + linear head: head curvature is exact."""
    model = to_float64(
        Sequential(
            Conv2d(1, 3, 3, padding=1, rng=rng.child("c")),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(3 * 4 * 4, 5, rng=rng.child("fc")),
        )
    )
    x = rng.child("x").normal(size=(4, 1, 8, 8))
    y = rng.child("y").integers(0, 5, size=4)
    loss = CrossEntropyLoss()
    got = accumulate_second_derivatives(model, x, y, loss=loss)
    want = fd_diagonal_hessian(
        model, x, y, loss=loss, param_names=["4.weight", "4.bias"], eps=1e-4
    )
    np.testing.assert_allclose(got["4.weight"], want["4.weight"], atol=1e-5, rtol=1e-3)
    np.testing.assert_allclose(got["4.bias"], want["4.bias"], atol=1e-5, rtol=1e-3)


def test_curvature_pass_is_one_pass_per_layer(rng, monkeypatch):
    """Sec. 3.3's cost claim as a count: all diagonal second derivatives
    cost one forward, one backward and one backward_second per weighted
    layer, where finite differencing (Eq. 6) needs two forward passes
    per parameter."""
    model = Sequential(
        Conv2d(1, 3, 3, padding=1, rng=rng.child("c")),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(3 * 4 * 4, 5, rng=rng.child("fc")),
    )
    x = rng.child("x").normal(size=(4, 1, 8, 8))
    y = rng.child("y").integers(0, 5, size=4)
    weighted, passes = (0, 4), ("forward", "backward", "backward_second")
    calls = Counter()
    for index in weighted:
        for name in passes:
            method = getattr(model[index], name)

            def counted(*args, _method=method, _key=(index, name)):
                calls[_key] += 1
                return _method(*args)

            monkeypatch.setattr(model[index], name, counted)

    accumulate_second_derivatives(model, x, y)
    assert calls == {(index, name): 1 for index in weighted for name in passes}

    calls.clear()
    fd_diagonal_hessian(model, x, y)
    assert calls[(0, "forward")] == 2 * model.num_parameters() + 1
    assert calls[(0, "backward")] == calls[(0, "backward_second")] == 0


def test_deep_relu_correlation_with_true_hessian(rng):
    """On a 3-layer ReLU net the method is approximate but must correlate."""
    model = to_float64(mlp(rng.child("m"), (6, 12, 10, 4), activation="relu"))
    x = rng.child("x").normal(size=(16, 6))
    y = rng.child("y").integers(0, 4, size=16)
    loss = CrossEntropyLoss()
    got = accumulate_second_derivatives(model, x, y, loss=loss)
    want = fd_diagonal_hessian(model, x, y, loss=loss, eps=1e-3)
    got_flat = np.concatenate([got[n].ravel() for n in sorted(got)])
    want_flat = np.concatenate([want[n].ravel() for n in sorted(want)])
    r = pearson(got_flat, want_flat)
    assert r > 0.8, f"OBD curvature should track the true diagonal Hessian, r={r}"


def test_relu_cross_entropy_curvature_nonnegative(rng):
    """CE seeds p(1-p) >= 0; ReLU/linear propagation preserves the sign."""
    model = to_float64(mlp(rng.child("m"), (8, 16, 16, 5), activation="relu"))
    x = rng.child("x").normal(size=(12, 8))
    y = rng.child("y").integers(0, 5, size=12)
    curv = accumulate_second_derivatives(model, x, y)
    for name, values in curv.items():
        assert np.all(values >= 0.0), f"negative curvature in {name}"


def test_accumulate_averages_batches(rng):
    model = to_float64(mlp(rng.child("m"), (5, 8, 3), activation="relu"))
    x = rng.child("x").normal(size=(8, 5))
    y = rng.child("y").integers(0, 3, size=8)
    acc = accumulate_second_derivatives(model, x, y, batch_size=4)
    first = accumulate_second_derivatives(model, x[:4], y[:4])
    second = accumulate_second_derivatives(model, x[4:], y[4:])
    for name in acc:
        np.testing.assert_allclose(
            acc[name], 0.5 * (first[name] + second[name]), rtol=1e-10
        )


def test_gradients_interface_matches_backward(rng):
    model = to_float64(mlp(rng.child("m"), (5, 8, 3), activation="relu"))
    x = rng.child("x").normal(size=(8, 5))
    y = rng.child("y").integers(0, 3, size=8)
    grads = compute_gradients(model, x, y)
    for name, param in model.named_parameters():
        np.testing.assert_allclose(grads[name], param.grad)


def test_curvature_zeroed_between_calls(rng):
    model = to_float64(mlp(rng.child("m"), (5, 8, 3), activation="relu"))
    x = rng.child("x").normal(size=(8, 5))
    y = rng.child("y").integers(0, 3, size=8)
    first = accumulate_second_derivatives(model, x, y)
    second = accumulate_second_derivatives(model, x, y)
    for name in first:
        np.testing.assert_allclose(first[name], second[name], rtol=1e-12)


def test_smooth_activation_requires_backward_first(rng):
    """backward_second without backward must fail for smooth activations."""
    model = to_float64(mlp(rng.child("m"), (4, 6, 3), activation="tanh"))
    x = rng.child("x").normal(size=(4, 4))
    y = rng.child("y").integers(0, 3, size=4)
    loss = CrossEntropyLoss()
    loss(model(x), y)
    with pytest.raises(RuntimeError, match="backward"):
        model.backward_second(loss.second())


def test_curvature_scales_with_loss_scale(rng):
    """Scaling the loss scales curvature linearly (sanity of seeding)."""

    class ScaledCE(CrossEntropyLoss):
        def forward(self, logits, targets):
            return 3.0 * super().forward(logits, targets)

        def backward(self):
            return 3.0 * super().backward()

        def second(self):
            return 3.0 * super().second()

    model = to_float64(mlp(rng.child("m"), (5, 7, 3), activation="relu"))
    x = rng.child("x").normal(size=(6, 5))
    y = rng.child("y").integers(0, 3, size=6)
    base = accumulate_second_derivatives(model, x, y, loss=CrossEntropyLoss())
    scaled = accumulate_second_derivatives(model, x, y, loss=ScaledCE())
    for name in base:
        np.testing.assert_allclose(scaled[name], 3.0 * base[name], rtol=1e-10)
