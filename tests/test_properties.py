"""Property-based tests (hypothesis) on framework-wide invariants.

Random layer stacks and random inputs probe invariants that unit tests
with fixed seeds could miss:

- gradients and curvature are always finite;
- curvature is non-negative for piecewise-linear nets + CE/MSE loss;
- forward passes are pure (same input -> same output, no cache leakage);
- weight override round-trips leave the model unchanged.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.utils.rng import RngStream

from .helpers import MSELoss


def _random_conv_stack(seed, depth):
    """A random (but always shape-valid) conv stack on 1x12x12 inputs."""
    rng = RngStream(seed).child("stack")
    gen = np.random.default_rng(seed)
    layers = []
    channels = 1
    size = 12
    for index in range(depth):
        choice = gen.integers(0, 4)
        if choice == 0 and size >= 5:
            out_ch = int(gen.integers(2, 5))
            layers.append(Conv2d(channels, out_ch, 3, padding=1,
                                 rng=rng.child("conv", index)))
            channels = out_ch
        elif choice == 1:
            layers.append(ReLU())
        elif choice == 2 and size >= 4:
            layers.append(MaxPool2d(2))
            size //= 2
        else:
            layers.append(BatchNorm2d(channels))
    layers.append(Flatten())
    features = channels * size * size
    layers.append(Linear(features, 4, rng=rng.child("head")))
    return Sequential(*layers)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10000), depth=st.integers(1, 6))
def test_random_stacks_finite_derivatives(seed, depth):
    model = _random_conv_stack(seed, depth)
    model.train()
    gen = np.random.default_rng(seed + 1)
    x = gen.normal(size=(3, 1, 12, 12))
    y = gen.integers(0, 4, size=3)
    loss = CrossEntropyLoss()
    loss(model(x), y)
    model.zero_grad()
    model.zero_curvature()
    grad_in = model.backward(loss.backward())
    curv_in = model.backward_second(loss.second())
    assert np.all(np.isfinite(grad_in))
    assert np.all(np.isfinite(curv_in))
    for _, p in model.named_parameters():
        assert np.all(np.isfinite(p.grad))
        assert np.all(np.isfinite(p.curvature))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10000))
def test_relu_linear_curvature_nonnegative(seed):
    """Piecewise-linear nets with convex losses: OBD curvature >= 0."""
    rng = RngStream(seed).child("m")
    model = Sequential(
        Linear(5, 8, rng=rng.child("a")),
        ReLU(),
        Linear(8, 6, rng=rng.child("b")),
        ReLU(),
        Linear(6, 3, rng=rng.child("c")),
    )
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(4, 5))
    y = gen.integers(0, 3, size=4)
    loss = CrossEntropyLoss()
    loss(model(x), y)
    model.zero_curvature()
    model.backward(loss.backward())
    curv_in = model.backward_second(loss.second())
    assert np.all(curv_in >= -1e-12)
    for _, p in model.named_parameters():
        assert np.all(p.curvature >= -1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10000))
def test_forward_is_pure(seed):
    model = _random_conv_stack(seed, 3)
    model.eval()
    gen = np.random.default_rng(seed + 2)
    x = gen.normal(size=(2, 1, 12, 12))
    np.testing.assert_array_equal(model(x), model(x))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10000))
def test_weight_override_roundtrip(seed):
    rng = RngStream(seed).child("m")
    layer = Linear(6, 4, rng=rng.child("l"))
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(3, 6)).astype(np.float32)
    clean = layer(x)
    layer.set_weight_override(gen.normal(size=(4, 6)).astype(np.float32))
    noisy = layer(x)
    layer.clear_weight_override()
    restored = layer(x)
    np.testing.assert_array_equal(clean, restored)
    assert not np.array_equal(clean, noisy)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10000))
def test_mse_curvature_additivity_over_outputs(seed):
    """Eq. 5's independence assumption is exact at the loss seed level:
    MSE curvature is constant regardless of predictions."""
    gen = np.random.default_rng(seed)
    outputs = gen.normal(size=(4, 5))
    targets = gen.normal(size=(4, 5))
    loss = MSELoss()
    loss(outputs, targets)
    second = loss.second()
    assert np.allclose(second, second.flat[0])
