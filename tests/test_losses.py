"""Loss functions: values, gradients, and curvature seeds vs finite diffs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss

from .helpers import MSELoss


def _fd_on_logits(loss_fn, logits, targets, eps=1e-6):
    """Central-difference gradient and diagonal Hessian w.r.t. logits."""
    grad = np.zeros_like(logits)
    curv = np.zeros_like(logits)
    base = loss_fn(logits, targets)
    flat = logits.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = loss_fn(logits, targets)
        flat[i] = orig - eps
        f_minus = loss_fn(logits, targets)
        flat[i] = orig
        grad.reshape(-1)[i] = (f_plus - f_minus) / (2 * eps)
        curv.reshape(-1)[i] = (f_plus - 2 * base + f_minus) / (eps * eps)
    return grad, curv


def test_cross_entropy_value_matches_manual(rng):
    logits = rng.child("l").normal(size=(4, 3))
    targets = np.array([0, 2, 1, 0])
    loss = CrossEntropyLoss()
    value = loss(logits, targets)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -np.log(probs[np.arange(4), targets]).mean()
    assert value == pytest.approx(want, rel=1e-10)


def test_cross_entropy_gradient_matches_fd(rng):
    logits = rng.child("l").normal(size=(5, 4))
    targets = rng.child("t").integers(0, 4, size=5)
    loss = CrossEntropyLoss()
    loss(logits, targets)
    got = loss.backward()
    want, _ = _fd_on_logits(CrossEntropyLoss(), logits, targets, eps=1e-6)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_cross_entropy_second_matches_fd(rng):
    """The corrected Eq. 11: d2F/dO^2 = p (1 - p) / N."""
    logits = rng.child("l").normal(size=(3, 5))
    targets = rng.child("t").integers(0, 5, size=3)
    loss = CrossEntropyLoss()
    loss(logits, targets)
    got = loss.second()
    _, want = _fd_on_logits(CrossEntropyLoss(), logits, targets, eps=1e-4)
    np.testing.assert_allclose(got, want, atol=1e-6, rtol=1e-4)


def test_cross_entropy_second_is_p_one_minus_p(rng):
    logits = rng.child("l").normal(size=(2, 3))
    targets = np.array([0, 1])
    loss = CrossEntropyLoss()
    loss(logits, targets)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(loss.second(), probs * (1 - probs) / 2,
                               rtol=1e-10)


def test_cross_entropy_numerical_stability():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    targets = np.array([0, 1])
    loss = CrossEntropyLoss()
    value = loss(logits, targets)
    assert np.isfinite(value) and value == pytest.approx(0.0, abs=1e-8)
    assert np.all(np.isfinite(loss.backward()))
    assert np.all(np.isfinite(loss.second()))


def test_cross_entropy_input_validation(rng):
    loss = CrossEntropyLoss()
    with pytest.raises(ValueError, match="logits"):
        loss(np.zeros(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="targets"):
        loss(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(RuntimeError, match="forward"):
        CrossEntropyLoss().backward()


def test_mse_gradient_and_second(rng):
    outputs = rng.child("o").normal(size=(4, 3))
    targets = rng.child("t").normal(size=(4, 3))
    loss = MSELoss()
    loss(outputs, targets)
    got_grad = loss.backward()
    got_curv = loss.second()
    want_grad, want_curv = _fd_on_logits(MSELoss(), outputs, targets, eps=1e-6)
    np.testing.assert_allclose(got_grad, want_grad, atol=1e-8)
    np.testing.assert_allclose(got_curv, want_curv, atol=1e-3)
    # Paper Sec. 3.3: for L2 loss the curvature seed is a constant.
    assert np.allclose(got_curv, got_curv.flat[0])


def test_mse_shape_validation():
    loss = MSELoss()
    with pytest.raises(ValueError, match="mismatch"):
        loss(np.zeros((2, 3)), np.zeros((3, 2)))
