"""Optimizers and LR schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.optim import SGD, cosine_schedule
from repro.nn.parameter import Parameter


def _quadratic_grad(param, target):
    """Gradient of 0.5 * ||w - target||^2."""
    return param.data - target


def _minimize(optimizer, param, target, steps=200):
    for _ in range(steps):
        param.zero_grad()
        param.accumulate_grad(_quadratic_grad(param, target))
        optimizer.step()
    return float(np.abs(param.data - target).max())


def test_sgd_converges_on_quadratic():
    param = Parameter(np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    optimizer = SGD([param], lr=0.1, momentum=0.0)
    assert _minimize(optimizer, param, target) < 1e-6


def test_sgd_momentum_converges():
    param = Parameter(np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    optimizer = SGD([param], lr=0.05, momentum=0.9)
    assert _minimize(optimizer, param, target, steps=400) < 1e-4


def test_sgd_nesterov_converges():
    param = Parameter(np.array([4.0]))
    optimizer = SGD([param], lr=0.05, momentum=0.9, nesterov=True)
    assert _minimize(optimizer, param, np.array([0.5]), steps=400) < 1e-4


def test_sgd_weight_decay_shrinks_weights():
    param = Parameter(np.array([1.0]))
    optimizer = SGD([param], lr=0.1, momentum=0.0, weight_decay=0.5)
    for _ in range(50):
        param.zero_grad()  # zero task gradient: only decay acts
        optimizer.step()
    assert abs(param.data[0]) < 0.1


def test_optimizer_rejects_empty_params():
    with pytest.raises(ValueError, match="no trainable"):
        SGD([], lr=0.1)
    frozen = Parameter(np.zeros(2), trainable=False)
    with pytest.raises(ValueError, match="no trainable"):
        SGD([frozen], lr=0.1)


def test_optimizer_skips_frozen_params():
    train = Parameter(np.array([1.0]))
    frozen = Parameter(np.array([1.0]), trainable=False)
    optimizer = SGD([train, frozen], lr=0.1, momentum=0.0)
    for p in (train, frozen):
        p.accumulate_grad(np.array([1.0]))
    optimizer.step()
    assert train.data[0] != 1.0
    assert frozen.data[0] == 1.0


def test_zero_grad_clears_all():
    param = Parameter(np.ones(3))
    optimizer = SGD([param], lr=0.1)
    param.accumulate_grad(np.ones(3))
    optimizer.zero_grad()
    np.testing.assert_array_equal(param.grad, 0)


def test_cosine_schedule_endpoints():
    schedule = cosine_schedule(0.1, total_epochs=10, min_lr=0.001)
    assert schedule(0) == pytest.approx(0.1)
    assert schedule(10) == pytest.approx(0.001)
    assert schedule(5) == pytest.approx((0.1 + 0.001) / 2, rel=0.01)
    values = [schedule(e) for e in range(11)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
