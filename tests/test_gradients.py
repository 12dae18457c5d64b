"""Gradient correctness: every layer's backward vs central finite differences.

These tests pin down the substrate the whole reproduction rests on.  Each
builds a small float64 model containing the layer under test, computes
analytic gradients, and compares against central differences on both the
parameters and the input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import BasicBlock
from repro.nn.module import Sequential

from .helpers import MSELoss, analytic_grads, fd_gradient, to_float64

ATOL = 1e-7
RTOL = 1e-5


def _check_param_grads(model, loss, x, y):
    analytic_grads(model, loss, x, y)
    for name, param in model.named_parameters():
        got = param.grad.copy()
        want = fd_gradient(model, loss, x, y, param)
        np.testing.assert_allclose(
            got, want, atol=ATOL, rtol=RTOL, err_msg=f"grad mismatch for {name}"
        )


def _check_input_grad(model, loss, x, y, eps=1e-6):
    analytic_grads(model, loss, x, y)
    # Re-run forward/backward to obtain the input gradient.
    model.zero_grad()
    loss(model(x), y)
    got = model.backward(loss.backward())
    want = np.zeros_like(x)
    flat = x.reshape(-1)
    want_flat = want.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = loss(model(x), y)
        flat[i] = orig - eps
        f_minus = loss(model(x), y)
        flat[i] = orig
        want_flat[i] = (f_plus - f_minus) / (2 * eps)
    np.testing.assert_allclose(got, want, atol=1e-6, rtol=1e-4)


def test_linear_grads(rng):
    model = to_float64(Sequential(Linear(7, 5, rng=rng.child("l"))))
    x = rng.child("x").normal(size=(4, 7))
    y = rng.child("y").integers(0, 5, size=4)
    _check_param_grads(model, CrossEntropyLoss(), x, y)


def test_linear_input_grad(rng):
    model = to_float64(Sequential(Linear(6, 4, rng=rng.child("l"))))
    x = rng.child("x").normal(size=(3, 6))
    y = rng.child("y").integers(0, 4, size=3)
    _check_input_grad(model, CrossEntropyLoss(), x, y)


def test_linear_no_bias_grads(rng):
    model = to_float64(Sequential(Linear(5, 3, bias=False, rng=rng.child("l"))))
    x = rng.child("x").normal(size=(4, 5))
    y = rng.child("y").integers(0, 3, size=4)
    _check_param_grads(model, CrossEntropyLoss(), x, y)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv_grads(rng, stride, padding):
    model = to_float64(
        Sequential(
            Conv2d(2, 3, 3, stride=stride, padding=padding, rng=rng.child("c")),
            Flatten(),
        )
    )
    x = rng.child("x").normal(size=(2, 2, 6, 6))
    out = model(x)
    y = rng.child("y").integers(0, out.shape[1], size=2)
    _check_param_grads(model, CrossEntropyLoss(), x, y)


def test_conv_input_grad(rng):
    model = to_float64(
        Sequential(Conv2d(1, 2, 3, padding=1, rng=rng.child("c")), Flatten())
    )
    x = rng.child("x").normal(size=(2, 1, 5, 5))
    y = rng.child("y").integers(0, 2 * 25, size=2)
    _check_input_grad(model, CrossEntropyLoss(), x, y)


@pytest.mark.parametrize("act_cls", [ReLU, Tanh, Sigmoid])
def test_activation_grads(rng, act_cls):
    model = to_float64(
        Sequential(
            Linear(6, 8, rng=rng.child("l1")),
            act_cls(),
            Linear(8, 4, rng=rng.child("l2")),
        )
    )
    x = rng.child("x").normal(size=(5, 6))
    y = rng.child("y").integers(0, 4, size=5)
    _check_param_grads(model, CrossEntropyLoss(), x, y)


@pytest.mark.parametrize("pool_cls", [MaxPool2d])
def test_pooling_grads(rng, pool_cls):
    model = to_float64(
        Sequential(
            Conv2d(1, 3, 3, padding=1, rng=rng.child("c")),
            pool_cls(2),
            Flatten(),
        )
    )
    x = rng.child("x").normal(size=(2, 1, 6, 6))
    out = model(x)
    y = rng.child("y").integers(0, out.shape[1], size=2)
    _check_param_grads(model, CrossEntropyLoss(), x, y)
    _check_input_grad(model, CrossEntropyLoss(), x, y)


def test_global_avg_pool_grads(rng):
    model = to_float64(
        Sequential(
            Conv2d(1, 4, 3, padding=1, rng=rng.child("c")),
            GlobalAvgPool2d(),
            Linear(4, 3, rng=rng.child("l")),
        )
    )
    x = rng.child("x").normal(size=(3, 1, 5, 5))
    y = rng.child("y").integers(0, 3, size=3)
    _check_param_grads(model, CrossEntropyLoss(), x, y)


def test_batchnorm2d_train_grads(rng):
    model = to_float64(
        Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng.child("c")),
            BatchNorm2d(3),
            Flatten(),
        )
    )
    model.train()
    x = rng.child("x").normal(size=(4, 2, 4, 4))
    out = model(x)
    y = rng.child("y").integers(0, out.shape[1], size=4)
    _check_param_grads(model, CrossEntropyLoss(), x, y)
    _check_input_grad(model, CrossEntropyLoss(), x, y)


def test_batchnorm2d_eval_grads(rng):
    bn = BatchNorm2d(3)
    model = to_float64(
        Sequential(Conv2d(2, 3, 3, padding=1, rng=rng.child("c")), bn, Flatten())
    )
    # Populate running statistics, then freeze.
    model.train()
    warm = rng.child("warm").normal(size=(8, 2, 4, 4))
    model(warm)
    model.eval()
    bn.running_var = np.abs(bn.running_var) + 0.5  # keep well-conditioned
    x = rng.child("x").normal(size=(4, 2, 4, 4))
    out = model(x)
    y = rng.child("y").integers(0, out.shape[1], size=4)
    _check_param_grads(model, CrossEntropyLoss(), x, y)
    _check_input_grad(model, CrossEntropyLoss(), x, y)


def test_basic_block_grads(rng):
    block = BasicBlock(2, 3, stride=2, rng=rng.child("blk"))
    model = to_float64(Sequential(block, Flatten()))
    model.train()
    x = rng.child("x").normal(size=(3, 2, 6, 6))
    out = model(x)
    y = rng.child("y").integers(0, out.shape[1], size=3)
    _check_param_grads(model, CrossEntropyLoss(), x, y)
    _check_input_grad(model, CrossEntropyLoss(), x, y)


def test_identity_shortcut_block_grads(rng):
    block = BasicBlock(3, 3, stride=1, rng=rng.child("blk"))
    model = to_float64(Sequential(block, Flatten()))
    model.train()
    x = rng.child("x").normal(size=(2, 3, 5, 5))
    out = model(x)
    y = rng.child("y").integers(0, out.shape[1], size=2)
    _check_param_grads(model, CrossEntropyLoss(), x, y)


def test_mse_loss_grads(rng):
    model = to_float64(Sequential(Linear(4, 3, rng=rng.child("l"))))
    x = rng.child("x").normal(size=(5, 4))
    y = rng.child("y").normal(size=(5, 3))
    loss = MSELoss()
    analytic_grads(model, loss, x, y)
    for name, param in model.named_parameters():
        got = param.grad.copy()
        want = fd_gradient(model, loss, x, y, param)
        np.testing.assert_allclose(
            got, want, atol=ATOL, rtol=RTOL, err_msg=f"grad mismatch for {name}"
        )


def test_deep_stack_grads(rng):
    """A LeNet-shaped miniature: conv-relu-pool-conv-relu-pool-fc-relu-fc."""
    model = to_float64(
        Sequential(
            Conv2d(1, 2, 3, padding=1, rng=rng.child("c1")),
            ReLU(),
            MaxPool2d(2),
            Conv2d(2, 3, 3, rng=rng.child("c2")),
            ReLU(),
            Flatten(),
            Linear(3 * 4 * 4, 8, rng=rng.child("f1")),
            ReLU(),
            Linear(8, 4, rng=rng.child("f2")),
        )
    )
    x = rng.child("x").normal(size=(2, 1, 12, 12))
    y = rng.child("y").integers(0, 4, size=2)
    _check_param_grads(model, CrossEntropyLoss(), x, y)
