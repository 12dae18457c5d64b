"""Quantization: codes, scales, STE fake-quant, activation quantizers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import ActQuant, Sequential
from repro.nn.layers import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.quant import (
    attach_weight_quantizers,
    dequantize,
    fake_quantize,
    quantize_symmetric,
)


def test_quantize_roundtrip_error_bounded(rng):
    values = rng.child("v").normal(size=1000)
    codes, scale = quantize_symmetric(values, bits=6)
    assert np.abs(codes).max() <= 63
    recovered = dequantize(codes, scale)
    assert np.abs(recovered - values).max() <= scale / 2 + 1e-12


def test_quantize_zero_tensor():
    codes, scale = quantize_symmetric(np.zeros(5), bits=4)
    np.testing.assert_array_equal(codes, 0)
    assert scale == 1.0


def test_fake_quantize_idempotent(rng):
    values = rng.child("v").normal(size=200).astype(np.float32)
    once = fake_quantize(values, 4)
    twice = fake_quantize(once, 4)
    np.testing.assert_allclose(once, twice, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(bits=st.integers(1, 10), seed=st.integers(0, 5000))
def test_quantization_error_bound_property(bits, seed):
    values = np.random.default_rng(seed).normal(size=64)
    codes, scale = quantize_symmetric(values, bits=bits)
    assert np.abs(dequantize(codes, scale) - values).max() <= scale / 2 + 1e-12
    assert np.abs(codes).max() <= (1 << bits) - 1


def test_attach_detach_weight_quantizers(rng):
    model = Sequential(
        Linear(4, 8, rng=rng.child("a")), Linear(8, 3, rng=rng.child("b"))
    )
    assert attach_weight_quantizers(model, 4) == 2
    for layer in (model[0], model[1]):
        assert layer.weight_quantizer is not None
        eff = layer.effective_weight()
        codes, scale = quantize_symmetric(layer.weight.data, 4)
        np.testing.assert_allclose(eff, codes * scale, atol=1e-6)
    for layer in (model[0], model[1]):
        layer.weight_quantizer = None  # detach
    np.testing.assert_array_equal(
        model[0].effective_weight(), model[0].weight.data
    )


def test_ste_gradients_flow_to_master_weights(rng):
    """With fake-quant enabled, weight gradients are still non-zero."""
    model = Sequential(Linear(6, 4, rng=rng.child("l")))
    attach_weight_quantizers(model, 4)
    x = rng.child("x").normal(size=(8, 6)).astype(np.float64)
    y = rng.child("y").integers(0, 4, size=8)
    loss = CrossEntropyLoss()
    loss(model(x), y)
    model.zero_grad()
    model.backward(loss.backward())
    assert np.abs(model[0].weight.grad).max() > 0


def test_act_quant_tracks_range_in_training(rng):
    aq = ActQuant(bits=4)
    aq.train()
    x = rng.child("x").normal(size=(16, 8)).astype(np.float32) * 3
    aq(x)
    assert aq.running_peak > 0
    peak_after_first = aq.running_peak
    aq(x * 2)
    assert aq.running_peak > peak_after_first


def test_act_quant_eval_uses_frozen_range(rng):
    aq = ActQuant(bits=4)
    aq.train()
    aq(np.ones((2, 2), dtype=np.float32))
    frozen = aq.running_peak
    aq.eval()
    aq(np.full((2, 2), 100.0, dtype=np.float32))
    assert aq.running_peak == frozen


def test_act_quant_output_levels_bounded(rng):
    aq = ActQuant(bits=2)
    aq.train()
    x = rng.child("x").normal(size=(64,)).astype(np.float32)
    out = aq(x)
    assert len(np.unique(np.round(out, 5))) <= 2 ** 2 * 2 + 1


def test_act_quant_backward_masks_clipped(rng):
    aq = ActQuant(bits=4)
    aq.train()
    aq(np.ones(4, dtype=np.float32))  # peak = 1
    aq.eval()
    x = np.array([0.5, 2.0, -3.0, 0.1], dtype=np.float32)
    aq(x)
    grad = aq.backward(np.ones_like(x))
    np.testing.assert_array_equal(grad, [1, 0, 0, 1])
    curv = aq.backward_second(np.ones_like(x))
    np.testing.assert_array_equal(curv, [1, 0, 0, 1])


def test_act_quant_passthrough_before_calibration():
    aq = ActQuant(bits=4)
    aq.eval()  # never calibrated: peak = 0 -> identity
    x = np.array([1.5, -2.5], dtype=np.float32)
    np.testing.assert_array_equal(aq(x), x)
