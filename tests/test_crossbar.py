"""Crossbar tile path vs the effective-weight shortcut."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import DeviceConfig
from repro.cim.crossbar import (
    ConverterConfig,
    CrossbarConfig,
    CrossbarLinear,
    uniform_quantize_midrise,
)
from repro.cim.mapping import MappingConfig, WeightMapper


def _make_layer(rng, sigma=0.0, rows=128, adc_bits=None, dac_bits=None,
                out_features=6, in_features=40):
    weights = rng.child("w").normal(size=(out_features, in_features)) * 0.2
    config = MappingConfig(weight_bits=8, device=DeviceConfig(bits=4, sigma=sigma))
    mapper = WeightMapper(config)
    mapped = mapper.map_tensor(weights)
    programmed = mapper.program_levels(mapped, rng.child("prog").generator)
    xbar = CrossbarLinear(
        weights,
        mapping_config=config,
        crossbar_config=CrossbarConfig(
            rows=rows,
            dac=ConverterConfig(bits=dac_bits),
            adc=ConverterConfig(bits=adc_bits),
        ),
        programmed_levels=programmed,
    )
    return xbar, weights


def test_ideal_converters_match_shortcut_exactly(rng):
    xbar, _ = _make_layer(rng, sigma=0.05)
    x = np.clip(rng.child("x").normal(size=(7, 40)) * 0.3, -1, 1)
    via_tiles = xbar(x)
    via_shortcut = x @ xbar.effective_weights().T
    np.testing.assert_allclose(via_tiles, via_shortcut, rtol=1e-10, atol=1e-10)


def test_tiling_does_not_change_ideal_result(rng):
    xbar_one, _ = _make_layer(rng, rows=64)
    xbar_many, _ = _make_layer(rng, rows=8)
    x = np.clip(rng.child("x").normal(size=(5, 40)) * 0.3, -1, 1)
    np.testing.assert_allclose(xbar_one(x), xbar_many(x), rtol=1e-10)


def test_noise_free_levels_reproduce_quantized_weights(rng):
    xbar, weights = _make_layer(rng, sigma=0.0)
    eff = xbar.effective_weights()
    # Quantization error only.
    assert np.abs(eff - weights).max() <= xbar.mapped.scale / 2 + 1e-12


def test_adc_resolution_converges_to_shortcut(rng):
    x = np.clip(rng.child("x").normal(size=(16, 40)) * 0.3, -1, 1)
    errors = []
    for bits in (4, 6, 8, 12):
        xbar, _ = _make_layer(rng, sigma=0.0, adc_bits=bits, rows=16)
        want = x @ xbar.effective_weights().T
        got = xbar(x)
        errors.append(np.abs(got - want).max())
    assert errors[-1] < errors[0]
    assert errors[-1] < 1e-2
    assert all(e2 <= e1 * 1.05 for e1, e2 in zip(errors, errors[1:]))


def test_dac_quantization_saturates_inputs(rng):
    xbar, _ = _make_layer(rng, dac_bits=8)
    x = np.full((2, 40), 5.0)  # far outside the DAC range
    out_sat = xbar(x)
    out_unit = xbar(np.ones((2, 40)))
    np.testing.assert_allclose(out_sat, out_unit, rtol=1e-9)


def test_uniform_quantizer_basics():
    values = np.linspace(-2, 2, 9)
    out = uniform_quantize_midrise(values, bits=2, full_range=1.0)
    assert out.min() >= -1.0 and out.max() <= 1.0
    # 2 bits -> 3 steps over [-1, 1]: levels at -1, -1/3, 1/3, 1.
    unique = np.unique(np.round(out, 6))
    assert len(unique) <= 4


def test_bias_added_digitally(rng):
    weights = rng.child("w").normal(size=(3, 10)) * 0.1
    bias = np.array([1.0, -2.0, 0.5])
    xbar = CrossbarLinear(weights, bias=bias)
    x = np.zeros((1, 10))
    np.testing.assert_allclose(xbar(x)[0], bias, atol=1e-12)


def test_rejects_bad_shapes(rng):
    weights = rng.child("w").normal(size=(3, 10))
    xbar = CrossbarLinear(weights)
    with pytest.raises(ValueError, match="expected"):
        xbar(np.zeros((2, 11)))
    with pytest.raises(ValueError, match="2-D"):
        CrossbarLinear(np.zeros((2, 3, 4)))
