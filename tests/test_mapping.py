"""Bit-sliced weight mapping (Eqs. 14-16): roundtrips and noise statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim import DeviceConfig
from repro.cim.mapping import MappingConfig, WeightMapper


def test_slice_roundtrip_exact():
    """slice_codes -> assemble_codes is the identity on noiseless levels."""
    config = MappingConfig(weight_bits=8, device=DeviceConfig(bits=4, sigma=0.0))
    mapper = WeightMapper(config)
    codes = np.array([-255, -128, -1, 0, 1, 77, 200, 255], dtype=np.int64)
    levels, signs = mapper.slice_codes(codes)
    assert levels.shape == (2, 8)
    recovered = mapper.assemble_codes(levels, signs)
    np.testing.assert_array_equal(recovered, codes)


def test_slice_values_match_eq14():
    """Eq. 14: each slice holds K consecutive bits of the magnitude."""
    config = MappingConfig(weight_bits=8, device=DeviceConfig(bits=4, sigma=0.0))
    mapper = WeightMapper(config)
    levels, signs = mapper.slice_codes(np.array([0xAB]))
    assert levels[0][0] == 0xB  # low nibble
    assert levels[1][0] == 0xA  # high nibble
    assert signs[0] == 1


def test_single_slice_when_bits_match():
    config = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4))
    assert config.num_slices == 1
    np.testing.assert_array_equal(config.slice_weights, [1])


def test_num_slices_rounds_up():
    config = MappingConfig(weight_bits=6, device=DeviceConfig(bits=4))
    assert config.num_slices == 2


def test_codes_exceeding_magnitude_rejected():
    config = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4))
    mapper = WeightMapper(config)
    with pytest.raises(ValueError, match="exceed"):
        mapper.slice_codes(np.array([16]))


def test_quantize_respects_qmax(rng):
    config = MappingConfig(weight_bits=4)
    mapper = WeightMapper(config)
    weights = rng.child("w").normal(size=1000)
    codes, scale = mapper.quantize(weights)
    assert np.abs(codes).max() <= config.qmax
    np.testing.assert_allclose(codes * scale, weights, atol=scale / 2 + 1e-12)


def test_zero_weights_keep_positive_sign():
    mapper = WeightMapper(MappingConfig(weight_bits=4))
    _, signs = mapper.slice_codes(np.array([0, -3, 3]))
    np.testing.assert_array_equal(signs, [1, -1, 1])


def test_code_noise_std_matches_eq16():
    """Closed form: sigma_lv * sqrt(sum 4^(iK))."""
    device = DeviceConfig(bits=4, sigma=0.1)
    config = MappingConfig(weight_bits=8, device=device)
    want = device.sigma_levels * np.sqrt(1.0 + 4.0 ** 4)
    assert config.code_noise_std() == pytest.approx(want)


def test_differential_doubles_variance():
    base = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.1))
    diff = MappingConfig(
        weight_bits=4, device=DeviceConfig(bits=4, sigma=0.1), differential=True
    )
    assert diff.code_noise_std() == pytest.approx(base.code_noise_std() * np.sqrt(2))


def test_relative_noise_std_close_to_sigma():
    """The MSB slice dominates: relative weight noise ~ device sigma."""
    for weight_bits, device_bits in [(4, 4), (8, 4), (6, 3), (12, 4)]:
        config = MappingConfig(
            weight_bits=weight_bits, device=DeviceConfig(bits=device_bits, sigma=0.1)
        )
        assert 0.08 <= config.relative_noise_std() <= 0.13, (
            f"M={weight_bits}, K={device_bits}: "
            f"{config.relative_noise_std():.4f}"
        )


def test_programmed_noise_statistics(rng):
    """Empirical std of mapped codes matches the Eq. 16 closed form."""
    device = DeviceConfig(bits=4, sigma=0.1)
    config = MappingConfig(weight_bits=8, device=device)
    mapper = WeightMapper(config)
    gen = rng.child("mc").generator
    codes = gen.integers(-255, 256, size=20000)
    mapped = mapper.map_tensor(codes / 255.0)
    programmed = mapper.program_levels(mapped, gen)
    noisy_codes = mapper.assemble_codes(programmed, mapped.signs)
    errors = noisy_codes - mapped.codes
    assert abs(errors.mean()) < 0.1
    assert errors.std() == pytest.approx(config.code_noise_std(), rel=0.05)


def test_readout_weights_ideal_when_sigma_zero(rng):
    config = MappingConfig(weight_bits=6, device=DeviceConfig(bits=3, sigma=0.0))
    mapper = WeightMapper(config)
    weights = rng.child("w").normal(size=(4, 5))
    mapped = mapper.map_tensor(weights)
    programmed = mapper.program_levels(mapped, rng.child("p").generator)
    readout = mapper.readout_weights(mapped, programmed)
    np.testing.assert_allclose(readout, mapper.ideal_weights(mapped))


@settings(max_examples=40, deadline=None)
@given(
    weight_bits=st.integers(min_value=2, max_value=12),
    device_bits=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(weight_bits, device_bits, seed):
    """Any code within range survives slice/assemble for any M, K combo."""
    config = MappingConfig(
        weight_bits=weight_bits, device=DeviceConfig(bits=device_bits, sigma=0.0)
    )
    mapper = WeightMapper(config)
    gen = np.random.default_rng(seed)
    codes = gen.integers(-config.qmax, config.qmax + 1, size=64)
    levels, signs = mapper.slice_codes(codes)
    assert levels.min() >= 0
    assert levels.max() <= config.device.max_level
    np.testing.assert_array_equal(mapper.assemble_codes(levels, signs), codes)


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=0.01, max_value=0.3),
    weight_bits=st.sampled_from([4, 6, 8]),
)
def test_noise_std_monotone_in_sigma(sigma, weight_bits):
    """Eq. 16 noise scales linearly with device sigma."""
    config_1 = MappingConfig(
        weight_bits=weight_bits, device=DeviceConfig(bits=4, sigma=sigma)
    )
    config_2 = MappingConfig(
        weight_bits=weight_bits, device=DeviceConfig(bits=4, sigma=2 * sigma)
    )
    assert config_2.code_noise_std() == pytest.approx(2 * config_1.code_noise_std())
