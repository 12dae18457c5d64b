"""Fast-path noise injection vs the honest device simulation.

The Monte Carlo drivers rely on two equivalences:

1. pre-write-verify: the closed-form Eq. 16 injection
   (:func:`repro.cim.inject_code_noise`) matches per-device
   programming + readout statistically;
2. post-write-verify: the empirical :class:`ResidualModel` sampler matches
   the verify-loop residual distribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import (
    DeviceConfig,
    MappingConfig,
    ResidualModel,
    WeightMapper,
    WriteVerifyConfig,
    inject_code_noise,
    inject_weight_noise,
    write_verify,
)


@pytest.fixture
def mapping():
    return MappingConfig(weight_bits=8, device=DeviceConfig(bits=4, sigma=0.1))


def test_pre_verify_fast_path_matches_simulation(mapping, rng):
    mapper = WeightMapper(mapping)
    gen = rng.child("sim").generator
    codes = gen.integers(-255, 256, size=30000)

    # Honest path: program each device, read back.
    mapped = mapper.map_tensor(codes / 255.0)
    programmed = mapper.program_levels(mapped, gen)
    honest = mapper.assemble_codes(programmed, mapped.signs) - mapped.codes

    # Fast path: closed-form Eq. 16.
    fast = inject_code_noise(mapped.codes, mapping, gen) - mapped.codes

    assert honest.std() == pytest.approx(fast.std(), rel=0.05)
    assert abs(honest.mean()) < 0.15 and abs(fast.mean()) < 0.15
    # Both are Gaussian-shaped: compare interquartile ranges too.
    assert np.percentile(np.abs(honest), 75) == pytest.approx(
        np.percentile(np.abs(fast), 75), rel=0.08
    )


def test_inject_weight_noise_scale(mapping, rng):
    gen = rng.child("w").generator
    weights = gen.normal(size=20000) * 0.25
    noisy = inject_weight_noise(weights, mapping, gen)
    mapper = WeightMapper(mapping)
    codes, scale = mapper.quantize(weights)
    errors = (noisy - codes * scale) / scale
    assert errors.std() == pytest.approx(mapping.code_noise_std(), rel=0.05)


def test_zero_sigma_fast_path_is_exact(rng):
    mapping = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.0))
    codes = np.array([-3, 0, 7])
    out = inject_code_noise(codes, mapping, rng.child("z").generator)
    np.testing.assert_array_equal(out, codes)


def test_residual_model_distribution_matches_fresh_simulation(rng):
    device = DeviceConfig(bits=4, sigma=0.1)
    wv = WriteVerifyConfig()
    model = ResidualModel.from_simulation(device, wv, n_devices=8192)

    gen = rng.child("fresh").generator
    targets = gen.uniform(0, device.max_level, size=20000)
    initial = device.program(targets, gen)
    fresh = write_verify(targets, initial, device, wv, gen)
    fresh_residuals = fresh.levels - targets

    sampled = model.sample_levels(20000, gen)
    assert sampled.std() == pytest.approx(fresh_residuals.std(), rel=0.1)
    assert np.percentile(sampled, 90) == pytest.approx(
        np.percentile(fresh_residuals, 90), rel=0.15
    )
    assert model.mean_cycles == pytest.approx(fresh.mean_cycles, rel=0.15)


def test_residual_apply_to_codes_combines_slices(rng):
    device = DeviceConfig(bits=4, sigma=0.1)
    mapping = MappingConfig(weight_bits=8, device=device)
    model = ResidualModel.from_simulation(device, n_devices=4096)
    gen = rng.child("apply").generator
    codes = np.zeros(30000, dtype=np.int64)
    out = model.apply_to_codes(codes, mapping, gen)
    # Residual std should compose like Eq. 16 with per-device residual std.
    per_device = model.residual_std_levels()
    want = per_device * np.sqrt(1.0 + 4.0 ** 4)
    assert out.std() == pytest.approx(want, rel=0.1)


def test_verified_weights_much_closer_than_unverified(mapping, rng):
    """End-to-end: the verified error is several times smaller (the whole
    point of write-verify)."""
    device = mapping.device
    gen = rng.child("e2e").generator
    mapper = WeightMapper(mapping)
    weights = gen.normal(size=5000) * 0.2
    mapped = mapper.map_tensor(weights)
    programmed = mapper.program_levels(mapped, gen)
    unverified_err = np.abs(
        mapper.readout_weights(mapped, programmed)
        - mapper.ideal_weights(mapped)
    )
    result = write_verify(
        mapped.levels, programmed, device, WriteVerifyConfig(), gen
    )
    verified_err = np.abs(
        mapper.readout_weights(mapped, result.levels)
        - mapper.ideal_weights(mapped)
    )
    assert verified_err.mean() < unverified_err.mean() * 0.6
