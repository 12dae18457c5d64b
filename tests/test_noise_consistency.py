"""Eq. 16's closed-form mapped-code noise vs the per-device simulation.

``variance_map_from_mapping`` feeds ``MappingConfig.code_noise_std()`` to
``hetero_swim`` without simulating a device, so the closed form must
match per-device programming + readout statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import DeviceConfig, MappingConfig, WeightMapper


def test_pre_verify_fast_path_matches_simulation(rng):
    mapping = MappingConfig(weight_bits=8, device=DeviceConfig(bits=4, sigma=0.1))
    mapper = WeightMapper(mapping)
    gen = rng.child("sim").generator
    codes = gen.integers(-255, 256, size=30000)

    # Honest path: program each device, read back.
    mapped = mapper.map_tensor(codes / 255.0)
    programmed = mapper.program_levels(mapped, gen)
    honest = mapper.assemble_codes(programmed, mapped.signs) - mapped.codes

    # Closed form: Eq. 16's std, and a Gaussian draw of it.
    std = mapping.code_noise_std()
    fast = gen.normal(0.0, std, size=honest.shape)

    assert honest.std() == pytest.approx(std, rel=0.05)
    assert honest.std() == pytest.approx(fast.std(), rel=0.05)
    assert abs(honest.mean()) < 0.15 and abs(fast.mean()) < 0.15
    # Both are Gaussian-shaped: compare interquartile ranges too.
    assert np.percentile(np.abs(honest), 75) == pytest.approx(
        np.percentile(np.abs(fast), 75), rel=0.08
    )
