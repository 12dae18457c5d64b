"""Write-verify loop: convergence, tolerance, cycle statistics (Sec. 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim import DeviceConfig, MappingConfig, WeightMapper
from repro.cim.write_verify import WriteVerifyConfig, calibrate_alpha, write_verify


@pytest.fixture
def device():
    return DeviceConfig(bits=4, sigma=0.1)


@pytest.fixture
def mapping():
    return MappingConfig(weight_bits=8, device=DeviceConfig(bits=4, sigma=0.1))


def _run(device, config, n=20000, seed=0):
    gen = np.random.default_rng(seed)
    targets = gen.uniform(0, device.max_level, size=n)
    initial = device.program(targets, gen)
    return targets, write_verify(targets, initial, device, config, gen)


def test_all_devices_converge_within_tolerance(device):
    config = WriteVerifyConfig()
    targets, result = _run(device, config)
    assert bool(result.converged.all())
    errors = np.abs(result.levels - targets) / device.max_level
    assert errors.max() <= config.tolerance + 1e-12


def test_mean_cycles_near_paper_calibration(device):
    """Paper Sec. 4.1: ~10 average cycles at sigma=0.1, tolerance=0.06."""
    _, result = _run(device, WriteVerifyConfig())
    assert 7.0 <= result.mean_cycles <= 13.0


def test_post_verify_residual_well_below_initial_sigma(device):
    """Write-verify shrinks the weight deviation from 10% FS to < 5% FS."""
    config = WriteVerifyConfig()
    targets, result = _run(device, config)
    residual = (result.levels - targets) / device.max_level
    assert residual.std() < 0.05
    assert residual.std() < 0.5 * device.sigma


def test_some_devices_need_no_rewrite(device):
    """Paper: "some may not need rewrite at all; others need a lot"."""
    _, result = _run(device, WriteVerifyConfig())
    assert (result.cycles == 0).mean() > 0.2
    assert result.cycles.max() > 15


def test_zero_cycles_when_already_converged(device):
    config = WriteVerifyConfig()
    targets = np.full(100, 7.0)
    result = write_verify(targets, targets.copy(), device, config,
                          np.random.default_rng(0))
    assert result.cycles.sum() == 0
    assert bool(result.converged.all())


def test_larger_sigma_needs_more_cycles(device):
    config = WriteVerifyConfig()
    _, low = _run(device.with_sigma(0.1), config, seed=1)
    _, high = _run(device.with_sigma(0.2), config, seed=1)
    assert high.mean_cycles > low.mean_cycles


def test_tighter_tolerance_needs_more_cycles(device):
    _, loose = _run(device, WriteVerifyConfig(tolerance=0.1), seed=2)
    _, tight = _run(device, WriteVerifyConfig(tolerance=0.03), seed=2)
    assert tight.mean_cycles > loose.mean_cycles


def test_calibrate_alpha_hits_target(device):
    alpha, achieved = calibrate_alpha(device, target_mean_cycles=10.0,
                                      n_devices=8000)
    assert achieved == pytest.approx(10.0, abs=1.5)
    assert 0.005 < alpha < 0.2


def test_max_pulses_bounds_loop(device):
    """With absurdly weak pulses the loop terminates at max_pulses."""
    config = WriteVerifyConfig(alpha=0.005, pulse_sigma=0.0, max_pulses=5)
    targets, result = _run(device, config, n=2000, seed=3)
    assert result.cycles.max() <= 5


def test_deterministic_given_seed(device):
    config = WriteVerifyConfig()
    gen_a = np.random.default_rng(7)
    gen_b = np.random.default_rng(7)
    targets = np.linspace(0, device.max_level, 500)
    initial = device.program(targets, np.random.default_rng(8))
    res_a = write_verify(targets, initial, device, config, gen_a)
    res_b = write_verify(targets, initial, device, config, gen_b)
    np.testing.assert_array_equal(res_a.levels, res_b.levels)
    np.testing.assert_array_equal(res_a.cycles, res_b.cycles)


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(min_value=0.02, max_value=0.25),
    tolerance=st.floats(min_value=0.02, max_value=0.15),
)
def test_write_verify_always_within_tolerance(sigma, tolerance):
    """Property: whatever the operating point, converged devices meet spec."""
    device = DeviceConfig(bits=4, sigma=sigma)
    config = WriteVerifyConfig(tolerance=tolerance, max_pulses=500)
    gen = np.random.default_rng(17)
    targets = gen.uniform(0, device.max_level, size=500)
    initial = device.program(targets, gen)
    result = write_verify(targets, initial, device, config, gen)
    errors = np.abs(result.levels - targets) / device.max_level
    assert errors[result.converged].max(initial=0.0) <= tolerance + 1e-9


# ---------------------------------------------------------------------------
# Randomized properties of the masked pulse loop (batched Monte Carlo PR).
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    tolerance=st.floats(min_value=0.01, max_value=0.2),
    alpha=st.floats(min_value=0.02, max_value=0.9),
    sigma=st.floats(min_value=0.01, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_masked_loop_terminates_and_accounts_cycles(tolerance, alpha, sigma, seed):
    """The loop always ends; cycle accounting is consistent with the mask.

    Non-converged devices were active on every pulse, so they carry
    exactly ``max_pulses`` cycles; converged devices carry at most that;
    devices within tolerance on arrival carry zero.
    """
    device = DeviceConfig(bits=4, sigma=sigma)
    config = WriteVerifyConfig(tolerance=tolerance, alpha=alpha,
                               pulse_sigma=0.01, max_pulses=60)
    gen = np.random.default_rng(seed)
    targets = gen.uniform(0, device.max_level, size=300)
    initial = device.program(targets, gen)
    result = write_verify(targets, initial, device, config, gen)

    tol_levels = tolerance * device.max_level
    assert result.cycles.max(initial=0) <= config.max_pulses
    assert (result.cycles[~result.converged] == config.max_pulses).all()
    on_arrival = np.abs(initial - targets) <= tol_levels
    assert (result.cycles[on_arrival] == 0).all()
    errors = np.abs(result.levels - targets)
    assert errors[result.converged].max(initial=0.0) <= tol_levels + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    tolerance=st.floats(min_value=0.01, max_value=0.15),
    alpha=st.floats(min_value=0.02, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_noiseless_cycle_counts_are_argmin_of_convergence(tolerance, alpha, seed):
    """With no pulse noise, cycles == first pulse index within tolerance.

    The deterministic trajectory is replayed with the loop's own update
    rule, so the assertion is exact: the recorded cycle count is the
    argmin over pulses of the convergence condition.
    """
    device = DeviceConfig(bits=4, sigma=0.15)
    config = WriteVerifyConfig(tolerance=tolerance, alpha=alpha,
                               pulse_sigma=0.0, max_pulses=400)
    gen = np.random.default_rng(seed)
    targets = gen.uniform(0, device.max_level, size=200)
    initial = device.program(targets, gen)
    result = write_verify(targets, initial, device, config, gen)
    assert bool(result.converged.all())

    tol_levels = config.tolerance * device.max_level
    levels = initial.copy()
    expected = np.zeros(targets.shape, dtype=np.int64)
    active = np.abs(levels - targets) > tol_levels
    pulse = 0
    while active.any() and pulse < config.max_pulses:
        error = np.where(active, targets - levels, 0.0)
        levels = levels + config.alpha * error
        expected[active] += 1
        active &= np.abs(levels - targets) > tol_levels
        pulse += 1
    np.testing.assert_array_equal(result.cycles, expected)


@settings(max_examples=15, deadline=None)
@given(
    tolerance=st.floats(min_value=0.02, max_value=0.15),
    alpha=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_trial_batched_loop_matches_per_trial_properties(tolerance, alpha, seed):
    """The (n_trials, ...) masked loop honors the same per-device contract."""
    from repro.cim.write_verify import write_verify_trials

    device = DeviceConfig(bits=4, sigma=0.1)
    config = WriteVerifyConfig(tolerance=tolerance, alpha=alpha,
                               pulse_sigma=0.005, max_pulses=200)
    gen = np.random.default_rng(seed)
    targets = gen.uniform(0, device.max_level, size=100)
    initial = np.stack([device.program(targets, gen) for _ in range(4)])
    result = write_verify_trials(targets, initial, device, config, rng=gen)

    assert result.levels.shape == (4, 100)
    tol_levels = tolerance * device.max_level
    errors = np.abs(result.levels - targets[None, :])
    assert errors[result.converged].max(initial=0.0) <= tol_levels + 1e-9
    assert (result.cycles[~result.converged] == config.max_pulses).all()
    # Trials are independent: identical targets, different noise draws.
    assert not np.allclose(result.levels[0], result.levels[1])


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
