"""Wear-derived variance inflation: the endurance axis closes.

The endurance model's sigma-growth-vs-cycling curve turns a consumed
fraction (a request's ``wear_consumed``, or the observer's own summary)
into the variance map's ``wear_inflation``; a request's manual
``wear_inflation`` overrides it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cim import (
    DeviceTechnology,
    EnduranceModel,
    MappingConfig,
    NonidealityStack,
    get_technology,
    resolve_technology,
)
from repro.cim.devices.endurance import wear_statistics
from repro.plan import PlanRequest
from repro.utils.rng import RngStream

from .helpers import accelerator_on


class TestSigmaGrowthCurve:
    def test_fresh_devices_are_exactly_one(self):
        model = EnduranceModel(endurance_cycles=1e6, sigma_growth=0.8)
        assert model.wear_inflation(0.0) == 1.0
        assert EnduranceModel(sigma_growth=0.0).wear_inflation(0.7) == 1.0

    def test_monotone_in_consumed_fraction(self):
        model = EnduranceModel(endurance_cycles=1e6, sigma_growth=1.0,
                               growth_exponent=0.7)
        fractions = np.linspace(0.0, 1.0, 11)
        inflations = [model.wear_inflation(f) for f in fractions]
        assert np.all(np.diff(inflations) > 0)
        # Variance (not sigma) multiplier: full consumption at growth 1
        # doubles sigma, so the variance inflates 4x.
        assert EnduranceModel(sigma_growth=1.0).wear_inflation(1.0) == 4.0

    def test_clamped_beyond_the_budget(self):
        model = EnduranceModel(sigma_growth=0.5)
        assert model.wear_inflation(3.0) == model.wear_inflation(1.0)
        assert model.wear_inflation(-1.0) == 1.0

    def test_consumed_fraction(self):
        # One device, 99 verify pulses plus its initial write: 100 of a
        # 1e4-pulse budget; far past the budget clips to 1.
        assert wear_statistics(1, 99, 99, 1e4)["consumed_fraction"] == (
            pytest.approx(0.01))
        assert wear_statistics(1, 10**9, 10**9, 1e4)["consumed_fraction"] == 1.0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            EnduranceModel(sigma_growth=-0.1)
        with pytest.raises(ValueError):
            EnduranceModel(growth_exponent=0.0)

    def test_technology_carries_the_curve(self):
        rram = get_technology("rram").endurance_model()
        assert rram.sigma_growth == 1.0
        assert rram.growth_exponent == 0.7
        mram = get_technology("mram").endurance_model()
        assert mram.wear_inflation(1.0) == 1.0  # effectively ageless

    def test_registry_round_trip_keeps_wear_fields(self):
        tech = replace(get_technology("fefet"), name="fefet-test",
                       wear_sigma_growth=0.33, wear_growth_exponent=1.4)
        clone = DeviceTechnology.from_dict(tech.to_dict())
        assert clone == tech
        assert clone.endurance_model().sigma_growth == 0.33


class TestDerivedVarianceMap:
    @pytest.fixture()
    def setup(self):
        tech = resolve_technology("rram")
        mapping = MappingConfig(weight_bits=4, device=tech.device_config())
        return tech, mapping, tech.build_stack()

    def test_summary_reports_consumed_fraction(self, setup):
        tech, mapping, stack = setup
        levels = np.tile(np.arange(16.0), (1, 4)).reshape(1, 8, 8)
        from repro.cim import WriteVerifyConfig, write_verify

        rng = RngStream(7)
        programmed = stack.program(levels, mapping, rng.child("p").generator)
        result = write_verify(
            levels[0], programmed[0], mapping.device, WriteVerifyConfig(),
            rng.child("v").generator,
        )
        stack.reset_observers()
        stack.observe("w", result.cycles[None])
        summary = stack.wear_summary()
        assert summary["consumed_fraction"] == pytest.approx(
            summary["mean_pulses_per_device"] / tech.endurance_cycles
        )
        assert 0.0 < summary["consumed_fraction"] < 1.0

    def test_wear_summary_drives_inflation(self, setup):
        """The curve's inflation scales the map: the read-after-write map
        of a programming-noise stack is all write variance, so a worn
        cell's map is the fresh map times the inflation."""
        from repro.core import WeightSpace
        from repro.nn.models import mlp

        tech, mapping, stack = setup
        summary = {"consumed_fraction": 0.25, "deployments": 2}
        derived = tech.endurance_model().wear_inflation(
            summary["consumed_fraction"] * summary["deployments"])
        assert derived > 1.0
        model = mlp(RngStream(3).child("m"), (6, 5))
        space = WeightSpace.from_model(model)
        worn = stack.variance_map(mapping, space, model,
                                  wear_inflation=derived)
        fresh = stack.variance_map(mapping, space, model)
        assert np.all(worn > fresh)
        np.testing.assert_allclose(worn, fresh * derived, rtol=1e-12)

    def test_bare_fraction_and_manual_override(self, setup):
        tech, _, _ = setup
        endurance = tech.endurance_model()
        request = PlanRequest(technology=tech, wear_consumed=0.5)
        assert request.effective_wear_inflation() == pytest.approx(
            endurance.wear_inflation(0.5)
        )
        # The manual knob wins over any wear evidence.
        assert PlanRequest(
            technology=tech, wear_consumed=0.5, wear_inflation=1.75
        ).effective_wear_inflation() == 1.75
        # Fresh when there is nothing to derive from.
        assert PlanRequest(technology=tech).effective_wear_inflation() == 1.0

    def test_no_observer_means_fresh(self):
        """Without a technology there is no endurance curve: fresh."""
        request = PlanRequest(sigma=0.1, wear_consumed=0.9)
        assert request.effective_wear_inflation() == 1.0

    def test_accelerator_feeds_its_own_wear(self, trained_lenet):
        """An accelerator's observed wear, as a request's
        ``wear_consumed``, inflates the planned variance map."""
        from repro.plan import PlanArtifactCache, PlanEngine

        model, data, _ = trained_lenet
        accelerator = accelerator_on(model, "rram")
        stream = RngStream(41).child("wear")
        accelerator.program(stream.child("program").generator)
        accelerator.write_verify_all(stream.child("verify").generator)
        summary = accelerator.wear_summary()
        accelerator.clear()
        expected = resolve_technology("rram").endurance_model().wear_inflation(
            summary["consumed_fraction"]
        )
        assert expected > 1.0
        engine = PlanEngine(model, data.train_x[:32], data.train_y[:32],
                            cache=PlanArtifactCache(disk=False))
        fresh = engine.variance(PlanRequest(technology="rram"))
        worn_request = PlanRequest(
            technology="rram", wear_consumed=summary["consumed_fraction"])
        assert worn_request.effective_wear_inflation() == expected
        worn = engine.variance(worn_request)
        np.testing.assert_allclose(worn, fresh * expected, rtol=1e-12)

    def test_stackless_map_keys_on_the_wear_it_applies(self):
        """A technology-less request gets the default stack's unworn
        Eq. 16 map whatever its ``wear_inflation``, so the map and its
        ``hetero_swim`` order are keyed on 1.0, the factor the map
        applies: a worn plain-sigma request reuses the fresh artifacts,
        and its plan still records the requested inflation."""
        from repro.core import WeightSpace
        from repro.nn.models import mlp
        from repro.plan import PlanArtifactCache, PlanEngine

        model = mlp(RngStream(5).child("m"), (6, 5))
        sense = RngStream(6).child("x").generator
        x = sense.normal(size=(16, 6)).astype(np.float32)
        y = np.arange(16) % 5
        engine = PlanEngine(model, x, y, cache=PlanArtifactCache(disk=False))
        fresh = PlanRequest(methods=("hetero_swim",), sigma=0.1)
        worn = replace(fresh, wear_inflation=1.5)
        fresh_plan = engine.plan(fresh)
        assert engine.stats["variance_passes"] == 1
        worn_plan = engine.plan(worn)
        assert engine.stats["variance_passes"] == 1
        assert engine.stats["ranking_passes"] == 1
        np.testing.assert_array_equal(worn_plan.order("hetero_swim"),
                                      fresh_plan.order("hetero_swim"))
        assert (fresh_plan.wear_inflation, worn_plan.wear_inflation) == (
            1.0, 1.5)
        space = WeightSpace.from_model(model)
        np.testing.assert_array_equal(
            engine.variance(worn),
            NonidealityStack.default().variance_map(
                MappingConfig(device=fresh.resolve()[1]), space, model),
        )
