"""The selection-planning engine and scenario orchestration.

Pins the subsystem's contracts: planned orders are exactly what the
inline sweep machinery would compute, a whole grid shares one curvature
pass (the ROADMAP's dominant-rank-cost item), warm caches reproduce cold
plans bitwise without running any pass, plans round-trip through JSON
and deploy onto accelerators, and parallel scenario execution is
byte-identical to serial.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import CimAccelerator, MappingConfig, resolve_technology
from repro.core import (
    MagnitudeScorer,
    SwimScorer,
    WeightSpace,
    rank_descending,
    variance_map_from_stack,
)
from repro.plan import (
    PlanArtifactCache,
    PlanEngine,
    PlanRequest,
    SelectionPlan,
    load_plans,
    save_plans,
)
from repro.utils.rng import RngStream

ONE_HOUR = 3.6e3
ONE_MONTH = 2.592e6


def _engine(mini_zoo, sense=128, **cache_kwargs):
    cache = PlanArtifactCache(disk=False, **cache_kwargs)
    return PlanEngine(
        mini_zoo.model,
        mini_zoo.data.train_x[:sense],
        mini_zoo.data.train_y[:sense],
        workload=mini_zoo.spec.key,
        cache=cache,
        curvature_batch_size=min(256, sense),
    )


class TestPlanResolution:
    def test_orders_match_inline_scoring(self, mini_zoo):
        """A planned grid point ranks exactly as the sweep machinery."""
        engine = _engine(mini_zoo)
        tech = resolve_technology("pcm")
        request = PlanRequest(
            methods=("swim", "hetero_swim", "magnitude", "random"),
            nwc_targets=(0.0, 0.3, 1.0),
            technology=tech,
            read_time=ONE_MONTH,
            weight_bits=4,
        )
        plan = engine.plan(request)

        model = mini_zoo.model
        space = WeightSpace.from_model(model)
        sense_x = mini_zoo.data.train_x[:128]
        sense_y = mini_zoo.data.train_y[:128]
        scorer = SwimScorer(batch_size=128, max_batches=2)
        curvature = scorer.scores(model, space, sense_x, sense_y)
        tie = scorer.tie_break(model, space)
        mapping = MappingConfig(weight_bits=4, device=tech.device_config())
        variance = variance_map_from_stack(
            space, model, mapping, tech.build_stack(), read_time=ONE_MONTH
        )
        assert np.array_equal(plan.order("swim"),
                              rank_descending(curvature, tie))
        assert np.array_equal(plan.order("hetero_swim"),
                              rank_descending(curvature * variance, tie))
        assert np.array_equal(
            plan.order("magnitude"),
            MagnitudeScorer().ranking(model, space, None, None),
        )
        assert "random" not in plan.orders  # re-drawn per trial, unplannable
        assert plan.counts == (0, round(0.3 * space.total_size),
                               space.total_size)

    def test_grid_shares_one_curvature_pass(self, mini_zoo):
        """A retention-style grid costs one rank pass, not one per point."""
        engine = _engine(mini_zoo)
        requests = [
            PlanRequest(
                methods=("swim", "hetero_swim"),
                nwc_targets=(0.1, 0.3, 0.5),
                technology="pcm",
                read_time=t,
            )
            for t in (1.0, ONE_HOUR, ONE_MONTH)
        ]
        plans = engine.plan_batch(requests)
        assert engine.stats["curvature_passes"] == 1
        assert engine.stats["variance_passes"] == 3  # one per read time
        assert len(plans) == 3
        # The swim ranking is drift-independent and shared; hetero_swim
        # responds to the read time.
        assert np.array_equal(plans[0].order("swim"), plans[2].order("swim"))

    def test_warm_cache_is_bitwise_and_passless(self, mini_zoo, tmp_path):
        """Cold and warm plans are bitwise-equal; warm runs zero passes."""
        requests = [
            PlanRequest(
                methods=("swim", "hetero_swim", "magnitude"),
                nwc_targets=(0.1, 0.3, 0.5, 0.9),
                technology="pcm-comp",
                read_time=t,
            )
            for t in (1.0, ONE_HOUR, ONE_MONTH)
        ]

        def build():
            return PlanEngine(
                mini_zoo.model,
                mini_zoo.data.train_x[:128],
                mini_zoo.data.train_y[:128],
                cache=PlanArtifactCache(root=str(tmp_path)),
                curvature_batch_size=128,
            )

        cold_engine = build()
        cold = cold_engine.plan_batch(requests)
        assert cold_engine.stats["curvature_passes"] == 1

        warm_engine = build()  # fresh memory tier: hits must come from disk
        warm = warm_engine.plan_batch(requests)
        assert warm_engine.stats["curvature_passes"] == 0
        assert warm_engine.stats["variance_passes"] == 0
        assert warm_engine.stats["ranking_passes"] == 0
        for before, after in zip(cold, warm):
            for method in before.orders:
                assert np.array_equal(before.order(method),
                                      after.order(method))

    def test_wear_consumed_feeds_the_curve(self, mini_zoo):
        request = PlanRequest(technology="rram", wear_consumed=0.5)
        tech = resolve_technology("rram")
        expected = tech.endurance_model().wear_inflation(0.5)
        assert request.effective_wear_inflation(tech) == pytest.approx(expected)
        assert expected > 1.0
        # The manual knob overrides the derived curve.
        manual = PlanRequest(technology="rram", wear_consumed=0.5,
                             wear_inflation=1.25)
        assert manual.effective_wear_inflation(tech) == 1.25


class TestSelectionPlanArtifact:
    def _plan(self, mini_zoo):
        engine = _engine(mini_zoo)
        return engine.plan(PlanRequest(
            methods=("swim", "magnitude"),
            nwc_targets=(0.0, 0.3, 1.0),
            technology="fefet",
            read_time=None,
        ))

    def test_json_round_trip_bitwise(self, mini_zoo, tmp_path):
        plan = self._plan(mini_zoo)
        path = save_plans(str(tmp_path / "plans.json"), {"cell": plan})
        loaded = load_plans(path)["'cell'"]
        assert isinstance(loaded, SelectionPlan)
        assert loaded.nwc_targets == plan.nwc_targets
        assert loaded.counts == plan.counts
        assert loaded.technology.name == "fefet"
        assert loaded.model == plan.model
        for method in plan.orders:
            assert np.array_equal(loaded.order(method), plan.order(method))
            assert loaded.order(method).dtype == np.int64

    def test_apply_deploys_the_planned_selection(self, mini_zoo):
        plan = self._plan(mini_zoo)
        accelerator = CimAccelerator(mini_zoo.model, technology="fefet")
        stream = RngStream(31).child("apply")
        accelerator.program(stream.child("program").generator)
        accelerator.write_verify_all(stream.child("verify").generator)

        nwc = plan.apply(accelerator, method="swim", nwc_target=0.3)
        space = WeightSpace.from_model(mini_zoo.model)
        expected = accelerator.apply_selection(
            space.masks_from_indices(plan.order("swim")[:plan.count_for(0.3)])
        )
        assert nwc == expected
        assert 0.0 < nwc < 1.0
        accelerator.clear()

    def test_apply_rejects_foreign_model(self, mini_zoo):
        plan = self._plan(mini_zoo)
        from repro.nn.models import mlp

        other = mlp(RngStream(3).child("mlp"), (64, 16, 4))
        accelerator = CimAccelerator(other, technology="fefet")
        accelerator.program(RngStream(4).generator)
        accelerator.write_verify_all(RngStream(5).generator)
        with pytest.raises(ValueError, match="weights"):
            plan.apply(accelerator, method="swim", nwc_target=0.3)

    def test_off_grid_budget_is_an_error(self, mini_zoo):
        plan = self._plan(mini_zoo)
        with pytest.raises(KeyError, match="grid"):
            plan.count_for(0.42)


class TestScenarioIntegration:
    def test_scalar_tiles_on_the_pool_match_a_direct_sweep(self, mini_zoo):
        """Fig. 2's path: a one-cell grid with every method on the scalar
        per-trial loop, its trial tiles fanned over the worker pool, is
        bitwise a direct scalar ``run_method_sweep``."""
        from repro.experiments.sweeps import run_method_sweep
        from repro.plan import ScenarioCell, ScenarioOrchestrator

        methods = ("swim", "magnitude", "random", "insitu")
        targets = (0.0, 0.5)
        rng = RngStream(2).child("fig2", "test")
        direct = run_method_sweep(
            mini_zoo, sigma=0.1, nwc_targets=targets, mc_runs=4, rng=rng,
            eval_samples=32, sense_samples=64, methods=methods,
            batched=False,
        )
        orchestrator = ScenarioOrchestrator(
            mini_zoo, eval_samples=32, sense_samples=64,
            cache=PlanArtifactCache(disk=False),
        )
        cell = ScenarioCell(
            key=0.1,
            request=PlanRequest(methods=methods, nwc_targets=targets,
                                sigma=0.1),
            rng=rng,
            mc_runs=4,
        )
        tiled = orchestrator.run([cell], batched=False, workers=2)[0.1]
        report = orchestrator.report
        assert not report.failed
        assert report.tiles_computed == report.tiles_total == 2
        assert list(tiled.curves) == list(direct.curves)
        for method in methods:
            assert np.array_equal(tiled.curves[method].accuracy_runs,
                                  direct.curves[method].accuracy_runs)
            assert np.array_equal(tiled.curves[method].achieved_nwc,
                                  direct.curves[method].achieved_nwc)
        assert tiled.wear == direct.wear

    @pytest.mark.slow
    def test_retention_grid_runs_one_sensitivity_pass(self, monkeypatch):
        """Regression for the ROADMAP item: scenarios must not recompute
        the curvature flat vector per grid point.

        The sweep-side scorer is replaced with a tripwire (any use means
        a cell scored inline) and the engine-side scorer with a counter:
        a 2-read-time pcm grid with swim + hetero_swim must cost exactly
        one sensitivity pass for the whole scenario.
        """
        import repro.experiments.sweeps as sweeps
        import repro.plan.engine as plan_engine
        from repro.experiments.config import get_scale
        from repro.experiments.retention import run_retention

        class TripwireScorer:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "run_method_sweep computed a curvature pass despite "
                    "planned orders"
                )

        passes = []

        class CountingScorer(SwimScorer):
            def scores(self, *args, **kwargs):
                passes.append(1)
                return super().scores(*args, **kwargs)

        monkeypatch.setattr(sweeps, "SwimScorer", TripwireScorer)
        monkeypatch.setattr(plan_engine, "SwimScorer", CountingScorer)

        result = run_retention(
            get_scale("smoke"),
            technologies=("pcm",),
            times=(1.0, ONE_HOUR),
            methods=("swim", "hetero_swim"),
            plan_cache=PlanArtifactCache(disk=False),
        )
        assert len(passes) == 1
        assert set(result.outcomes) == {("pcm", 1.0), ("pcm", ONE_HOUR)}

    @pytest.mark.slow
    def test_parallel_cells_byte_identical_to_serial(self, tmp_path):
        """``workers=2`` and the serial loop write identical scenario CSVs."""
        from repro.experiments.config import get_scale
        from repro.experiments.reporting import save_retention_csv
        from repro.experiments.retention import run_retention

        scale = get_scale("smoke")
        kwargs = dict(
            technologies=("pcm",),
            times=(1.0, ONE_HOUR),
            methods=("swim", "magnitude"),
        )
        # Separate in-memory caches: the parallel run must actually
        # compute its tiles, not replay the serial run's eval artifacts.
        serial = run_retention(
            scale, plan_cache=PlanArtifactCache(disk=False), **kwargs
        )
        parallel = run_retention(
            scale, workers=2, plan_cache=PlanArtifactCache(disk=False),
            **kwargs
        )
        serial_path = save_retention_csv(serial, str(tmp_path / "serial.csv"))
        parallel_path = save_retention_csv(
            parallel, str(tmp_path / "parallel.csv")
        )
        with open(serial_path, "rb") as handle:
            serial_bytes = handle.read()
        with open(parallel_path, "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes
