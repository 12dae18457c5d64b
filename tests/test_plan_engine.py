"""The selection-planning engine and scenario orchestration.

Pins the subsystem's contracts: planned orders are exactly what the
scorers and the stack's variance map compose, a whole grid shares one
curvature pass (the ROADMAP's dominant-rank-cost item), warm caches
reproduce cold plans bitwise without running any pass, plans round-trip
through JSON and replay their scenario cell through the sweep, and
parallel scenario execution is byte-identical to serial.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import MappingConfig, resolve_technology
from repro.core import (
    FisherScorer,
    GradientScorer,
    MagnitudeScorer,
    SwimScorer,
    WeightSpace,
    rank_descending,
)
from repro.plan import (
    PlanArtifactCache,
    PlanEngine,
    PlanRequest,
    SelectionPlan,
    load_plans,
    save_plans,
)
from repro.robustness import ScenarioConfigError
from repro.utils.rng import RngStream

from .helpers import plan_for

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
        """A planned grid point ranks exactly as the scorers and the
        stack's variance map compose Eq. 5."""
        engine = _engine(mini_zoo)
        tech = resolve_technology("pcm")
        request = PlanRequest(
            methods=("swim", "hetero_swim", "magnitude", "random",
                     "untied_swim", "fisher", "gradient"),
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
        variance = tech.build_stack().variance_map(
            mapping, read_time=ONE_MONTH, space=space, model=model
        )
        assert np.array_equal(plan.order("swim"),
                              rank_descending(curvature, tie))
        assert np.array_equal(plan.order("hetero_swim"),
                              rank_descending(curvature * variance, tie))
        assert np.array_equal(
            plan.order("magnitude"),
            MagnitudeScorer().ranking(model, space, None, None),
        )
        # The ablations' orders: SWIM without the magnitude tie-break, and
        # the first-order scorers on the engine's sense set.
        assert np.array_equal(plan.order("untied_swim"),
                              rank_descending(curvature))
        assert not np.array_equal(plan.order("untied_swim"),
                                  plan.order("swim"))
        for method, scorer in (("fisher", FisherScorer()),
                               ("gradient", GradientScorer())):
            assert np.array_equal(
                plan.order(method),
                scorer.ranking(model, space, sense_x, sense_y),
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
        plans = [engine.plan(request) for request in requests]
        assert engine.stats["curvature_passes"] == 1
        assert engine.stats["variance_passes"] == 3  # one per read time
        assert len(plans) == 3
        # The swim ranking is drift-independent and shared; hetero_swim
        # responds to the read time.
        assert np.array_equal(plans[0].order("swim"), plans[2].order("swim"))
        assert not np.array_equal(plans[0].order("hetero_swim"),
                                  plans[2].order("hetero_swim"))

    def test_drift_free_technology_plans_once_per_physics_point(
            self, mini_zoo):
        """A stack without read stages deploys the same weights at every
        read time, so its variance map and ``hetero_swim`` order are
        computed once; a drifting stack still plans per read time."""
        engine = _engine(mini_zoo)
        for read_time in (10.0, 1e6, None):
            engine.variance(PlanRequest(methods=("hetero_swim",),
                                        technology="mram",
                                        read_time=read_time))
        assert engine.stats["variance_passes"] == 1
        mram = [
            engine.plan(PlanRequest(methods=("hetero_swim",),
                                    technology="mram", read_time=t))
            for t in (10.0, 1e6)
        ]
        assert engine.stats["variance_passes"] == 1
        assert engine.stats["ranking_passes"] == 1
        assert np.array_equal(mram[0].order("hetero_swim"),
                              mram[1].order("hetero_swim"))
        for t in (10.0, 1e6):
            engine.plan(PlanRequest(methods=("hetero_swim",),
                                    technology="pcm", read_time=t))
        assert engine.stats["variance_passes"] == 3
        assert engine.stats["ranking_passes"] == 3

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
        cold = [cold_engine.plan(request) for request in requests]
        assert cold_engine.stats["curvature_passes"] == 1

        warm_engine = build()  # fresh memory tier: hits must come from disk
        warm = [warm_engine.plan(request) for request in requests]
        assert warm_engine.stats["curvature_passes"] == 0
        assert warm_engine.stats["variance_passes"] == 0
        assert warm_engine.stats["ranking_passes"] == 0
        for before, after in zip(cold, warm):
            for method in before.orders:
                assert np.array_equal(before.order(method),
                                      after.order(method))

    @pytest.mark.slow
    def test_insitu_with_read_time_is_a_usage_error(self, mini_zoo,
                                                     monkeypatch):
        """In-situ training has no deployment-time read.  The request
        refuses the pair, so a scenario asking for it fails as a usage
        error (exit 64) before any planning, instead of as a failed cell
        (exit 75, "retries exhausted"); the sweep still refuses a plan
        that carries the pair, e.g. one edited in its JSON."""
        from repro.experiments.config import get_scale
        from repro.experiments.retention import run_retention
        from repro.experiments.sweeps import run_method_sweep

        with pytest.raises(ScenarioConfigError, match="read_time"):
            PlanRequest(methods=("swim", "insitu"), technology="pcm",
                        read_time=1.0)

        def plan(self, request):
            raise AssertionError("planned a grid that cannot run")

        with monkeypatch.context() as patch:
            patch.setattr(PlanEngine, "plan", plan)
            with pytest.raises(ScenarioConfigError, match="insitu"):
                run_retention(
                    get_scale("smoke"), technologies=("pcm",), times=(1.0,),
                    methods=("swim", "insitu"),
                    plan_cache=PlanArtifactCache(disk=False),
                )

        plan = plan_for(mini_zoo, sense_samples=64, methods=("swim",),
                        nwc_targets=(0.0,), technology="pcm", read_time=1.0)
        plan.methods = ("swim", "insitu")
        with pytest.raises(ScenarioConfigError, match="read_time"):
            run_method_sweep(mini_zoo, plan, mc_runs=2, rng=RngStream(0))

    def test_read_time_before_retention_t0_is_refused(self):
        """A drifting technology's variance map reads no earlier than
        its retention t0, so the request refuses such a read time; a
        drift-free technology and the plain-sigma setting have no t0."""
        with pytest.raises(ScenarioConfigError, match="t0=1 s"):
            PlanRequest(technology="pcm", read_time=0.5)
        PlanRequest(technology="pcm", read_time=1.0)
        PlanRequest(technology="mram", read_time=0.5)
        PlanRequest(sigma=0.1, read_time=0.5)

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

    def test_differential_is_one_field_that_keys_only_when_set(
            self, mini_zoo):
        """Differential mapping reaches the deployed mapping and
        round-trips through JSON; a single-column request keeps the
        request key and plan JSON it had before the field existed."""
        engine = _engine(mini_zoo)
        single = PlanRequest(methods=("swim",), sigma=0.1)
        pair = PlanRequest(methods=("swim",), sigma=0.1, differential=True)
        assert "differential" not in single.config()
        assert pair.config() == {**single.config(), "differential": True}
        plain, paired = engine.plan(single), engine.plan(pair)
        assert "differential" not in plain.to_json()
        assert not plain.resolve()[2].differential
        loaded = SelectionPlan.from_json(paired.to_json())
        assert loaded.differential and loaded.resolve()[2].differential
        assert (loaded.resolve()[2].relative_noise_std()
                > plain.resolve()[2].relative_noise_std())

    @pytest.mark.slow
    def test_saved_plan_replays_its_retention_cell(self, tmp_path,
                                                   monkeypatch):
        """A pcm-comp retention cell's plan, written with save_plans and
        read back, replays the scenario's rows bit for bit through the
        sweep: the JSON physics (technology dict -> DeviceTechnology ->
        stack) deploys exactly what the planned request did."""
        from repro.experiments.config import get_scale
        from repro.experiments.model_zoo import load_workload
        from repro.experiments.retention import run_retention
        from repro.experiments.sweeps import run_method_sweep
        from repro.plan import ScenarioOrchestrator

        cells = {}
        real_run = ScenarioOrchestrator.run

        def run(self, grid, **kwargs):
            grid = list(grid)
            cells.update((cell.key, cell) for cell in grid)
            return real_run(self, grid, **kwargs)

        monkeypatch.setattr(ScenarioOrchestrator, "run", run)
        scale = get_scale("smoke")
        result = run_retention(
            scale, technologies=("pcm-comp",), times=(ONE_MONTH,),
            plan_cache=PlanArtifactCache(disk=False),
        )
        key = ("pcm-comp", ONE_MONTH)
        path = save_plans(str(tmp_path / "retention_plans.json"),
                          result.plans)
        plan = load_plans(path)[repr(key)]
        assert plan.technology.name == "pcm-comp"
        assert plan.technology.drift_compensated

        replay = run_method_sweep(
            load_workload(scale.workload("lenet-digits")), plan,
            mc_runs=cells[key].mc_runs, rng=cells[key].rng,
            eval_samples=scale.eval_samples,
        )
        expected = result.outcomes[key]
        assert list(replay.curves) == list(expected.curves)
        for method, curve in expected.curves.items():
            assert np.array_equal(replay.curves[method].accuracy_runs,
                                  curve.accuracy_runs)
            assert np.array_equal(replay.curves[method].nwc_runs,
                                  curve.nwc_runs)
            assert np.array_equal(replay.curves[method].achieved_nwc,
                                  curve.achieved_nwc)
        assert (replay.technology, replay.sigma, replay.read_time) == (
            expected.technology, expected.sigma, expected.read_time
        )
        assert replay.wear == expected.wear

    def test_apply_rejects_foreign_model(self, mini_zoo):
        """The sweep refuses to deploy a plan on another model, or at
        other quantization bits than the workload's."""
        plan = self._plan(mini_zoo)
        from types import SimpleNamespace

        from repro.experiments.sweeps import run_method_sweep
        from repro.nn.models import mlp

        other = mlp(RngStream(3).child("mlp"), (64, 16, 4))
        foreign = SimpleNamespace(model=other, data=mini_zoo.data,
                                  spec=mini_zoo.spec, clean_accuracy=0.0)
        with pytest.raises(ValueError, match="weights"):
            run_method_sweep(foreign, plan, mc_runs=1, rng=RngStream(6))
        # A plan mapped at other quantization bits than the workload's.
        six_bit = plan_for(mini_zoo, sense_samples=64, methods=("swim",),
                           nwc_targets=(0.3,), technology="fefet",
                           weight_bits=6)
        with pytest.raises(ValueError, match="bits"):
            run_method_sweep(mini_zoo, six_bit, mc_runs=1, rng=RngStream(6))

class TestScenarioIntegration:
    def test_tiles_on_the_pool_match_a_direct_sweep(self, mini_zoo):
        """Fig. 2's path: a one-cell grid with every method, its trial
        tiles fanned over the worker pool, is bitwise a direct
        ``run_method_sweep``."""
        from repro.experiments.sweeps import run_method_sweep
        from repro.plan import ScenarioCell, ScenarioOrchestrator

        methods = ("swim", "magnitude", "random", "insitu")
        targets = (0.0, 0.5)
        rng = RngStream(2).child("fig2", "test")
        plan = plan_for(mini_zoo, sense_samples=64, sigma=0.1,
                        nwc_targets=targets, methods=methods)
        direct = run_method_sweep(
            mini_zoo, plan, mc_runs=4, rng=rng, eval_samples=32,
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
        tiled = orchestrator.run([cell], workers=2)[0.1]
        report = orchestrator.report
        assert not report.failed
        assert report.tiles_computed == report.tiles_total == 2
        assert list(tiled.curves) == list(direct.curves)
        for method in methods:
            assert np.array_equal(tiled.curves[method].accuracy_runs,
                                  direct.curves[method].accuracy_runs)
            assert np.array_equal(tiled.curves[method].nwc_runs,
                                  direct.curves[method].nwc_runs)
            assert np.array_equal(tiled.curves[method].achieved_nwc,
                                  direct.curves[method].achieved_nwc)
        assert tiled.wear == direct.wear

    @pytest.mark.slow
    def test_retention_grid_runs_one_sensitivity_pass(self, monkeypatch):
        """Regression for the ROADMAP item: scenarios must not recompute
        the curvature flat vector per grid point.

        The engine's scorer (the only curvature pass: the sweep ranks
        nothing) is replaced with a counter: a 2-read-time pcm grid with
        swim + hetero_swim must cost exactly one sensitivity pass for
        the whole scenario.
        """
        import repro.plan.engine as plan_engine
        from repro.experiments.config import get_scale
        from repro.experiments.retention import run_retention

        passes = []

        class CountingScorer(SwimScorer):
            def scores(self, *args, **kwargs):
                passes.append(1)
                return super().scores(*args, **kwargs)

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
