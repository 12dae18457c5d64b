"""Fault tolerance: supervised workers, self-healing cache, eval tiles.

Pins the robustness subsystem's contracts: corrupted cache artifacts are
quarantined and recomputed instead of crashing the run, crashed and hung
workers are retried (then degraded to the serial parent) without losing
their siblings' results, transiently-failing producers are retried with
counted attempts, finished evaluation tiles persist so a rerun after a
kill replays them byte-identically, and the CLI maps the exception
taxonomy to single-line messages with distinct exit codes.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.plan import (
    PlanArtifactCache,
    PlanEngine,
    PlanRequest,
    ScenarioCell,
    ScenarioOrchestrator,
)
from repro.robustness import (
    CacheWriteError,
    FatalError,
    ReproError,
    RetryableError,
    ScenarioConfigError,
    TransientFaultError,
    WorkerCrashError,
    decode_outcome,
    encode_outcome,
    has_fork,
    is_retryable,
    parse_faults,
    run_with_retry,
    supervised_map,
)
from repro.robustness.faults import FaultSchedule
from repro.utils.rng import RngStream

needs_fork = pytest.mark.skipif(
    not has_fork(), reason="supervised pool needs the fork start method"
)


# --------------------------------------------------------------- taxonomy


class TestTaxonomy:
    def test_retryable_vs_fatal_split(self):
        assert is_retryable(WorkerCrashError("boom"))
        assert is_retryable(TransientFaultError("blip"))
        assert not is_retryable(FatalError("bad"))
        assert not is_retryable(ValueError("plain"))
        assert issubclass(RetryableError, ReproError)
        assert issubclass(FatalError, ReproError)

    def test_exit_codes_are_distinct_sysexits(self):
        assert ScenarioConfigError("x").exit_code == 64
        assert CacheWriteError("x").exit_code == 74
        assert RetryableError("x").exit_code == 75
        assert FatalError("x").exit_code == 70

    def test_back_compat_base_classes(self):
        """Callers that caught ValueError/OSError keep working."""
        assert isinstance(ScenarioConfigError("x"), ValueError)
        assert isinstance(CacheWriteError("x"), OSError)


# ----------------------------------------------------------- fault grammar


class TestFaultSchedule:
    def test_parse_full_grammar(self):
        entries = parse_faults(
            "crash:cell@0; hang:cell@1=60; raise:producer@variance*2; "
            "corrupt:artifact"
        )
        assert [e.kind for e in entries] == ["crash", "hang", "raise", "corrupt"]
        assert entries[0].matches("cell", 0)
        assert not entries[0].matches("cell", 1)
        assert entries[1].param == 60.0
        assert entries[2].times == 2
        assert entries[3].key is None and entries[3].matches("artifact", "order")

    @pytest.mark.parametrize("spec", [
        "bogus", "explode:cell", "crash:universe", "crash:cell*zero",
        "crash:cell*0", "crash:trial@0",
    ])
    def test_malformed_spec_is_a_config_error(self, spec):
        with pytest.raises(ScenarioConfigError):
            parse_faults(spec)

    def test_ledger_gives_exactly_n_firings(self, tmp_path):
        schedule = FaultSchedule(
            parse_faults("raise:producer@curvature*2"), str(tmp_path / "ledger")
        )
        fired = 0
        for _ in range(5):
            try:
                schedule.fire("producer", "curvature")
            except TransientFaultError:
                fired += 1
        assert fired == 2
        assert schedule.fired() == 2
        # A second schedule over the same ledger sees the spent slots.
        again = FaultSchedule(
            parse_faults("raise:producer@curvature*2"), str(tmp_path / "ledger")
        )
        again.fire("producer", "curvature")  # must not raise


# ------------------------------------------------------- self-healing cache


class TestSelfHealingCache:
    def _cache(self, tmp_path, **kwargs):
        return PlanArtifactCache(root=str(tmp_path), memory=False, **kwargs)

    def test_roundtrip_and_checksum(self, tmp_path):
        cache = self._cache(tmp_path)
        config = {"x": 1}
        cache.put("order", config, {"order": np.arange(5, dtype=np.int64)})
        arrays = cache.get("order", config)
        assert np.array_equal(arrays["order"], np.arange(5))
        assert "__checksum__" not in arrays

    def test_truncated_artifact_quarantined_and_recomputed(self, tmp_path):
        cache = self._cache(tmp_path)
        config = {"x": 2}
        cache.put("order", config, {"order": np.arange(64)})
        path = cache.path_for("order", config)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)

        with pytest.warns(RuntimeWarning, match="corrupt plan cache"):
            assert cache.get("order", config) is None
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)
        assert cache.stats()["quarantined"] == 1

        produced = []

        def producer():
            produced.append(1)
            return {"order": np.arange(64)}

        arrays = cache.get_or_create("order", config, producer)
        assert produced == [1]
        assert np.array_equal(arrays["order"], np.arange(64))
        assert cache.get("order", config) is not None  # healed on disk

    def test_checksum_mismatch_quarantined(self, tmp_path):
        """A well-formed npz whose content was tampered with is caught."""
        cache = self._cache(tmp_path)
        config = {"x": 3}
        cache.put("order", config, {"order": np.arange(16)})
        path = cache.path_for("order", config)
        with np.load(path) as handle:
            arrays = {name: handle[name] for name in handle.files}
        arrays["order"] = arrays["order"] + 1  # tamper, keep checksum
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert cache.get("order", config) is None
        assert cache.stats()["quarantined"] == 1

    def test_pre_checksum_artifact_reads_as_miss(self, tmp_path):
        """A v1-era entry (no embedded checksum) cannot be trusted."""
        cache = self._cache(tmp_path)
        config = {"x": 4}
        path = cache.path_for("order", config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle, order=np.arange(8))
        with pytest.warns(RuntimeWarning, match="no embedded checksum"):
            assert cache.get("order", config) is None

    def test_stale_tmp_files_swept_at_init(self, tmp_path):
        cache = self._cache(tmp_path)
        os.makedirs(cache.root, exist_ok=True)
        stale = os.path.join(cache.root, "order-abc.npz.tmp.12345")
        fresh = os.path.join(cache.root, "order-def.npz.tmp.67890")
        for path in (stale, fresh):
            with open(path, "wb") as handle:
                handle.write(b"partial")
        old = time.time() - 7200
        os.utime(stale, (old, old))

        self._cache(tmp_path)  # init sweeps
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)  # young: may belong to a live writer

    def test_failed_put_leaks_no_tmp_and_raises_typed(self, tmp_path,
                                                      monkeypatch):
        cache = self._cache(tmp_path)
        monkeypatch.setattr(
            np, "savez",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(CacheWriteError, match="disk full"):
            cache.put("order", {"x": 5}, {"order": np.arange(4)})
        leftovers = [
            name for name in os.listdir(cache.root) if ".tmp." in name
        ]
        assert leftovers == []

    def test_transient_producer_retried_and_counted(self, tmp_path):
        cache = self._cache(tmp_path)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFaultError("blip")
            return {"order": np.arange(3)}

        os.environ.setdefault("REPRO_RETRY_BACKOFF", "0")
        try:
            arrays = cache.get_or_create("order", {"x": 6}, flaky)
        finally:
            os.environ.pop("REPRO_RETRY_BACKOFF", None)
        assert len(calls) == 3
        assert np.array_equal(arrays["order"], np.arange(3))
        assert cache.stats()["producer_retries"] == 2

    def test_fatal_producer_error_propagates(self, tmp_path):
        cache = self._cache(tmp_path)
        with pytest.raises(ValueError, match="no retry"):
            cache.get_or_create(
                "order", {"x": 7},
                lambda: (_ for _ in ()).throw(ValueError("no retry")),
            )


# ------------------------------------------------------------ retry policy


class TestRunWithRetry:
    def test_retries_only_retryable(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise TransientFaultError("blip")
            return "done"

        failures = []
        value, attempts = run_with_retry(
            flaky, retries=2, backoff=0.0, failures=failures
        )
        assert (value, attempts) == ("done", 2)
        assert failures == ["TransientFaultError: blip"]

    def test_fatal_not_retried(self):
        calls = []

        def fatal():
            calls.append(1)
            raise ValueError("nope")

        with pytest.raises(ValueError):
            run_with_retry(fatal, retries=3, backoff=0.0)
        assert len(calls) == 1

    def test_budget_exhaustion_raises_last_error(self):
        with pytest.raises(TransientFaultError):
            run_with_retry(
                lambda: (_ for _ in ()).throw(TransientFaultError("blip")),
                retries=1, backoff=0.0,
            )

    def test_bad_env_knobs_are_config_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "many")
        with pytest.raises(ScenarioConfigError, match="REPRO_CELL_RETRIES"):
            run_with_retry(lambda: 1)


# -------------------------------------------------------- supervised pool


def _crash_once(tmp_path):
    """A task fn whose first execution per item exits the worker hard."""
    base = str(tmp_path)

    def fn(item):
        marker = os.path.join(base, f"crashed-{item}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return item * 10
        os.close(fd)
        os._exit(1)

    return fn


@needs_fork
class TestSupervisedMap:
    def test_happy_path_keeps_order_and_status(self):
        result = supervised_map(
            lambda i: i * i, range(4), workers=2, backoff=0.0
        )
        assert result.values == {i: i * i for i in range(4)}
        assert all(r.status == "ok" for r in result.reports.values())
        assert result.failed == []

    def test_worker_crash_is_retried(self, tmp_path):
        result = supervised_map(
            _crash_once(tmp_path), [0, 1], workers=2, retries=2, backoff=0.0
        )
        assert result.values == {0: 0, 1: 10}
        for report in result.reports.values():
            assert report.status == "recovered"
            assert report.attempts == 2
            assert any("WorkerCrashError" in f for f in report.failures)

    def test_hung_worker_killed_and_retried(self, tmp_path):
        base = str(tmp_path)

        def hang_once(item):
            marker = os.path.join(base, f"hung-{item}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return "alive"
            os.close(fd)
            time.sleep(120)

        start = time.monotonic()
        result = supervised_map(
            hang_once, ["a"], workers=1, timeout=1.0, retries=1, backoff=0.0
        )
        assert time.monotonic() - start < 30
        assert result.values == {"a": "alive"}
        report = result.reports["a"]
        assert report.status == "recovered"
        assert any("CellTimeoutError" in f for f in report.failures)

    def test_fatal_error_fails_fast_without_killing_siblings(self):
        def fn(item):
            if item == 1:
                raise ValueError("cell is broken")
            return item

        result = supervised_map(fn, [0, 1, 2], workers=2, backoff=0.0)
        assert result.values == {0: 0, 2: 2}
        assert result.failed == [1]
        assert result.reports[1].attempts == 1  # fatal: no retry
        assert "ValueError" in result.reports[1].error

    def test_exhausted_retries_degrade_to_serial_parent(self):
        def crash_in_child(item):
            if multiprocessing.parent_process() is not None:
                os._exit(1)
            return item + 100

        result = supervised_map(
            crash_in_child, [7], workers=1, retries=1, backoff=0.0
        )
        assert result.values == {7: 107}
        assert result.reports[7].status == "degraded"
        assert result.reports[7].attempts == 3  # 2 worker tries + parent

    def test_on_result_fires_in_parent_per_success(self):
        seen = []
        supervised_map(
            lambda i: i, range(3), workers=2, backoff=0.0,
            on_result=lambda item, value: seen.append((item, value, os.getpid())),
        )
        assert sorted(v[:2] for v in seen) == [(0, 0), (1, 1), (2, 2)]
        assert all(pid == os.getpid() for *_, pid in seen)


class TestForklessDegrade:
    def test_supervised_map_runs_serially_without_fork(self, monkeypatch):
        """A platform without the fork start method gets the same map —
        run serially in the parent, with one warning and the same retry
        policy — instead of a crash in get_context("fork")."""
        import repro.robustness.supervisor as sup

        monkeypatch.setattr(sup, "has_fork", lambda: False)
        calls = []

        def flaky(item):
            calls.append(item)
            if item == 1 and calls.count(1) < 2:
                raise TransientFaultError("blip")
            return item * 10

        seen = []
        with pytest.warns(RuntimeWarning, match="serially in the parent"):
            result = sup.supervised_map(
                flaky, [0, 1, 2], workers=4, retries=2, backoff=0.0,
                on_result=lambda item, value: seen.append(item),
            )
        assert result.values == {0: 0, 1: 10, 2: 20}
        assert result.reports[0].status == "ok"
        assert result.reports[1].status == "recovered"
        assert result.reports[1].attempts == 2
        assert seen == [0, 1, 2]

    def test_fatal_task_still_fails_without_fork(self, monkeypatch):
        import repro.robustness.supervisor as sup

        monkeypatch.setattr(sup, "has_fork", lambda: False)
        with pytest.warns(RuntimeWarning, match="serially in the parent"):
            result = sup.supervised_map(
                lambda i: (_ for _ in ()).throw(ValueError("broken")),
                [0], workers=2, backoff=0.0,
            )
        assert result.failed == [0]
        assert "ValueError" in result.reports[0].error


# ----------------------------------------------------- checkpoint encoding


class TestCheckpointRoundTrip:
    def test_outcome_round_trips_exactly(self):
        from repro.experiments.sweeps import MethodCurve, SweepOutcome

        rng = np.random.default_rng(5)
        outcome = SweepOutcome(
            workload="lenet-test",
            sigma=0.1,
            clean_accuracy=0.9123456789123456,
            nwc_targets=(0.0, 0.5, 1.0),
            technology="fefet",
            read_time=3.6e3,
            wear={"mean_pulses_per_device": 1.25, "deployments_to_failure": 3e4},
        )
        for method in ("swim", "magnitude"):  # order matters
            outcome.curves[method] = MethodCurve(
                method=method,
                nwc_targets=outcome.nwc_targets,
                accuracy_runs=rng.random((4, 3)),
                achieved_nwc=rng.random((4, 3)),
            )

        restored = decode_outcome(encode_outcome(outcome))
        assert restored.workload == outcome.workload
        assert restored.sigma == outcome.sigma
        assert restored.clean_accuracy == outcome.clean_accuracy  # exact
        assert restored.nwc_targets == outcome.nwc_targets
        assert restored.technology == outcome.technology
        assert restored.read_time == outcome.read_time
        assert restored.wear == outcome.wear
        assert list(restored.curves) == ["swim", "magnitude"]
        for method, curve in outcome.curves.items():
            back = restored.curves[method]
            assert np.array_equal(back.accuracy_runs, curve.accuracy_runs)
            assert np.array_equal(back.achieved_nwc, curve.achieved_nwc)

    def test_numpy_scalars_in_meta_are_sanitized(self):
        from repro.experiments.sweeps import MethodCurve, SweepOutcome

        outcome = SweepOutcome(
            workload="w",
            sigma=np.float64(0.2),
            clean_accuracy=np.float64(0.5),
            nwc_targets=(np.float64(0.0),),
            wear={"pulses": np.int64(7)},
        )
        outcome.curves["swim"] = MethodCurve(
            method="swim", nwc_targets=(0.0,),
            accuracy_runs=np.zeros((1, 1)), achieved_nwc=np.zeros((1, 1)),
        )
        restored = decode_outcome(encode_outcome(outcome))
        assert restored.sigma == 0.2
        assert restored.wear == {"pulses": 7}


# ----------------------------------------------- orchestrator end-to-end


def _grid(n=2, methods=("magnitude",)):
    """A tiny n-cell scenario grid (magnitude only: no curvature pass)."""
    root = RngStream(91).child("robustness")
    return [
        ScenarioCell(
            key=f"cell{i}",
            request=PlanRequest(
                methods=methods, nwc_targets=(0.0, 0.5),
                sigma=0.1 + 0.05 * i,
            ),
            rng=root.child("cell", i),
            mc_runs=2,
        )
        for i in range(n)
    ]


def _orchestrator(mini_zoo, cache):
    return ScenarioOrchestrator(
        mini_zoo, eval_samples=32, sense_samples=64, cache=cache
    )


def _assert_outcomes_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert list(a[key].curves) == list(b[key].curves)
        for method in a[key].curves:
            assert np.array_equal(
                a[key].curves[method].accuracy_runs,
                b[key].curves[method].accuracy_runs,
            )
            assert np.array_equal(
                a[key].curves[method].achieved_nwc,
                b[key].curves[method].achieved_nwc,
            )


class TestOrchestratorRobustness:
    def test_without_resume_warm_tiles_serve_cells(self, mini_zoo, tmp_path,
                                                   monkeypatch):
        """A warm rerun (a new process stand-in: new orchestrator, new
        cache object) is passless: every tile comes from the eval cache,
        the cells merge as ``cached``, and nothing is written."""
        cache = PlanArtifactCache(root=str(tmp_path), memory=False)
        first = _orchestrator(mini_zoo, cache).run(_grid(), scenario="t")

        puts = []
        real_put = PlanArtifactCache.put

        def counting_put(self, kind, config, arrays):
            puts.append(kind)
            return real_put(self, kind, config, arrays)

        monkeypatch.setattr(PlanArtifactCache, "put", counting_put)
        orchestrator = _orchestrator(
            mini_zoo, PlanArtifactCache(root=str(tmp_path), memory=False)
        )
        second = orchestrator.run(_grid(), scenario="t")
        report = orchestrator.report
        assert [c.status for c in report.cells] == ["cached", "cached"]
        assert report.tiles_cached == report.tiles_total > 0
        assert report.tiles_computed == 0
        assert puts == []
        _assert_outcomes_equal(first, second)

    def test_unwritable_eval_tile_warns_and_keeps_the_result(
            self, mini_zoo, monkeypatch):
        """A tile whose artifact cannot be written still lands in the
        outcome; the failure warns and counts in checkpoint_errors."""
        real_put = PlanArtifactCache.put

        def failing_put(self, kind, config, arrays):
            if kind == "eval":
                raise CacheWriteError("disk full")
            return real_put(self, kind, config, arrays)

        monkeypatch.setattr(PlanArtifactCache, "put", failing_put)
        orchestrator = _orchestrator(mini_zoo, PlanArtifactCache(disk=False))
        with pytest.warns(RuntimeWarning, match="could not persist eval tile"):
            outcomes = orchestrator.run(_grid(), scenario="t")
        report = orchestrator.report
        assert set(outcomes) == {"cell0", "cell1"}
        assert not report.failed
        assert report.checkpoint_errors == report.tiles_total == 2
        assert report.eventful

    def test_failed_cell_reported_not_raised(self, mini_zoo, tmp_path,
                                             monkeypatch):
        import repro.plan.orchestrator as orch_mod

        cache = PlanArtifactCache(root=str(tmp_path), memory=False)
        orchestrator = _orchestrator(mini_zoo, cache)
        import repro.experiments.sweeps as sweeps

        real = sweeps.run_method_sweep

        def sabotage(zoo, **kwargs):
            if kwargs.get("sigma") == 0.1:
                raise RuntimeError("cell exploded")
            return real(zoo, **kwargs)

        monkeypatch.setattr(sweeps, "run_method_sweep", sabotage)
        outcomes = orchestrator.run(_grid(), scenario="t")
        assert set(outcomes) == {"cell1"}  # survivor present
        report = orchestrator.report
        assert [c.status for c in report.cells] == ["failed", "ok"]
        assert report.failed[0].key == "cell0"
        assert "RuntimeError" in report.failed[0].error
        assert report.eventful

    @needs_fork
    def test_faulted_parallel_grid_matches_serial(self, mini_zoo, tmp_path,
                                                  monkeypatch):
        """Crash + hang + transient producer faults; results still exact."""
        serial = _orchestrator(
            mini_zoo, PlanArtifactCache(disk=False)
        ).run(_grid(3), scenario="t")

        monkeypatch.setenv(
            "REPRO_FAULTS", "crash:cell@0;hang:cell@1=120"
        )
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        orchestrator = _orchestrator(
            mini_zoo, PlanArtifactCache(root=str(tmp_path), memory=False)
        )
        faulted = orchestrator.run(
            _grid(3), workers=2, timeout=15.0, scenario="t"
        )
        statuses = {
            c.key: c.status for c in orchestrator.report.cells
        }
        assert statuses == {
            "cell0": "recovered", "cell1": "recovered", "cell2": "ok"
        }
        _assert_outcomes_equal(serial, faulted)

    def test_transient_producer_fault_retried_during_planning(
            self, mini_zoo, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:producer@order*2")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        cache = PlanArtifactCache(disk=False)
        engine = PlanEngine(
            mini_zoo.model,
            mini_zoo.data.train_x[:64],
            mini_zoo.data.train_y[:64],
            workload="lenet-test",
            cache=cache,
        )
        plan = engine.plan(PlanRequest(methods=("magnitude",), sigma=0.1))
        assert "magnitude" in plan.orders
        assert cache.stats()["producer_retries"] == 2


def test_config_error_in_a_serial_tile_propagates(mini_zoo, monkeypatch):
    """A usage error would fail every tile the same way, so a serial run
    raises it (the runner exits 64) instead of failing cells."""
    import repro.experiments.sweeps as sweeps

    def misconfigured(zoo, **kwargs):
        raise ScenarioConfigError("bad knob")

    monkeypatch.setattr(sweeps, "run_method_sweep", misconfigured)
    orchestrator = _orchestrator(mini_zoo, PlanArtifactCache(disk=False))
    with pytest.raises(ScenarioConfigError, match="bad knob"):
        orchestrator.run(_grid(), scenario="t")


# ------------------------------------------------- incremental eval cache


def _seeded_grid(seed, sigmas=(0.1, 0.15), mc_runs=2):
    root = RngStream(seed).child("evalcache")
    return [
        ScenarioCell(
            key=f"cell{i}",
            request=PlanRequest(
                methods=("magnitude",), nwc_targets=(0.0, 0.5), sigma=sigma,
            ),
            rng=root.child("cell", i),
            mc_runs=mc_runs,
        )
        for i, sigma in enumerate(sigmas)
    ]


class TestEvalTileCache:
    def test_changed_cell_recomputes_only_its_tiles(self, mini_zoo,
                                                    tmp_path):
        """A one-cell config change (here: its trial seed) invalidates
        exactly that cell's tiles; the untouched cell stays cached."""
        cache = PlanArtifactCache(root=str(tmp_path), memory=False)
        _orchestrator(mini_zoo, cache).run(_seeded_grid(91), scenario="t")

        reseeded = _seeded_grid(91)
        reseeded[0].rng = RngStream(4242).child("other")
        orchestrator = _orchestrator(
            mini_zoo, PlanArtifactCache(root=str(tmp_path), memory=False)
        )
        orchestrator.run(reseeded, scenario="t")
        report = orchestrator.report
        statuses = {c.key: c.status for c in report.cells}
        assert statuses == {"cell0": "ok", "cell1": "cached"}
        assert report.tiles_total == 2
        assert report.tiles_cached == 1
        assert report.tiles_computed == 1

    def test_eval_set_change_invalidates_every_tile(self, mini_zoo,
                                                    tmp_path):
        cache = PlanArtifactCache(root=str(tmp_path), memory=False)
        _orchestrator(mini_zoo, cache).run(_seeded_grid(91), scenario="t")

        bumped_data = SimpleNamespace(
            train_x=mini_zoo.data.train_x,
            train_y=mini_zoo.data.train_y,
            test_x=mini_zoo.data.test_x + 1e-6,
            test_y=mini_zoo.data.test_y,
        )
        bumped = SimpleNamespace(
            model=mini_zoo.model, data=bumped_data,
            clean_accuracy=mini_zoo.clean_accuracy, spec=mini_zoo.spec,
        )
        orchestrator = _orchestrator(
            bumped, PlanArtifactCache(root=str(tmp_path), memory=False)
        )
        orchestrator.run(_seeded_grid(91), scenario="t")
        report = orchestrator.report
        assert report.tiles_cached == 0
        assert report.tiles_computed == report.tiles_total == 2

    def test_quarantined_eval_tile_recomputes(self, mini_zoo, tmp_path):
        """A truncated eval artifact reads as a miss (quarantined by the
        self-healing cache) and only that tile recomputes."""
        cache = PlanArtifactCache(root=str(tmp_path), memory=False)
        first = _orchestrator(mini_zoo, cache).run(
            _seeded_grid(91), scenario="t"
        )
        tiles = sorted(
            name for name in os.listdir(cache.root)
            if name.startswith("eval-")
        )
        assert len(tiles) == 2
        victim = os.path.join(cache.root, tiles[0])
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) // 2)

        orchestrator = _orchestrator(
            mini_zoo, PlanArtifactCache(root=str(tmp_path), memory=False)
        )
        with pytest.warns(RuntimeWarning, match="corrupt plan cache"):
            healed = orchestrator.run(_seeded_grid(91), scenario="t")
        report = orchestrator.report
        assert report.cache["quarantined"] == 1
        assert report.tiles_cached == 1
        assert report.tiles_computed == 1
        _assert_outcomes_equal(first, healed)
        # The recomputed artifact healed on disk: a third run is passless.
        third = _orchestrator(
            mini_zoo, PlanArtifactCache(root=str(tmp_path), memory=False)
        )
        third.run(_seeded_grid(91), scenario="t")
        assert third.report.tiles_computed == 0


class TestTileMerge:
    def test_merged_windows_bitwise_equal_full_sweep(self, mini_zoo):
        """Adjacent trial_range windows vstack back into the unsplit
        sweep's exact bits — rows, NWC means, and wear statistics."""
        from repro.experiments.sweeps import run_method_sweep
        from repro.robustness import merge_outcomes

        kwargs = dict(
            sigma=None, technology="fefet", nwc_targets=(0.0, 0.5),
            mc_runs=4, eval_samples=32, sense_samples=64,
            methods=("magnitude",),
        )
        rng = RngStream(7).child("merge")
        full = run_method_sweep(mini_zoo, rng=rng, **kwargs)
        parts = [
            run_method_sweep(mini_zoo, rng=rng, trial_range=(0, 2), **kwargs),
            run_method_sweep(mini_zoo, rng=rng, trial_range=(2, 4), **kwargs),
        ]
        merged = merge_outcomes(parts)
        curve, expected = merged.curves["magnitude"], full.curves["magnitude"]
        assert np.array_equal(curve.accuracy_runs, expected.accuracy_runs)
        assert np.array_equal(curve.achieved_nwc, expected.achieved_nwc)
        assert merged.wear == full.wear
        assert merged.sigma == full.sigma

    def test_misaligned_window_is_rejected(self, mini_zoo):
        from repro.experiments.sweeps import run_method_sweep

        with pytest.raises(ValueError, match="block grid"):
            run_method_sweep(
                mini_zoo, sigma=0.1, nwc_targets=(0.0,), mc_runs=4,
                rng=RngStream(7), eval_samples=32, sense_samples=64,
                methods=("magnitude",), trial_range=(1, 3),
            )

    def test_tile_height_changes_schedule_not_results(self, mini_zoo):
        """REPRO_TILE_TRIALS re-tiles (different artifacts) but the
        merged outcomes are bit-identical at any tile height."""
        grid = lambda: _seeded_grid(23, mc_runs=4)
        coarse = _orchestrator(mini_zoo, PlanArtifactCache(disk=False))
        fine = _orchestrator(mini_zoo, PlanArtifactCache(disk=False))
        a = coarse.run(grid(), tile_trials=4, scenario="t")
        b = fine.run(grid(), tile_trials=2, scenario="t")
        assert coarse.report.tiles_total == 2  # one 4-trial tile per cell
        assert fine.report.tiles_total == 4  # two 2-trial tiles per cell
        _assert_outcomes_equal(a, b)


# -------------------------------------------------------------- CLI codes


def _runner_env(tmp_path, **extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = (
        os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    env["REPRO_SCALE"] = "smoke"
    env.update({k: str(v) for k, v in extra.items()})
    return env


def _runner(args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *args],
        env=env, capture_output=True, text=True, timeout=900,
    )


class TestRunnerExitCodes:
    def test_unwritable_cache_dir_exit_74_one_line(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not a directory")
        proc = _runner(
            ["retention"],
            _runner_env(tmp_path, REPRO_CACHE_DIR=str(blocker / "sub")),
        )
        assert proc.returncode == 74
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_malformed_fault_schedule_exit_64(self, tmp_path):
        proc = _runner(
            ["retention", "--workers", "2"],
            _runner_env(tmp_path, REPRO_FAULTS="explode:everything"),
        )
        assert proc.returncode == 64
        assert "fault" in proc.stderr


@pytest.mark.slow
class TestRunnerChaos:
    """The ISSUE's acceptance scenarios, end to end through the CLI."""

    def test_chaos_run_byte_identical_to_fault_free_serial(self, tmp_path):
        cache = tmp_path / "cache"
        baseline = _runner(
            ["retention"], _runner_env(
                tmp_path / "a", REPRO_CACHE_DIR=str(cache))
        )
        assert baseline.returncode == 0, baseline.stderr[-2000:]
        serial_csv = (tmp_path / "a" / "results" / "retention.csv").read_bytes()

        # Drop the baseline's evaluation tiles (keep the plan artifacts,
        # which is what corrupt:artifact@order needs to fire on read):
        # warm tiles would serve every cell from the cache and the
        # crash/hang faults — fired per scheduled tile — never trigger.
        for tile in (cache / "plan" / "v2").glob("eval-*.npz"):
            tile.unlink()

        chaos = _runner(
            ["retention", "--workers", "2"],
            _runner_env(
                tmp_path / "b",
                REPRO_CACHE_DIR=str(cache),  # warm: corrupt can fire on read
                REPRO_FAULTS="corrupt:artifact@order;crash:cell@0;"
                             "hang:cell@2=300",
                REPRO_FAULTS_DIR=str(tmp_path / "ledger"),
                REPRO_CELL_TIMEOUT="30",
            ),
        )
        assert chaos.returncode == 0, chaos.stderr[-2000:]
        assert "quarantined=1" in chaos.stdout
        assert "WorkerCrashError" in chaos.stdout
        assert "CellTimeoutError" in chaos.stdout
        assert "failed=0" in chaos.stdout
        chaos_csv = (tmp_path / "b" / "results" / "retention.csv").read_bytes()
        assert chaos_csv == serial_csv
        # All three scheduled faults actually fired.
        fired = os.listdir(tmp_path / "ledger")
        assert len(fired) == 3

    def test_resume_after_sigkill_skips_cells_same_bytes(self, tmp_path):
        """Kill a grid once its first eval tile lands; rerunning the same
        command reuses the finished tiles and writes the reference CSV."""
        reference = _runner(
            ["retention"], _runner_env(
                tmp_path / "ref", REPRO_CACHE_DIR=str(tmp_path / "cache-ref"))
        )
        assert reference.returncode == 0, reference.stderr[-2000:]
        ref_csv = (
            tmp_path / "ref" / "results" / "retention.csv"
        ).read_bytes()

        cache = tmp_path / "cache"
        env = _runner_env(tmp_path / "run", REPRO_CACHE_DIR=str(cache))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "retention"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Wait for at least one finished eval tile, then kill mid-grid.
        plan_dir = cache / "plan" / "v2"
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            done = (
                list(plan_dir.glob("eval-*.npz")) if plan_dir.exists() else []
            )
            if done:
                break
            if proc.poll() is not None:
                break  # finished before we could kill: the rerun is warm
            time.sleep(0.2)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        rerun = _runner(
            ["retention"],
            _runner_env(tmp_path / "run", REPRO_CACHE_DIR=str(cache)),
        )
        assert rerun.returncode == 0, rerun.stderr[-2000:]
        tiles = re.search(
            r"tiles: total=(\d+) cached=(\d+) computed=(\d+)", rerun.stdout
        )
        assert tiles, rerun.stdout[-2000:]
        total, cached, computed = map(int, tiles.groups())
        assert cached >= 1 and computed < total
        assert cached + computed == total
        out_csv = (
            tmp_path / "run" / "results" / "retention.csv"
        ).read_bytes()
        assert out_csv == ref_csv
