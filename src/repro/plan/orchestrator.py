"""Scenario orchestration: plan a grid once, schedule its work rectangle.

A scenario (devices / retention / spatial / table1) is a grid of
independent Monte Carlo evaluation cells that differ only in physics
parameters (technology, read time, correlation length, sigma).  The
orchestrator expresses the grid as :class:`~repro.plan.engine.
PlanRequest`\\ s, resolves them through one :class:`~repro.plan.engine.
PlanEngine` (so shared stages — above all the curvature pass — run
once), and then executes the grid as a **work rectangle** (cells x
trial blocks; :mod:`repro.robustness.scheduler`): every cell's trial
axis splits into block-aligned tiles, and the flat tile list is packed
onto one supervised fork pool sized by ``workers=`` / ``--workers`` /
``REPRO_WORKERS`` (``0`` = auto-size to the core count).

Fault tolerance
---------------
The tile is the one retried unit.  Tiles run under :func:`~repro.
robustness.supervisor.supervised_map`: a worker that crashes (OOM kill,
segfault) or overruns its wall-clock budget (``REPRO_CELL_TIMEOUT``)
is retried with bounded exponential backoff (``REPRO_CELL_RETRIES``),
then re-executed serially in the parent, and only then declared failed.
A serial run (no ``workers``) goes through :func:`~repro.robustness.
supervisor.serial_map`, the same retry policy without the pool.
A failed tile fails its cell but not the grid — the cell's key is
simply absent from the returned outcome dict (its surviving tiles stay
cached for the next attempt), and the per-cell story (ok / cached /
recovered / degraded / failed) is recorded in
:attr:`ScenarioOrchestrator.report`, a :class:`~repro.robustness.
report.RunReport` the CLI renders and exits on.

Incremental evaluation
----------------------
Every tile's partial outcome persists the moment it lands, as a
content-addressed ``eval`` artifact in the engine's :class:`~repro.
plan.cache.PlanArtifactCache` — keyed on model/sense/eval digests, the
request physics, the cell's RNG seed, and the tile's trial window;
never on supervision or worker-count knobs.  Every run probes these
artifacts first, so rerunning the same command after a crash or a
kill skips every finished tile, a rerun after a one-cell config change
recomputes only that cell's tiles, and either is still byte-identical
to a cold serial run; the hit/recompute counts are on the report
(``tiles_cached`` / ``tiles_computed``).  A fully warm rerun is
passless: it reads tiles and writes nothing.

Determinism
-----------
Every cell derives *all* of its randomness from its own named
:class:`~repro.utils.rng.RngStream` (the per-trial substream discipline
of the Monte Carlo engine), planned orders are computed before any tile
runs, and tile boundaries are worker-count independent and aligned to
the engine's trial-block grid — so serial, ``--workers N``, retried,
degraded, and cached runs are all bitwise-equal.  Workers
receive the model via ``fork`` (models carry closures that do not
pickle); on platforms without fork the tiles run serially in the
parent with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.core.mc import default_trial_block
from repro.obs.trace import span
from repro.plan.cache import data_digest
from repro.plan.engine import PlanEngine, PlanRequest
from repro.robustness.errors import CacheWriteError
from repro.robustness.faults import active_schedule
from repro.robustness.report import CellRecord, RunReport
from repro.robustness.checkpoint import (
    decode_outcome,
    encode_outcome,
    merge_outcomes,
)
from repro.robustness.scheduler import (
    Tile,
    resolve_tile_trials,
    resolve_workers,
    scheduler_metrics,
    tile_ranges,
)
from repro.robustness.supervisor import serial_map, supervised_map

__all__ = ["ScenarioCell", "ScenarioOrchestrator"]


@dataclass
class ScenarioCell:
    """One grid point: a plan request plus its Monte Carlo envelope.

    Attributes
    ----------
    key:
        Scenario-specific cell identity (technology name, (technology,
        read time) pair, correlation length, sigma) — the key of the
        scenario's outcome dict.
    request:
        The :class:`~repro.plan.engine.PlanRequest` describing the
        cell's physics and method set.
    rng:
        Root :class:`~repro.utils.rng.RngStream` of the cell's Monte
        Carlo sweep.  Scenarios that pair draws across cells (retention
        read times, spatial correlation lengths) pass the *same* stream
        to every paired cell.
    mc_runs:
        Monte Carlo trials of the cell.
    sweep_kwargs:
        Extra keyword arguments forwarded to
        :func:`~repro.experiments.sweeps.run_method_sweep` (e.g.
        ``insitu_lr`` for Table 1).
    """

    key: object
    request: PlanRequest
    rng: object
    mc_runs: int
    sweep_kwargs: dict = field(default_factory=dict)


class ScenarioOrchestrator:
    """Plans and executes a scenario's cell grid.

    Parameters
    ----------
    zoo:
        The :class:`~repro.experiments.model_zoo.ZooModel` every cell
        evaluates.
    eval_samples / sense_samples:
        Evaluation and sensitivity subset sizes (the scale preset's).
    cache:
        Optional :class:`~repro.plan.cache.PlanArtifactCache` for the
        engine (default: the shared on-disk cache).
    engine:
        Optional pre-built :class:`~repro.plan.engine.PlanEngine`
        (overrides ``cache``); the orchestrator otherwise builds one on
        the zoo's training subset, mirroring the sweep machinery's
        sense-set slicing.

    Attributes
    ----------
    plans:
        ``cell key -> SelectionPlan`` of the most recent :meth:`run`
        (or :meth:`plan_cells`) — the offline-reusable artifact.
    report:
        :class:`~repro.robustness.report.RunReport` of the most recent
        :meth:`run` — one record per cell plus the cache's self-healing
        counters.
    """

    def __init__(self, zoo, eval_samples=400, sense_samples=512, cache=None,
                 engine=None):
        self.zoo = zoo
        self.eval_samples = int(eval_samples)
        self.sense_samples = int(sense_samples)
        if engine is None:
            engine = PlanEngine(
                zoo.model,
                zoo.data.train_x[:sense_samples],
                zoo.data.train_y[:sense_samples],
                workload=zoo.spec.key,
                cache=cache,
                curvature_batch_size=min(256, int(sense_samples)),
            )
        self.engine = engine
        self.plans = {}
        self.report = RunReport()
        self._eval_digest = None

    @property
    def cache(self):
        """The engine's artifact cache (eval tiles live here too)."""
        return self.engine.cache

    def plan_cells(self, cells):
        """Resolve every cell's plan (shared stages run once).

        Returns — and stores on :attr:`plans` — the
        ``cell key -> SelectionPlan`` mapping.
        """
        cells = list(cells)
        with span("scenario.plan", cells=len(cells)):
            self.plans = {
                cell.key: plan
                for cell, plan in zip(
                    cells, self.engine.plan_batch([c.request for c in cells])
                )
            }
        return self.plans

    # ------------------------------------------------------------ tile keys

    def _cell_config(self, cell, batched):
        """Content address of one cell's outcome: everything that
        determines the result, nothing that does not.

        Model and data enter as digests, the request as its canonical
        physics dict (technology instances through their ``to_dict``
        form), randomness as the cell's root stream seed.  Neither the
        worker count nor timeouts/retries appear — supervision must not
        change what a cell computes, only whether it completes.  Each
        tile's ``eval`` key adds its trial window to this dict.
        """
        request = cell.request
        technology = request.technology
        if technology is not None:
            from repro.cim import resolve_technology

            technology = resolve_technology(technology).to_dict()
        if self._eval_digest is None:
            data = self.zoo.data
            self._eval_digest = data_digest(data.test_x, data.test_y)
        return {
            "model": self.engine._model_digest,
            "sense": self.engine._sense_digest,
            "eval": self._eval_digest,
            "workload": self.zoo.spec.key,
            "request": {
                "methods": list(request.methods),
                "nwc_targets": [float(t) for t in request.nwc_targets],
                "technology": technology,
                "sigma": request.sigma,
                "read_time": request.read_time,
                "weight_bits": int(request.weight_bits),
                "device_bits": int(request.device_bits),
                "curvature_batches": int(request.curvature_batches),
                "wear_inflation": float(request.wear_inflation),
                "wear_consumed": request.wear_consumed,
            },
            "rng_seed": int(cell.rng.seed),
            "mc_runs": int(cell.mc_runs),
            "sweep_kwargs": {
                key: cell.sweep_kwargs[key] for key in sorted(cell.sweep_kwargs)
            },
            "eval_samples": self.eval_samples,
            "sense_samples": self.sense_samples,
            "batched": bool(batched),
        }

    # -------------------------------------------------------------- execution

    def run(self, cells, batched=True, workers=None, timeout=None,
            retries=None, scenario="", tile_trials=None):
        """Schedule the grid's work rectangle and merge its tiles.

        Parameters
        ----------
        cells:
            :class:`ScenarioCell` grid, in output order.
        batched:
            Monte Carlo path selection inside each tile, as in
            :func:`~repro.experiments.sweeps.run_method_sweep`.
        workers:
            Total worker processes for the (cells x trial-blocks)
            rectangle (or ``REPRO_WORKERS``); ``0`` auto-sizes to the
            detected core count.  Unset, tiles run serially in the
            parent.  Results are bitwise-equal at any worker count.
        timeout / retries:
            Supervision overrides forwarded to :func:`~repro.
            robustness.supervisor.supervised_map` (default:
            ``REPRO_CELL_TIMEOUT`` / ``REPRO_CELL_RETRIES``).
        scenario:
            Label stored on :attr:`report`.
        tile_trials:
            Optional tile height override (or ``REPRO_TILE_TRIALS``);
            rounded up to a whole trial block.  Default: the
            :data:`~repro.robustness.scheduler.DEFAULT_TILES_PER_CELL`
            heuristic.

        Returns
        -------
        dict
            ``cell key -> SweepOutcome`` in cell order.  Permanently
            failed cells are absent; consult :attr:`report` (or its
            :attr:`~repro.robustness.report.RunReport.failed` list)
            before treating the grid as complete.
        """
        from repro.experiments.sweeps import run_method_sweep

        workers = resolve_workers(workers)
        tile_trials = resolve_tile_trials(tile_trials)
        cells = list(cells)
        plans = self.plan_cells(cells)
        report = RunReport(scenario=scenario)
        self.report = report
        schedule = active_schedule()

        # --- decompose every cell into the work rectangle's tiles.
        # Boundaries depend only on each cell's trial count and the
        # engine block grid — never on the worker count — so tile cache
        # keys are stable across serial and parallel invocations.
        configs = [self._cell_config(cell, batched) for cell in cells]
        block = default_trial_block()
        tiles = []  # tile id -> Tile
        cell_tiles = []  # cell index -> its tile ids, in trial order
        for index, cell in enumerate(cells):
            ids = []
            for start, stop in tile_ranges(cell.mc_runs, block, tile_trials):
                ids.append(len(tiles))
                tiles.append(Tile(cell=index, start=start, stop=stop))
            cell_tiles.append(ids)
        tile_configs = {
            t: {**configs[tile.cell], "trials": [tile.start, tile.stop]}
            for t, tile in enumerate(tiles)
        }

        # --- probe the evaluation cache: warm tiles never recompute.
        tile_values = {}  # tile id -> partial SweepOutcome
        cached_tiles = set()
        todo = []
        for t in range(len(tiles)):
            arrays = self.cache.get("eval", tile_configs[t])
            if arrays is not None:
                tile_values[t] = decode_outcome(arrays)
                cached_tiles.add(t)
            else:
                todo.append(t)
        report.tiles_total = len(tiles)
        report.tiles_cached = len(cached_tiles)

        def execute(t):
            tile = tiles[t]
            if schedule is not None:
                # Tiles are the unit of supervised execution, so the
                # "cell" fault site fires here, keyed by cell index —
                # the pre-rectangle contract REPRO_FAULTS schedules use.
                schedule.fire("cell", tile.cell)
            cell = cells[tile.cell]
            request = cell.request
            with span(
                "scenario.tile",
                cell=tile.cell, start=tile.start, stop=tile.stop,
            ):
                return run_method_sweep(
                    self.zoo,
                    sigma=request.sigma,
                    technology=request.technology,
                    read_time=request.read_time,
                    nwc_targets=request.nwc_targets,
                    mc_runs=cell.mc_runs,
                    rng=cell.rng,
                    eval_samples=self.eval_samples,
                    sense_samples=self.sense_samples,
                    methods=request.methods,
                    device_bits=request.device_bits,
                    curvature_batches=request.curvature_batches,
                    batched=batched,
                    trial_range=(tile.start, tile.stop),
                    orders=plans[cell.key].orders,
                    **cell.sweep_kwargs,
                )

        def persist(t, partial):
            # Each tile persists the moment it lands, so a killed run
            # leaves its finished tiles behind for the rerun.  An
            # artifact that cannot be written must not take the result
            # (minutes of Monte Carlo work) down with it.
            tile_values[t] = partial
            try:
                self.cache.put("eval", tile_configs[t], encode_outcome(partial))
            except CacheWriteError as exc:
                report.checkpoint_errors += 1
                warnings.warn(
                    f"could not persist eval tile {labels[t]}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

        def label(t):
            tile = tiles[t]
            key = repr(cells[tile.cell].key)
            if len(cell_tiles[tile.cell]) == 1:
                return key
            return f"{key} trials[{tile.start}:{tile.stop}]"

        labels = {t: label(t) for t in range(len(tiles))}

        # --- schedule the remaining tiles: one supervised pool, or the
        # same retry policy in this process.  A ScenarioConfigError in a
        # serial tile propagates (a usage error poisons every tile).
        # The cell span: worker tile spans shipped back through
        # supervised_map's result channel re-attach under it.
        with span(
            "scenario.execute",
            scenario=scenario or "", tiles=len(todo),
            workers=int(workers or 0),
        ):
            if workers and workers > 1 and len(todo) > 1:
                supervised = supervised_map(
                    execute,
                    todo,
                    workers=min(workers, len(todo)),
                    timeout=timeout,
                    retries=retries,
                    labels=labels,
                    on_result=persist,
                )
            else:
                supervised = serial_map(
                    execute, todo, retries=retries, labels=labels,
                    on_result=persist,
                )
        tile_reports = supervised.reports
        report.tiles_computed = sum(1 for t in todo if t in tile_values)

        # --- merge complete cells; fold tile reports into cell records.
        # A cell served entirely from the evaluation cache is "cached"
        # (the passless warm-rerun path).
        outcomes = {}
        for index, cell in enumerate(cells):
            ids = cell_tiles[index]
            own = [tile_reports[t] for t in ids if t in tile_reports]
            missing = [t for t in ids if t not in tile_values]
            if missing:
                status = "failed"
                error = next(
                    (tile_reports[t].error for t in missing
                     if t in tile_reports and tile_reports[t].error),
                    "tile not executed",
                )
            else:
                outcomes[cell.key] = merge_outcomes(
                    [tile_values[t] for t in ids]
                )
                error = None
                statuses = {task.status for task in own}
                if not own:
                    status = "cached"
                elif "degraded" in statuses:
                    status = "degraded"
                elif "recovered" in statuses:
                    status = "recovered"
                else:
                    status = "ok"
            report.add(CellRecord(
                key=cell.key,
                status=status,
                attempts=max((task.attempts for task in own), default=0),
                duration=sum((task.duration for task in own), 0.0),
                error=error,
                failures=[f for task in own for f in task.failures],
                tiles=len(ids),
                tiles_cached=sum(1 for t in ids if t in cached_tiles),
            ))

        report.cache = self.cache.stats()
        metrics = scheduler_metrics()
        metrics["workers"].set(int(workers or 0))
        metrics["tiles"].labels(result="cached").inc(report.tiles_cached)
        metrics["tiles"].labels(result="computed").inc(report.tiles_computed)
        for record in report.cells:
            metrics["cells"].labels(status=record.status).inc()
        return outcomes
