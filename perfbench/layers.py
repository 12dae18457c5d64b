"""Per-layer instrumentation for the pipeline benchmark.

:func:`instrument` wraps the public entry points of each layer in
``repro.obs.trace.span`` calls, from this file, without editing the
program.  Spans the program already records (``scenario.tile``,
``plan.curvature``, ``plan.variance``, ``plan.resolve``) are read as
they are.  Wrappers cost one attribute read while tracing is off, and
fork workers ship their spans back through ``supervised_map``, so one
span list covers the whole process tree.

:func:`layer_metrics` turns a span list into the per-layer metrics the
benchmark reports; :func:`self_times` gives each span name's self time
(its duration minus the part of it that its children cover).
"""

from __future__ import annotations

import functools

# Metric name -> unit, in report order.  BENCHMARK.json's ``per_layer``
# list mirrors this table (the self-tests check that it does).
PER_LAYER_UNITS = {
    "zoo.load_s": "s",
    "data.build_s": "s",
    "nn.fit_s": "s",
    "nn.im2col.calls": "count",
    "nn.im2col.s": "s",
    "nn.maxpool.s": "s",
    "nn.col2im.calls": "count",
    "nn.col2im.s": "s",
    "nn.conv_backward.s": "s",
    "insitu.run.s": "s",
    "insitu.iterations": "count",
    "mc.eval.calls": "count",
    "mc.eval.s": "s",
    "cim.program.s": "s",
    "cim.write_verify.s": "s",
    "cim.apply_selection.s": "s",
    "cim.verify_pulses": "count",
    "cim.pulses_per_s": "1/s",
    "plan.curvature.calls": "count",
    "plan.curvature.s": "s",
    "plan.variance.calls": "count",
    "plan.variance.s": "s",
    "plan.resolve.s": "s",
    "cache.get.calls": "count",
    "cache.get.s": "s",
    "cache.hit_ratio": "ratio",
    "cache.put.calls": "count",
    "cache.put.s": "s",
    "cache.put.bytes": "bytes",
    "sched.tiles.computed": "count",
    "sched.tiles.cached": "count",
    "sched.tile.s": "s",
    "sched.pool.s": "s",
    "sched.pool_busy_frac": "ratio",
    "checkpoint.merge.s": "s",
    "supervisor.retries": "count",
    "supervisor.crashes": "count",
    "supervisor.timeouts": "count",
    "serve.server_ms.warm_p50": "ms",
    "serve.server_ms.cold_p50": "ms",
    "serve.transport_ms.p50": "ms",
    "serve.engine_resolutions": "count",
    "serve.coalesced": "count",
    "obs.trace_overhead": "ratio",
    "obs.span_coverage": "ratio",
}

# Span name -> (calls metric or None, seconds metric or None).
_SPAN_METRICS = {
    "zoo.load": (None, "zoo.load_s"),
    "data.build": (None, "data.build_s"),
    "nn.fit": (None, "nn.fit_s"),
    "nn.im2col": ("nn.im2col.calls", "nn.im2col.s"),
    "nn.maxpool": (None, "nn.maxpool.s"),
    "nn.col2im": ("nn.col2im.calls", "nn.col2im.s"),
    "nn.conv_backward": (None, "nn.conv_backward.s"),
    "insitu.run": (None, "insitu.run.s"),
    "mc.eval": ("mc.eval.calls", "mc.eval.s"),
    "cim.program": (None, "cim.program.s"),
    "cim.write_verify": (None, "cim.write_verify.s"),
    "cim.apply_selection": (None, "cim.apply_selection.s"),
    "plan.curvature": ("plan.curvature.calls", "plan.curvature.s"),
    "plan.variance": ("plan.variance.calls", "plan.variance.s"),
    "plan.resolve": (None, "plan.resolve.s"),
    "cache.get": ("cache.get.calls", "cache.get.s"),
    "cache.put": ("cache.put.calls", "cache.put.s"),
    "scenario.tile": (None, "sched.tile.s"),
    "sched.pool": (None, "sched.pool.s"),
    "checkpoint.merge": (None, "checkpoint.merge.s"),
}

# Span name -> (attribute summed, metric it sums into).
_ATTR_METRICS = {
    "cim.write_verify": ("pulses", "cim.verify_pulses"),
    "insitu.run": ("iterations", "insitu.iterations"),
    "cache.put": ("bytes", "cache.put.bytes"),
}


def _wrap(owner, attr, name, after=None):
    """Replace ``owner.attr`` with a version that runs inside a span.

    ``after(result, args, kwargs)`` returns extra span attributes; it
    runs only while tracing is on, so untraced calls pay nothing extra.
    """
    from repro.obs.trace import TRACER

    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench__", False):
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            return fn(*args, **kwargs)
        with TRACER.span(name) as span:
            result = fn(*args, **kwargs)
            if after is not None:
                span.set(**after(result, args, kwargs))
            return result

    wrapper.__perfbench__ = True
    setattr(owner, attr, wrapper)


def _pulses(result, args, kwargs):
    return {"pulses": int(args[0].total_cycles())}


def _pulses_trials(result, args, kwargs):
    return {"pulses": int(args[0].total_cycles_trials().sum())}


def _iterations(result, args, kwargs):
    iterations = kwargs.get("iterations", args[3] if len(args) > 3 else 0)
    return {"iterations": int(iterations)}


def _hit(result, args, kwargs):
    return {"hit": result is not None}


def _workers(result, args, kwargs):
    return {"workers": int(kwargs.get("workers", args[2] if len(args) > 2 else 1))}


def _put_bytes(result, args, kwargs):
    return {"bytes": int(sum(array.nbytes for array in result.values()))}


def instrument():
    """Install span wrappers around every layer's public functions.

    Idempotent.  Call before forking workers so they inherit the
    wrappers; the wrappers record only while tracing is enabled.
    """
    import repro.core.mc as mc
    import repro.core.metrics as core_metrics
    import repro.experiments.model_zoo as model_zoo
    import repro.experiments.retention as retention
    import repro.experiments.sweeps as sweeps
    import repro.experiments.table1 as table1
    import repro.nn.functional as functional
    import repro.plan.orchestrator as orchestrator
    from repro.cim import CimAccelerator
    from repro.core.insitu import InSituTrainer
    from repro.nn.layers.conv import Conv2d
    from repro.nn.layers.pooling import MaxPool2d
    from repro.nn.trainer import Trainer
    from repro.plan.cache import PlanArtifactCache

    # Functions imported by name are wrapped at every importing module.
    load_workload = model_zoo.load_workload
    _wrap(model_zoo, "load_workload", "zoo.load")
    for module in (table1, retention):
        if module.load_workload is load_workload:
            module.load_workload = model_zoo.load_workload
    _wrap(model_zoo, "build_data", "data.build")
    _wrap(Trainer, "fit", "nn.fit")

    _wrap(functional, "im2col", "nn.im2col")
    _wrap(functional, "col2im", "nn.col2im")
    for attr in ("forward", "backward", "backward_second"):
        _wrap(MaxPool2d, attr, "nn.maxpool")
    for attr in ("backward", "backward_second"):
        _wrap(Conv2d, attr, "nn.conv_backward")

    _wrap(InSituTrainer, "run", "insitu.run", after=_iterations)
    evaluate = core_metrics.evaluate_accuracy_trials
    _wrap(core_metrics, "evaluate_accuracy_trials", "mc.eval")
    for module in (sweeps, mc):
        if module.evaluate_accuracy_trials is evaluate:
            module.evaluate_accuracy_trials = core_metrics.evaluate_accuracy_trials

    for attr in ("program", "program_trials"):
        _wrap(CimAccelerator, attr, "cim.program")
    _wrap(CimAccelerator, "write_verify_all", "cim.write_verify",
          after=_pulses)
    _wrap(CimAccelerator, "write_verify_trials", "cim.write_verify",
          after=_pulses_trials)
    for attr in ("apply_selection", "apply_selection_trials"):
        _wrap(CimAccelerator, attr, "cim.apply_selection")

    _wrap(PlanArtifactCache, "lookup", "cache.get", after=_hit)
    _wrap(PlanArtifactCache, "put", "cache.put", after=_put_bytes)
    _wrap(orchestrator, "merge_outcomes", "checkpoint.merge")
    _wrap(orchestrator, "supervised_map", "sched.pool", after=_workers)


# ----------------------------------------------------------------- analysis


def union_length(intervals):
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def _children(spans):
    by_parent = {}
    for record in spans:
        by_parent.setdefault(record.get("parent"), []).append(record)
    return by_parent


def covered(record, children):
    """Seconds of ``record``'s interval covered by its children."""
    start = record["start"]
    end = start + record["dur"]
    return union_length(
        (max(start, child["start"]), min(end, child["start"] + child["dur"]))
        for child in children
        if child["start"] < end and child["start"] + child["dur"] > start
    )


def ancestors(record, by_id):
    """Names of ``record``'s ancestors, nearest first (``by_id``: id -> span)."""
    names = []
    parent = by_id.get(record.get("parent"))
    while parent is not None:
        names.append(parent["name"])
        parent = by_id.get(parent.get("parent"))
    return names


def self_times(spans):
    """``name -> {"calls", "total_s", "self_s"}`` from parent links.

    Self time is a span's duration minus the union of its children's
    intervals, so children running in parallel workers are not counted
    twice.
    """
    by_parent = _children(spans)
    table = {}
    for record in spans:
        row = table.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += record["dur"]
        row["self_s"] += record["dur"] - covered(
            record, by_parent.get(record["id"], ())
        )
    return table


def span_coverage(spans, roots):
    """Share of the ``roots`` spans' wall covered by their children."""
    by_parent = _children(spans)
    wall = sum(record["dur"] for record in roots)
    if wall <= 0:
        return 0.0
    return sum(
        covered(record, by_parent.get(record["id"], ())) for record in roots
    ) / wall


def layer_metrics(spans, roots):
    """Per-layer metrics derivable from spans alone.

    ``roots`` are the benchmark's own operation spans, the denominators
    of ``obs.span_coverage``.  Metrics that need other sources (tile
    counts, supervisor counters, serve headers, overhead) start at 0 and
    are filled in by the workload.
    """
    metrics = {name: 0 for name in PER_LAYER_UNITS}
    for record in spans:
        calls, seconds = _SPAN_METRICS.get(record["name"], (None, None))
        if calls is not None:
            metrics[calls] += 1
        if seconds is not None:
            metrics[seconds] += record["dur"]
        if record["name"] in _ATTR_METRICS:
            attr, metric = _ATTR_METRICS[record["name"]]
            metrics[metric] += record["attrs"].get(attr, 0)
    if metrics["cim.write_verify.s"] > 0:
        metrics["cim.pulses_per_s"] = (
            metrics["cim.verify_pulses"] / metrics["cim.write_verify.s"]
        )
    gets = [r for r in spans if r["name"] == "cache.get"]
    if gets:
        metrics["cache.hit_ratio"] = sum(
            1 for r in gets if r["attrs"].get("hit")) / len(gets)
    pools = [r for r in spans if r["name"] == "sched.pool"]
    pool_capacity = sum(r["dur"] * r["attrs"].get("workers", 1) for r in pools)
    if pool_capacity > 0:
        # Worker spans re-parent under the span open at map entry,
        # which is the pool span itself.
        by_parent = _children(spans)
        busy = sum(
            r["dur"]
            for pool in pools
            for r in by_parent.get(pool["id"], ())
            if r["name"] == "scenario.tile"
        )
        metrics["sched.pool_busy_frac"] = busy / pool_capacity
    metrics["obs.span_coverage"] = span_coverage(spans, roots)
    return metrics
