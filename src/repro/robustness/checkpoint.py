"""Checkpoint serialization: evaluation tiles as cache artifacts.

A scenario grid's unit of loss is one work-rectangle *tile* — a
partial :class:`~repro.experiments.sweeps.SweepOutcome` over a
``trial_range`` window, holding that window's per-trial rows; minutes
of Monte Carlo work at real scales.  These helpers round-trip an
outcome through the ``name -> array`` dict shape the :class:`~repro.
plan.cache.PlanArtifactCache` stores, so the orchestrator can persist
each tile the moment it lands and a rerun (after a crash, a kill, or
nothing at all) skips it.

The round trip is *exact*: accuracy/NWC arrays are stored as the
float64 they were computed in (row-count agnostic), and scalar
metadata rides in a canonical JSON blob (Python's ``json`` emits
shortest-round-trip float literals), so a CSV rendered from cached
tiles is byte-identical to one rendered from a straight-through run.
:func:`merge_outcomes` reassembles an ordered set of tiles into the
cell's full :class:`~repro.experiments.sweeps.SweepOutcome` — bit for
bit, because stacking contiguous row slices reproduces the full arrays
and :func:`merge_wear` derives the wear statistics from the merged
integer aggregates through the observer's own function
(:func:`~repro.cim.devices.endurance.wear_statistics`).
"""

from __future__ import annotations

import json

import numpy as np

from repro.cim.devices.endurance import wear_statistics

__all__ = ["decode_outcome", "encode_outcome", "merge_outcomes", "merge_wear"]


def _plain(value):
    """Recursively strip numpy scalar types for canonical JSON."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def encode_outcome(outcome):
    """A :class:`SweepOutcome` as a cacheable ``name -> array`` dict."""
    meta = _plain({
        "workload": outcome.workload,
        "sigma": outcome.sigma,
        "clean_accuracy": outcome.clean_accuracy,
        "nwc_targets": list(outcome.nwc_targets),
        "technology": outcome.technology,
        "read_time": outcome.read_time,
        "wear": outcome.wear,
        "methods": list(outcome.curves),
    })
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays = {"meta": np.frombuffer(blob, dtype=np.uint8).copy()}
    for method, curve in outcome.curves.items():
        arrays[f"acc__{method}"] = np.asarray(curve.accuracy_runs)
        arrays[f"nwc__{method}"] = np.asarray(curve.nwc_runs)
    return arrays


def decode_outcome(arrays):
    """Rebuild the :class:`SweepOutcome` stored by :func:`encode_outcome`.

    Curves come back in their original method order (recorded in the
    metadata), which is what keeps rendered tables and CSV row order
    stable across cached reruns.
    """
    from repro.experiments.sweeps import MethodCurve, SweepOutcome

    meta = json.loads(bytes(bytearray(arrays["meta"])).decode("utf-8"))
    outcome = SweepOutcome(
        workload=meta["workload"],
        sigma=meta["sigma"],
        clean_accuracy=meta["clean_accuracy"],
        nwc_targets=tuple(meta["nwc_targets"]),
        technology=meta["technology"],
        read_time=meta["read_time"],
        wear=meta["wear"],
    )
    for method in meta["methods"]:
        outcome.curves[method] = MethodCurve(
            method=method,
            nwc_targets=tuple(meta["nwc_targets"]),
            accuracy_runs=np.asarray(arrays[f"acc__{method}"]),
            nwc_runs=np.asarray(arrays[f"nwc__{method}"]),
        )
    return outcome


def merge_wear(summaries):
    """Merge per-tile endurance summaries into the full-run summary.

    Each tile's accelerator observes only its own trials, so its
    summary's integer aggregates (``devices``, ``verify_cycles``,
    ``max_verify_cycles``) cover a disjoint trial subset; summing
    (resp. maxing) them recovers the unsplit run's aggregates exactly,
    and :func:`~repro.cim.devices.endurance.wear_statistics` derives
    the floats from them as the observer does — so the merged dict is
    bitwise what a serial run would have reported.
    """
    summaries = list(summaries)
    if not summaries or summaries[0] is None:
        return None
    return wear_statistics(
        sum(int(s["devices"]) for s in summaries),
        sum(int(s["verify_cycles"]) for s in summaries),
        max(int(s["max_verify_cycles"]) for s in summaries),
        summaries[0]["endurance_cycles"],
    )


def merge_outcomes(parts):
    """Reassemble ordered trial-window tiles into one full outcome.

    ``parts`` are the partial :class:`~repro.experiments.sweeps.
    SweepOutcome`\\ s of one cell's tiles, in trial order, jointly
    covering ``[0, mc_runs)`` (each produced by ``run_method_sweep(...,
    trial_range=...)``).  Stacking the per-trial rows reproduces the
    unsplit run's arrays, and wear merges through integer aggregates —
    the result is bitwise-identical to a serial, untiled sweep.
    """
    from repro.experiments.sweeps import MethodCurve, SweepOutcome

    parts = list(parts)
    first = parts[0]
    outcome = SweepOutcome(
        workload=first.workload,
        sigma=first.sigma,
        clean_accuracy=first.clean_accuracy,
        nwc_targets=first.nwc_targets,
        technology=first.technology,
        read_time=first.read_time,
        wear=merge_wear([p.wear for p in parts]),
    )
    for method in first.curves:
        outcome.curves[method] = MethodCurve(
            method=method,
            nwc_targets=first.nwc_targets,
            accuracy_runs=np.vstack(
                [p.curves[method].accuracy_runs for p in parts]
            ),
            nwc_runs=np.vstack([p.curves[method].nwc_runs for p in parts]),
        )
    return outcome
