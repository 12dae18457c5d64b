"""CiM accelerator simulation: device state per weight, programming, verify.

:class:`CimAccelerator` owns the device-level state for every weighted
layer of a model (conv and linear weights — biases and batch-norm
parameters stay in digital peripherals, as in the reference architectures
the paper builds on).  It supports the full experiment protocol:

1. ``map_model()``      — quantize + bit-slice all weights (Eq. 14);
2. ``program(rng)``     — initial parallel programming of all devices
   (Eq. 15; free in write-cycle accounting);
3. ``write_verify_all(rng)`` — simulate the verify loop on every device
   and record per-weight correction-cycle counts;
4. ``apply_selection(masks)`` — deploy verified values for the selected
   weights and raw programmed values for the rest, and report the
   normalized write cycles (NWC) actually spent.

Step 3+4 make the NWC normalization *self-consistent per Monte Carlo run*:
the denominator is the cycle count this very run would have needed to
write-verify everything, exactly the paper's normalization.

One device state
----------------
The accelerator holds one device state for a stack of ``n_trials``
independent Monte Carlo draws: ``(num_slices, n_trials) + weight_shape``
levels per tensor, plus one :class:`~repro.cim.write_verify.
WriteVerifyResult` of that shape.  The ``*_trials`` methods program,
verify and deploy the whole stack: the verify loop advances all trials
through one masked pulse loop, and ``apply_selection_trials`` deploys
trial-batched weight overrides (see :mod:`repro.nn.layers.base`) plus a
per-trial NWC vector.  The scalar protocol above is a one-trial view of
the same state, through the same private steps; it keeps the
unsegmented pulse loop, a weight-shaped override and a Python-float
NWC.  Programming uses one RNG substream per trial, so trial ``i`` of a
stack has the initial conductances a one-trial ``program`` call with
that substream draws.

Nonideality stack
-----------------
All device physics flows through a
:class:`~repro.cim.devices.NonidealityStack`: write stages (programming
noise, optionally spatial correlation) run inside ``program`` /
``program_trials``; read stages (retention drift) run inside
``apply_selection*`` when a ``read_time`` is requested; write-verify
cycle counts feed the stack's endurance observer (``wear_summary()``).
The stages read their slice geometry (per-slice noise, full-scales,
differential columns) from the accelerator's
:class:`~repro.cim.mapping.MappingConfig`.  A technology's mapping and
stack come from :func:`repro.plan.resolve_physics` (for example
``PlanRequest(technology="pcm").resolve()``); the default stack
reproduces the paper's i.i.d. Gaussian model bit-for-bit.  The analytic
variance of an unverified deployment, the physics side of Eq. 5, is the
stack's :meth:`~repro.cim.devices.NonidealityStack.variance_map`.
"""

from __future__ import annotations

import numpy as np

from repro.cim.devices import NonidealityStack
from repro.cim.mapping import MappingConfig, WeightMapper
from repro.cim.write_verify import (
    WriteVerifyConfig,
    WriteVerifyResult,
    write_verify,
    write_verify_trials,
)
from repro.nn.layers.base import WeightedLayer

__all__ = ["CimAccelerator", "weighted_layers"]


def weighted_layers(model):
    """Each mapped weight tensor's name -> its layer, in traversal order."""
    return {
        f"{mod_name}.weight" if mod_name else "weight": module
        for mod_name, module in model.named_modules()
        if isinstance(module, WeightedLayer)
    }


class CimAccelerator:
    """Simulated nvCiM platform hosting one model's weights."""

    def __init__(self, model, mapping_config=None, wv_config=None, stack=None):
        self.model = model
        self.mapping_config = (
            mapping_config if mapping_config is not None else MappingConfig()
        )
        self.wv_config = wv_config if wv_config is not None else WriteVerifyConfig()
        self.stack = stack if stack is not None else NonidealityStack.default()
        self.mapper = WeightMapper(self.mapping_config)
        self._layers = weighted_layers(model)
        if not self._layers:
            raise ValueError("model has no weighted layers to map")
        self._mapped = None
        # The one device state: name -> (num_slices, n_trials) + shape.
        self._programmed = None
        self._verified = None
        self._drift_cache = None

    # -------------------------------------------------------------- mapping

    def map_model(self):
        """Quantize and bit-slice every weight tensor (idempotent)."""
        if self._mapped is None:
            self._mapped = {
                name: self.mapper.map_tensor(layer.weight.data)
                for name, layer in self._layers.items()
            }
        return self._mapped

    def num_weights(self):
        """Total number of mapped weights."""
        self.map_model()
        return int(sum(m.codes.size for m in self._mapped.values()))

    # --------------------------------------------------- the scalar protocol

    def program(self, rng):
        """Initial parallel programming of all devices (no verify).

        Runs the stack's write stages (programming noise, then any
        correlated-variation stage) on every tensor; the default stack is
        draw-for-draw identical to the historical
        ``WeightMapper.program_levels`` path.  Invalidates any previous
        verify results and resets the wear observers (new run).

        Returns
        -------
        dict
            ``name -> (num_slices,) + weight_shape`` levels.
        """
        self._program([rng])
        return {name: levels[:, 0] for name, levels in self._programmed.items()}

    def write_verify_all(self, rng):
        """Simulate the verify loop on every device of every tensor.

        Returns
        -------
        dict
            ``name -> WriteVerifyResult`` (levels + per-device cycles,
            ``(num_slices,) + weight_shape``).
        """
        self._write_verify(rng, write_verify)
        return {
            name: WriteVerifyResult(levels=result.levels[:, 0],
                                    cycles=result.cycles[:, 0],
                                    converged=result.converged[:, 0])
            for name, result in self._verified.items()
        }

    def total_cycles(self):
        """Cycles to write-verify every weight (the NWC denominator)."""
        (total,) = self._cycles()[1]
        return int(total)

    def apply_selection(self, selection_masks, read_time=None, read_stream=None):
        """Deploy: verified levels where selected, raw elsewhere.

        Parameters
        ----------
        selection_masks:
            ``name -> boolean array`` (weight shape).  Missing names mean
            "nothing selected in this tensor".
        read_time:
            Optional read time (seconds since programming); when the
            stack has read stages, deployed levels drift to this time.
        read_stream:
            :class:`~repro.utils.rng.RngStream` naming the drift draws
            (required when ``read_time`` is set on a drifting stack).

        Returns
        -------
        float
            Achieved NWC: cycles spent on the selected weights divided by
            the cycles needed to write-verify all weights this run.
        """
        return self._deploy(selection_masks, read_time, read_stream,
                            one_trial=True)

    def apply_none(self, read_time=None, read_stream=None):
        """Deploy raw programmed weights everywhere (NWC = 0)."""
        return self._deploy({}, read_time, read_stream, one_trial=True)

    def apply_all(self, read_time=None, read_stream=None):
        """Deploy verified weights everywhere (NWC = 1)."""
        masks = {
            name: np.ones(m.codes.shape, dtype=bool)
            for name, m in self._mapped.items()
        }
        return self._deploy(masks, read_time, read_stream, one_trial=True)

    # ------------------------------------------------------- trial batching

    def program_trials(self, trial_rngs):
        """Initial programming of every device for a stack of trials.

        Parameters
        ----------
        trial_rngs:
            One numpy Generator per trial.  Trial ``i`` draws its noise
            exactly as a scalar :meth:`program` call with
            ``trial_rngs[i]`` would, so batched and scalar Monte Carlo
            runs see bit-identical initial conductances.

        Returns
        -------
        dict
            ``name -> (num_slices, n_trials) + weight_shape`` levels.
        """
        self._program(trial_rngs)
        return self._programmed

    def write_verify_trials(self, rng):
        """Verify-loop every device of every trial.

        All trials advance through one masked pulse loop per tensor
        slice (:func:`repro.cim.write_verify.write_verify_trials`),
        drawing pulse noise from the one generator ``rng``.

        Returns
        -------
        dict
            ``name -> WriteVerifyResult`` with
            ``(num_slices, n_trials) + weight_shape`` arrays.
        """
        self._write_verify(rng, write_verify_trials)
        return self._verified

    def total_cycles_trials(self):
        """Per-trial NWC denominator, shape ``(n_trials,)``."""
        return self._cycles()[1]

    def apply_selection_trials(self, selection_masks, read_time=None,
                               read_streams=None):
        """Deploy trial-batched weights: verified where selected, raw else.

        Parameters
        ----------
        selection_masks:
            ``name -> boolean array``, either the weight shape (same
            selection for every trial) or ``(n_trials,) + weight_shape``
            (per-trial selections, e.g. the random baseline).  Missing
            names mean "nothing selected in this tensor".
        read_time:
            Optional read time (seconds since programming) for the
            stack's read stages (retention drift).
        read_streams:
            One :class:`~repro.utils.rng.RngStream` per trial; trial
            ``i`` drifts bitwise-identically to a scalar
            :meth:`apply_selection` call with ``read_streams[i]``.

        Returns
        -------
        numpy.ndarray
            Achieved NWC per trial.
        """
        return self._deploy(selection_masks, read_time, read_streams,
                            one_trial=False)

    # ------------------------------------------------- the one device state

    def _program(self, trial_rngs):
        """Program a stack of trials, one generator each."""
        self.map_model()
        self.stack.reset_observers()
        self._drift_cache = None
        # Per-trial generators advance only when their own trial draws, so
        # running the stack tensor-major gives each trial the exact draw
        # order of a one-trial call with the same generator.
        self._programmed = {
            name: self.stack.program_trials(
                mapped.levels, self.mapping_config, trial_rngs
            )
            for name, mapped in self._mapped.items()
        }
        self._verified = None

    def _write_verify(self, rng, loop):
        """Verify every slice of every tensor with ``loop``.

        ``loop`` is :func:`~repro.cim.write_verify.write_verify` (one
        pulse loop over the whole slice, the scalar draw order) or
        :func:`~repro.cim.write_verify.write_verify_trials` (the same
        loop in cache-sized segments).
        """
        if self._programmed is None:
            raise RuntimeError(
                "program() or program_trials() must run before "
                "write_verify_all() or write_verify_trials()"
            )
        self._drift_cache = None
        mapping = self.mapping_config
        tolerances = mapping.slice_tolerance_levels(self.wv_config.tolerance)
        full_scales = mapping.slice_max_levels
        self._verified = {}
        for name, mapped in self._mapped.items():
            programmed = self._programmed[name]
            slice_results = [
                loop(
                    np.broadcast_to(mapped.levels[i], programmed[i].shape),
                    programmed[i],
                    mapping.device,
                    self.wv_config,
                    rng,
                    tolerance_levels=tolerances[i],
                    full_scale=full_scales[i],
                )
                for i in range(mapping.num_slices)
            ]
            self._verified[name] = WriteVerifyResult(
                levels=np.stack([r.levels for r in slice_results]),
                cycles=np.stack([r.cycles for r in slice_results]),
                converged=np.stack([r.converged for r in slice_results]),
            )
            self.stack.observe(name, self._verified[name].cycles)

    def _cycles(self):
        """Per-weight verify cycles, ``name -> (n_trials,) + shape``, and
        the per-trial cycles to verify every weight, ``(n_trials,)``."""
        if self._verified is None:
            raise RuntimeError(
                "write_verify_all() or write_verify_trials() must run first"
            )
        per_weight = {
            name: result.cycles.sum(axis=0)
            for name, result in self._verified.items()
        }
        total = sum(cycles.reshape(len(cycles), -1).sum(axis=1)
                    for cycles in per_weight.values())
        return per_weight, total

    def _deploy(self, selection_masks, read_time, read_streams, one_trial):
        """Deploy verified levels where selected, programmed elsewhere.

        Levels drift to ``read_time`` when the stack has read stages;
        ``read_streams`` holds one stream per trial, or is the one
        stream of a ``one_trial`` deployment, which overrides each layer
        with the weight shape and returns a Python-float NWC.  Otherwise
        the overrides are ``(n_trials,) + weight_shape`` stacks and the
        NWC a per-trial vector.
        """
        cycles, total = self._cycles()
        n_trials = len(total)
        drifting = read_time is not None and self.stack.has_read_stages
        if drifting:
            if read_streams is None:
                raise ValueError("read_time requires a read_stream per trial")
            read_streams = [read_streams] if one_trial else list(read_streams)
            if len(read_streams) != n_trials:
                raise ValueError(
                    f"need {n_trials} read_streams, got {len(read_streams)}"
                )
        spent = np.zeros(n_trials, dtype=np.int64)
        for name, mapped in self._mapped.items():
            mask = selection_masks.get(name)
            if mask is None:
                mask = np.zeros(mapped.codes.shape, dtype=bool)
            else:
                mask = np.asarray(mask, dtype=bool)
            if mask.shape == mapped.codes.shape:
                trial_mask = np.broadcast_to(mask, (n_trials,) + mask.shape)
            elif mask.shape[1:] == mapped.codes.shape:
                trial_mask = mask
            else:
                raise ValueError(
                    f"mask shape {mask.shape} matches neither the weight "
                    f"shape {mapped.codes.shape} nor a per-trial stack "
                    f"for {name}"
                )
            if drifting:
                verified, programmed = self._drifted(name, read_time,
                                                     read_streams)
            else:
                verified = self._verified[name].levels
                programmed = self._programmed[name]
            levels = np.where(trial_mask[None, ...], verified, programmed)
            weights = self.mapper.readout_weights(mapped, levels)
            layer = self._layers[name]
            layer.set_weight_override(
                (weights[0] if one_trial else weights).astype(
                    layer.weight.data.dtype)
            )
            spent += np.where(trial_mask, cycles[name], 0).reshape(
                n_trials, -1).sum(axis=1)
        if one_trial:
            (spent,), (total,) = spent, total
            return int(spent) / int(total) if total else 0.0
        return np.where(total > 0, spent / np.maximum(total, 1), 0.0)

    def _drifted(self, name, read_time, streams):
        """Drifted (verified, programmed) level stacks for one tensor.

        Trial ``i`` drifts through the per-tensor substream
        ``streams[i].child("read", name)``, so the drift realization is a
        deterministic function of (trial stream, read time): re-deploying
        a trial at several NWC targets sees the same drifted devices, and
        the paired design survives retention.  Drift stages are
        elementwise with draws that depend only on the array shape and
        the named substream, so drifting the verified and programmed
        stacks separately and selecting afterwards is bitwise-identical
        to drifting the selected combination — and lets every distinct
        deployment of a sweep's trial block reuse one drift computation.
        The draws come from named substreams, not from a shared
        generator, so a sweep that skips a repeated deployment skips no
        RNG state.  The cache holds the most recent ``(read_time,
        stream seeds)`` key only and is invalidated by re-programming or
        re-verifying.
        """
        key = (float(read_time), tuple(s.seed for s in streams))
        if self._drift_cache is None or self._drift_cache[0] != key:
            self._drift_cache = (key, {})
        cache = self._drift_cache[1]
        if name not in cache:
            children = [s.child("read", name) for s in streams]
            mapping = self.mapping_config
            cache[name] = (
                self.stack.read_trials(self._verified[name].levels, mapping,
                                       children, t=read_time),
                self.stack.read_trials(self._programmed[name], mapping,
                                       children, t=read_time),
            )
        return cache[name]

    # -------------------------------------------------------------- summary

    def wear_summary(self):
        """Endurance wear over every trial this accelerator simulated.

        Delegates to the stack's :class:`~repro.cim.devices.
        EnduranceObserver`, which folds each programming session into
        running aggregates — so blocked trial-batched sweeps and scalar
        per-trial loops both report statistics over all observed
        device-trials, not just the last block.
        """
        return self.stack.wear_summary()

    def clear(self):
        """Remove overrides: the model computes with ideal float weights."""
        for layer in self._layers.values():
            layer.clear_weight_override()
