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

Trial batching
--------------
The ``*_trials`` methods run the same protocol for ``n_trials``
independent Monte Carlo draws at once: device state is stacked as
``(num_slices, n_trials) + weight_shape`` per tensor, the verify loop
advances all trials through one masked pulse loop, and
``apply_selection_trials`` deploys trial-batched weight overrides (see
:mod:`repro.nn.layers.base`) plus a per-trial NWC vector.  Programming
uses one RNG substream per trial, so trial ``i``'s initial conductances
are bit-identical to what the scalar path draws for run ``i``.

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

__all__ = ["CimAccelerator", "weighted_layer_names"]


def weighted_layer_names(model):
    """Names of all mapped weight tensors, in traversal order."""
    names = []
    for mod_name, module in model.named_modules():
        if isinstance(module, WeightedLayer):
            prefix = f"{mod_name}." if mod_name else ""
            names.append(f"{prefix}weight")
    return names


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
        self._layers = {}
        for mod_name, module in model.named_modules():
            if isinstance(module, WeightedLayer):
                prefix = f"{mod_name}." if mod_name else ""
                self._layers[f"{prefix}weight"] = module
        if not self._layers:
            raise ValueError("model has no weighted layers to map")
        self._mapped = None
        self._programmed = None
        self._verified = None
        self._programmed_trials = None
        self._verified_trials = None
        self._n_trials = None
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

    # ---------------------------------------------------------- programming

    def program(self, rng):
        """Initial parallel programming of all devices (no verify).

        Runs the stack's write stages (programming noise, then any
        correlated-variation stage) on every tensor; the default stack is
        draw-for-draw identical to the historical
        ``WeightMapper.program_levels`` path.  Invalidates any previous
        verify results and resets the wear observers (new run).
        """
        self.map_model()
        self.stack.reset_observers()
        self._drift_cache = None
        self._programmed = {
            name: self.stack.program(mapped.levels, self.mapping_config, rng)
            for name, mapped in self._mapped.items()
        }
        self._verified = None
        return self._programmed

    def write_verify_all(self, rng):
        """Simulate the verify loop on every device of every tensor.

        Returns
        -------
        dict
            ``name -> WriteVerifyResult`` (levels + per-device cycles).
        """
        if self._programmed is None:
            raise RuntimeError("program() must run before write_verify_all()")
        self._drift_cache = None
        mapping = self.mapping_config
        tolerances = mapping.slice_tolerance_levels(self.wv_config.tolerance)
        full_scales = mapping.slice_max_levels
        self._verified = {}
        for name, mapped in self._mapped.items():
            slice_results = [
                write_verify(
                    mapped.levels[i],
                    self._programmed[name][i],
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
        return self._verified

    # ------------------------------------------------------------ accounting

    def weight_cycles(self):
        """Per-weight verify cycles: sum over the weight's bit slices."""
        if self._verified is None:
            raise RuntimeError("write_verify_all() must run first")
        return {
            name: result.cycles.sum(axis=0)
            for name, result in self._verified.items()
        }

    def total_cycles(self):
        """Cycles to write-verify every weight (the NWC denominator)."""
        return int(sum(c.sum() for c in self.weight_cycles().values()))

    # ------------------------------------------------------------ deployment

    def _drift_pair(self, key, name, drift_fn):
        """Cached (drifted verified, drifted programmed) for one tensor.

        Drift stages are elementwise with draws that depend only on the
        array shape and the named substream, so drifting the verified and
        programmed stacks separately (with the *same* per-tensor
        substream, hence the same exponent/relaxation draws) and
        selecting afterwards is bitwise-identical to drifting the
        selected combination — and lets every distinct deployment of a
        sweep's trial block reuse one drift computation.  The draws come
        from named substreams, not from a shared generator, so a sweep
        that skips a repeated deployment skips no RNG state.  The cache
        holds the most recent ``(read_time, streams)`` key only and is
        invalidated by re-programming/re-verifying.
        """
        if self._drift_cache is None or self._drift_cache[0] != key:
            self._drift_cache = (key, {})
        cache = self._drift_cache[1]
        if name not in cache:
            cache[name] = drift_fn()
        return cache[name]

    def _drifted_scalar(self, name, read_time, read_stream):
        """Drifted (verified, programmed) level stacks for one tensor.

        ``read_stream`` is an :class:`~repro.utils.rng.RngStream`; the
        per-tensor substream ``read_stream.child("read", name)`` makes the
        drift realization a deterministic function of (trial stream, read
        time), so re-deploying the same trial at several NWC targets sees
        the same drifted devices — the paired design survives retention.
        """
        def drift():
            stream = read_stream.child("read", name)
            mapping = self.mapping_config
            return (
                self.stack.read(self._verified[name].levels, mapping, stream,
                                t=read_time),
                self.stack.read(self._programmed[name], mapping, stream,
                                t=read_time),
            )

        key = (float(read_time), read_stream.seed)
        return self._drift_pair(key, name, drift)

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
        if self._verified is None:
            raise RuntimeError("write_verify_all() must run first")
        drifting = read_time is not None and self.stack.has_read_stages
        if drifting and read_stream is None:
            raise ValueError("read_time requires a read_stream (RngStream)")
        spent = 0
        total = 0
        for name, mapped in self._mapped.items():
            cycles = self._verified[name].cycles.sum(axis=0)
            total += int(cycles.sum())
            mask = selection_masks.get(name)
            if mask is None:
                mask = np.zeros(mapped.codes.shape, dtype=bool)
            else:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != mapped.codes.shape:
                    raise ValueError(
                        f"mask shape {mask.shape} != weight shape "
                        f"{mapped.codes.shape} for {name}"
                    )
            if drifting:
                verified, programmed = self._drifted_scalar(
                    name, read_time, read_stream
                )
            else:
                verified = self._verified[name].levels
                programmed = self._programmed[name]
            levels = np.where(mask[None, ...], verified, programmed)
            weights = self.mapper.readout_weights(mapped, levels)
            layer = self._layers[name]
            layer.set_weight_override(weights.astype(layer.weight.data.dtype))
            spent += int(cycles[mask].sum())
        return spent / total if total else 0.0

    def apply_none(self, read_time=None, read_stream=None):
        """Deploy raw programmed weights everywhere (NWC = 0)."""
        return self.apply_selection({}, read_time=read_time,
                                    read_stream=read_stream)

    def apply_all(self, read_time=None, read_stream=None):
        """Deploy verified weights everywhere (NWC = 1)."""
        masks = {
            name: np.ones(m.codes.shape, dtype=bool)
            for name, m in self._mapped.items()
        }
        return self.apply_selection(masks, read_time=read_time,
                                    read_stream=read_stream)

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
        self.map_model()
        self.stack.reset_observers()
        self._drift_cache = None
        # Per-trial generators advance only when their own trial draws, so
        # running the stack tensor-major here gives each trial the exact
        # draw order of a scalar program() call with the same generator.
        self._programmed_trials = {
            name: self.stack.program_trials(
                mapped.levels, self.mapping_config, trial_rngs
            )
            for name, mapped in self._mapped.items()
        }
        self._verified_trials = None
        self._n_trials = len(trial_rngs)
        return self._programmed_trials

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
        if self._programmed_trials is None:
            raise RuntimeError("program_trials() must run before write_verify_trials()")
        self._drift_cache = None
        mapping = self.mapping_config
        tolerances = mapping.slice_tolerance_levels(self.wv_config.tolerance)
        full_scales = mapping.slice_max_levels
        self._verified_trials = {}
        for name, mapped in self._mapped.items():
            slice_results = []
            for i in range(mapping.num_slices):
                targets = np.broadcast_to(
                    mapped.levels[i][None, ...],
                    self._programmed_trials[name][i].shape[:1] + mapped.levels[i].shape,
                )
                # The trial axis leads inside write_verify_trials; device
                # state is stored slice-major, so swap back afterwards.
                result = write_verify_trials(
                    targets,
                    self._programmed_trials[name][i],
                    mapping.device,
                    self.wv_config,
                    rng,
                    tolerance_levels=tolerances[i],
                    full_scale=full_scales[i],
                )
                slice_results.append(result)
            self._verified_trials[name] = WriteVerifyResult(
                levels=np.stack([r.levels for r in slice_results]),
                cycles=np.stack([r.cycles for r in slice_results]),
                converged=np.stack([r.converged for r in slice_results]),
            )
            self.stack.observe(name, self._verified_trials[name].cycles)
        return self._verified_trials

    def weight_cycles_trials(self):
        """Per-trial per-weight verify cycles: ``name -> (n_trials,)+shape``."""
        if self._verified_trials is None:
            raise RuntimeError("write_verify_trials() must run first")
        return {
            name: result.cycles.sum(axis=0)
            for name, result in self._verified_trials.items()
        }

    def total_cycles_trials(self):
        """Per-trial NWC denominator, shape ``(n_trials,)``."""
        cycles = self.weight_cycles_trials()
        total = np.zeros(self._n_trials, dtype=np.int64)
        for per_weight in cycles.values():
            total += per_weight.reshape(self._n_trials, -1).sum(axis=1)
        return total

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
        if self._verified_trials is None:
            raise RuntimeError("write_verify_trials() must run first")
        n_trials = self._n_trials
        drifting = read_time is not None and self.stack.has_read_stages
        if drifting:
            if read_streams is None:
                raise ValueError("read_time requires read_streams")
            read_streams = list(read_streams)
            if len(read_streams) != n_trials:
                raise ValueError(
                    f"need {n_trials} read_streams, got {len(read_streams)}"
                )
        spent = np.zeros(n_trials, dtype=np.int64)
        total = np.zeros(n_trials, dtype=np.int64)
        for name, mapped in self._mapped.items():
            verified = self._verified_trials[name]
            programmed = self._programmed_trials[name]
            verified_levels = verified.levels
            cycles = verified.cycles.sum(axis=0)
            total += cycles.reshape(n_trials, -1).sum(axis=1)
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
                verified_levels, programmed = self._drifted_trials(
                    name, verified_levels, programmed, read_time,
                    read_streams,
                )
            levels = np.where(trial_mask[None, ...], verified_levels, programmed)
            weights = self.mapper.readout_weights(mapped, levels)
            layer = self._layers[name]
            layer.set_weight_override(weights.astype(layer.weight.data.dtype))
            spent += np.where(trial_mask, cycles, 0).reshape(n_trials, -1).sum(axis=1)
        return np.where(total > 0, spent / np.maximum(total, 1), 0.0)

    def _drifted_trials(self, name, verified_levels, programmed, read_time,
                        streams):
        """Drifted (verified, programmed) trial stacks for one tensor.

        Same substream naming as the scalar path (trial ``i`` drifts via
        ``streams[i].child("read", name)``), so batched and scalar drift
        stay bitwise-equal; the cache key is the deployed streams' seeds,
        so a sweep's deployments of one block drift once.
        """
        def drift():
            children = [s.child("read", name) for s in streams]
            mapping = self.mapping_config
            return (
                self.stack.read_trials(verified_levels, mapping, children,
                                       t=read_time),
                self.stack.read_trials(programmed, mapping, children,
                                       t=read_time),
            )

        key = (float(read_time), tuple(s.seed for s in streams))
        return self._drift_pair(key, name, drift)

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
