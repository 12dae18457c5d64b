"""Composable, trial-batched nonideality stack.

The stack composes the device physics (programming noise, spatial
correlation, retention, endurance) into one ordered pipeline the
accelerator runs for every tensor:

- **write stages** run at programming time, in order (programming noise,
  then spatially correlated variation);
- **read stages** run at deployment/read time (retention drift to the
  requested read time);
- **observers** watch write-verify cycle accounting without touching any
  level (endurance wear).

Every stage reads its slice geometry — per-slice noise sigma, full-scale
and differential columns — from the :class:`~repro.cim.mapping.
MappingConfig` the levels were sliced under, the same config
:meth:`NonidealityStack.variance_map` reads, so the sampled noise and the
analytic ``E[dw^2]`` that Eq. 5 ranks by share one geometry.

RNG discipline
--------------
Write stages draw *sequentially* from the generator the caller passes —
exactly the contract :meth:`repro.cim.mapping.WeightMapper.program_levels`
always had — so the default stack is bitwise-identical to the historical
programming path, and per-trial generators keep batched and scalar Monte
Carlo runs bitwise-equivalent.  Read stages draw from a *named substream
per stage* (``stream.child(stage.name)``), so re-deploying the same trial
at the same read time always sees the same drift realization: the paired
design of the NWC sweeps extends to retention studies, and a device's
drift exponent stays fixed across observation times.

Trial batching: :meth:`NonidealityStack.program_trials` and
:meth:`NonidealityStack.read_trials` take one generator (or stream) per
trial and return the accelerator's slice-major ``(num_slices, n_trials)
+ weight_shape`` layout, with trial ``i`` bitwise-equal to the scalar
call.
"""

from __future__ import annotations

import numpy as np

from repro.cim.devices.endurance import EnduranceObserver

__all__ = [
    "NonidealityStage",
    "ProgrammingNoiseStage",
    "SpatialCorrelationStage",
    "RetentionDriftStage",
    "DriftCompensationStage",
    "NonidealityStack",
]


class NonidealityStage:
    """One ordered transformation of slice-major device levels.

    Subclasses set ``name`` (used for read-substream naming and display)
    and ``when`` (``"write"`` = applied at programming time, ``"read"`` =
    applied at deployment time), and implement :meth:`apply` on a
    ``(num_slices,) + weight_shape`` array for one trial.  ``mapping`` is
    the :class:`~repro.cim.mapping.MappingConfig` whose slice geometry
    (per-slice noise sigma, full-scale, differential columns) the stage
    reads.  Stages must be pure in their inputs apart from RNG draws:
    trial batching relies on per-trial generators reproducing the scalar
    draw order bitwise.
    """

    name = "stage"
    when = "write"

    def apply(self, levels, mapping, rng, t=None):
        """Transform one trial's slice-major levels; returns a new array."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, when={self.when!r})"


class ProgrammingNoiseStage(NonidealityStage):
    """I.i.d. Gaussian programming noise per device (paper Eq. 15).

    Reproduces :meth:`~repro.cim.mapping.WeightMapper.program_levels`
    draw-for-draw — one standard-normal array per tensor scaled by the
    per-slice sigma, plus a second subtracted draw in differential mode —
    so a default stack is bitwise-identical to the historical path.
    """

    name = "program-noise"
    when = "write"

    def apply(self, levels, mapping, rng, t=None):
        per_slice = mapping.slice_sigma_levels().reshape(
            (-1,) + (1,) * (levels.ndim - 1)
        )
        out = levels + rng.normal(0.0, 1.0, size=levels.shape) * per_slice
        if mapping.differential:
            out = out - rng.normal(0.0, 1.0, size=levels.shape) * per_slice
        return out


class SpatialCorrelationStage(NonidealityStage):
    """Adds a spatially correlated error field per bit slice.

    Wraps :class:`~repro.cim.devices.spatial.SpatialVariationModel`: each
    slice's devices are folded onto crossbar coordinates and receive one
    correlated field draw, scaled to the slice's own full-scale.
    """

    name = "spatial"
    when = "write"

    def __init__(self, model):
        self.model = model

    def apply(self, levels, mapping, rng, t=None):
        out = np.array(levels, dtype=np.float64)
        max_levels = mapping.slice_max_levels
        for i in range(out.shape[0]):
            field = self.model.sample_field(
                out[i].size, rng, device_max_level=max_levels[i]
            )
            out[i] = out[i] + field.reshape(out[i].shape)
        return out


class RetentionDriftStage(NonidealityStage):
    """Drifts levels to the read time ``t`` at deployment.

    Wraps :class:`~repro.cim.devices.retention.RetentionModel`.  A read
    with ``t=None`` (or ``t == t0``) is the paper's read-after-write
    setting and leaves levels untouched.
    """

    name = "retention"
    when = "read"

    def __init__(self, model):
        self.model = model

    def apply(self, levels, mapping, rng, t=None):
        if t is None:
            return levels
        out = np.empty_like(np.asarray(levels, dtype=np.float64))
        max_levels = mapping.slice_max_levels
        for i in range(out.shape[0]):
            out[i] = self.model.apply(
                levels[i], t, rng, device_max_level=max_levels[i]
            )
        return out


class DriftCompensationStage(NonidealityStage):
    """Global conductance rescale cancelling the mean drift at read time.

    PCM platforms track the decay of reference cells and rescale the whole
    array's readout accordingly (time-aware sensing / global scaling).
    This stage models that: it runs *after* :class:`RetentionDriftStage`
    and divides every level by the drift model's exact mean decay
    ``E[(t/t0) ** (-max(nu, 0))]`` (see
    :meth:`~repro.cim.devices.retention.RetentionModel.decay_moments`).
    The deterministic part of the power-law decay cancels; the
    device-to-device exponent spread and the relaxation noise remain —
    compensation recovers the mean, not the variance.

    The stage draws nothing from its RNG substream, and at ``t == t0``
    (or ``t=None``) the factor is exactly 1 and the levels pass through
    untouched — a bitwise no-op at the read-after-write reference time.
    """

    name = "drift-compensation"
    when = "read"

    def __init__(self, model):
        self.model = model

    def apply(self, levels, mapping, rng, t=None):
        if t is None:
            return levels
        factor = self.model.mean_decay(t)
        if factor == 1.0:
            return levels
        return np.asarray(levels, dtype=np.float64) / factor


class NonidealityStack:
    """Ordered nonideality stages plus passive observers.

    Parameters
    ----------
    stages:
        :class:`NonidealityStage` instances; write stages run in the
        given order at programming time, read stages in the given order
        at read time.
    observers:
        Objects with ``reset()`` / ``observe(name, cycles)`` (e.g.
        :class:`~repro.cim.devices.endurance.EnduranceObserver`); fed the
        verify-cycle arrays of every write-verify session.
    """

    def __init__(self, stages=(), observers=()):
        self.stages = tuple(stages)
        self.observers = tuple(observers)
        for stage in self.stages:
            if stage.when not in ("write", "read"):
                raise ValueError(
                    f"stage {stage.name!r} has invalid when={stage.when!r}"
                )

    @classmethod
    def default(cls, endurance_model=None):
        """The paper's model: i.i.d. programming noise + wear accounting."""
        return cls(
            stages=(ProgrammingNoiseStage(),),
            observers=(EnduranceObserver(endurance_model),),
        )

    # ------------------------------------------------------------ structure

    @property
    def write_stages(self):
        """Stages applied at programming time, in order."""
        return tuple(s for s in self.stages if s.when == "write")

    @property
    def read_stages(self):
        """Stages applied at read/deployment time, in order."""
        return tuple(s for s in self.stages if s.when == "read")

    @property
    def has_read_stages(self):
        """True when deployment-time physics (e.g. drift) is modeled."""
        return bool(self.read_stages)

    # ---------------------------------------------------------------- write

    def program(self, levels, mapping, rng):
        """Run all write stages on one trial's desired levels.

        ``mapping`` is the :class:`~repro.cim.mapping.MappingConfig` the
        levels were sliced under.  ``rng`` is a numpy Generator; stages
        draw from it sequentially (the historical ``program_levels``
        contract).
        """
        out = np.asarray(levels, dtype=np.float64)
        for stage in self.write_stages:
            out = stage.apply(out, mapping, rng)
        return out

    def program_trials(self, levels, mapping, trial_rngs):
        """Program a stack of trials: ``(num_slices, n_trials) + shape``.

        Trial ``i`` draws from ``trial_rngs[i]`` exactly as
        :meth:`program` would, so batched and scalar paths see
        bit-identical programmed levels.
        """
        return np.stack(
            [self.program(levels, mapping, rng) for rng in trial_rngs], axis=1
        )

    # ----------------------------------------------------------------- read

    def read(self, levels, mapping, stream, t=None):
        """Run all read stages on one trial's deployed levels.

        ``stream`` is an :class:`~repro.utils.rng.RngStream`; each stage
        draws from ``stream.child(stage.name)``, so identical (stream, t)
        pairs always produce identical drift realizations — re-deploying
        a trial at several NWC targets keeps the paired design.
        """
        if t is None or not self.read_stages:
            return levels
        out = levels
        for stage in self.read_stages:
            out = stage.apply(out, mapping, stream.child(stage.name).generator,
                              t=t)
        return out

    def read_trials(self, levels, mapping, streams, t=None):
        """Read a slice-major trial stack through all read stages.

        ``levels`` is ``(num_slices, n_trials) + shape``; trial ``i``
        reads through ``streams[i]`` bitwise-equal to :meth:`read`.
        """
        if t is None or not self.read_stages:
            return levels
        return np.stack(
            [
                self.read(levels[:, i], mapping, stream, t=t)
                for i, stream in enumerate(streams)
            ],
            axis=1,
        )

    # ------------------------------------------------------- variance closure

    def variance_map(self, mapping_config, space, model, read_time=None,
                     wear_inflation=1.0):
        """Analytic per-weight perturbation variance ``E[dw_i^2]``, weight units.

        This closes the loop between the device physics and Eq. 5
        selection: instead of the constant per-tensor Eq. 16 variance,
        the stack composes what its own stages actually do to an
        *unverified* weight —

        - **write variance**: per-slice programming-noise sigma through
          the quantization scale and positional slice weights (doubled in
          differential mode), plus the marginal variance of any
          :class:`SpatialCorrelationStage` (correlation moves covariance,
          not the per-device marginal), optionally inflated by
          ``wear_inflation`` for aged cells;
        - **drift at the read time**: a :class:`RetentionDriftStage`
          multiplies the programmed level (signal and noise alike) by the
          random decay ``D``, whose exact clipped-Gaussian moments give
          the bias term ``(E[D]-1)^2 code^2``, the level-dependent spread
          ``Var(D) L_i^2``, and the ``E[D^2]`` shrink of the write noise,
          plus the log-time relaxation variance;
        - **compensation**: a :class:`DriftCompensationStage` divides all
          moments by the mean decay, cancelling the bias exactly.

        The result is the second moment of ``w_read - w_desired`` for a
        programmed-but-not-verified weight — the ``E[dw_i^2]`` that
        Eq. 5 pairs with the curvature diagonal — and matches
        :meth:`empirical_variance_map` draw-for-draw in distribution.
        A stack of programming noise alone, read after write and
        unworn, gives the paper's constant per-tensor Eq. 16 map.

        Parameters
        ----------
        mapping_config:
            The :class:`~repro.cim.mapping.MappingConfig` in use.
        space / model:
            A :class:`~repro.core.selection.WeightSpace` plus the model
            itself; every mapped tensor is quantized to get its scale and
            desired levels.
        read_time:
            Seconds since programming (None = read-after-write: read
            stages do not apply, matching :meth:`read`).
        wear_inflation:
            Multiplier on the programming-noise variance modeling
            write-precision loss of worn cells (1.0 = fresh devices).

        Returns
        -------
        numpy.ndarray
            Flat concatenated vector of per-weight ``E[dw^2]`` in weight
            units.
        """
        from repro.cim.mapping import WeightMapper

        mapper = WeightMapper(mapping_config)
        params = dict(model.named_parameters())
        per_tensor = {}
        for name in space.names:
            mapped = mapper.map_tensor(params[name].data)
            per_tensor[name] = self._tensor_variance(
                mapping_config, mapped.levels, mapped.scale, read_time,
                wear_inflation,
            )
        return space.flatten(per_tensor)

    def _read_moment_state(self, read_time, pos, max_levels):
        """Fold the read stages into moment factors for one tensor.

        Tracks the moments of a programmed level ``g`` through the read
        pipeline as ``E[g] = mf * L`` and ``E[g^2] = A L^2 + B v_write +
        relax`` (``relax`` per slice in code units): drift multiplies
        ``(mf, A, B)`` by its decay moments and adds relaxation variance;
        compensation divides by the mean decay.
        """
        mf, second_l2, second_noise = 1.0, 1.0, 1.0
        relax = np.zeros(len(max_levels))
        if read_time is None:
            return mf, second_l2, second_noise, relax
        for stage in self.read_stages:
            if isinstance(stage, RetentionDriftStage):
                m1, m2 = stage.model.decay_moments(read_time)
                mf *= m1
                second_l2 *= m2
                second_noise *= m2
                relax = relax * m2 + pos ** 2 * np.array([
                    stage.model.relaxation_variance(read_time, lv)
                    for lv in max_levels
                ])
            elif isinstance(stage, DriftCompensationStage):
                c = stage.model.mean_decay(read_time)
                mf /= c
                second_l2 /= c ** 2
                second_noise /= c ** 2
                relax = relax / c ** 2
            else:
                raise NotImplementedError(
                    f"variance_map has no analytic model for read stage "
                    f"{stage!r}; use empirical_variance_map for custom "
                    "stacks"
                )
        return mf, second_l2, second_noise, relax

    def _tensor_variance(self, mapping_config, levels, scale, read_time,
                         wear_inflation):
        """Per-weight ``E[dw^2]`` for one tensor (weight units).

        Only the built-in stage types have analytic models; a stack
        holding a custom :class:`NonidealityStage` subclass fails loudly
        rather than returning a map the deployment would not obey
        (:meth:`empirical_variance_map` works for any composition).
        """
        programming_stages = 0
        spatial_var = 0.0
        for stage in self.write_stages:
            if isinstance(stage, ProgrammingNoiseStage):
                programming_stages += 1
            elif isinstance(stage, SpatialCorrelationStage):
                spatial_var += float(stage.model.sigma) ** 2
            else:
                raise NotImplementedError(
                    f"variance_map has no analytic model for write stage "
                    f"{stage!r}; use empirical_variance_map for custom "
                    "stacks"
                )
        reads_apply = read_time is not None and self.has_read_stages
        shape = levels.shape[1:]
        if (programming_stages == 1 and spatial_var == 0.0
                and not reads_apply and wear_inflation == 1.0):
            # Pure homogeneous programming noise: the constant Eq. 16
            # map, computed as the paper states it.
            std_w = mapping_config.code_noise_std() * scale
            return np.full(shape, std_w ** 2)

        pos = mapping_config.slice_weights.astype(np.float64)
        max_levels = mapping_config.slice_max_levels.astype(np.float64)
        sigmas = mapping_config.slice_sigma_levels()
        write_var = (
            (sigmas * pos) ** 2 * float(wear_inflation) * programming_stages
        )
        if mapping_config.differential:
            write_var = 2.0 * write_var
        write_var = write_var + spatial_var * (max_levels * pos) ** 2

        mf, second_l2, second_noise, relax = self._read_moment_state(
            read_time, pos, max_levels
        )
        noise_floor = float(np.sum(second_noise * write_var + relax))
        # Var(D) and bias factors; clamp float cancellation at ~0 so the
        # map is non-negative by construction.
        spread = max(second_l2 - mf ** 2, 0.0)
        bias = (mf - 1.0) ** 2
        if spread == 0.0 and bias == 0.0:
            var_code = np.full(shape, noise_floor)
        else:
            codes = np.tensordot(pos, levels, axes=(0, 0))
            level_sq = np.tensordot(pos ** 2, levels ** 2, axes=(0, 0))
            var_code = spread * level_sq + bias * codes ** 2 + noise_floor
        return var_code * float(scale) ** 2

    def empirical_variance_map(self, mapping_config, space, model, n_trials,
                               rng, read_time=None):
        """Monte-Carlo estimate of :meth:`variance_map`.

        Programs every tensor ``n_trials`` times through the write
        stages (no verify), reads at ``read_time`` through the read
        stages, and returns the per-weight empirical second moment of the
        weight error.  The RNG discipline mirrors
        :class:`~repro.cim.accelerator.CimAccelerator`: trial ``i`` draws
        programming noise from ``rng.child("mc", i).child("program")``
        (one generator shared across tensors) and drift from the
        per-tensor substream ``.child("read", name)`` — so the estimate
        samples exactly the distribution the accelerator deploys.

        Parameters
        ----------
        mapping_config / space / model / read_time:
            As in :meth:`variance_map`.
        n_trials:
            Monte Carlo draws (the validation tests use >= 256).
        rng:
            Parent :class:`~repro.utils.rng.RngStream`.
        """
        from repro.cim.mapping import WeightMapper

        streams = [rng.child("mc", i) for i in range(int(n_trials))]
        gens = [s.child("program").generator for s in streams]
        pos = mapping_config.slice_weights.astype(np.float64)
        mapper = WeightMapper(mapping_config)
        params = dict(model.named_parameters())
        per_tensor = {}
        for name in space.names:
            mapped = mapper.map_tensor(params[name].data)
            programmed = self.program_trials(mapped.levels, mapping_config,
                                             gens)
            if read_time is not None:
                children = [s.child("read", name) for s in streams]
                programmed = self.read_trials(
                    programmed, mapping_config, children, t=read_time
                )
            codes = np.tensordot(pos, programmed, axes=(0, 0))
            deployed = codes * mapped.signs * mapped.scale
            ideal = mapper.ideal_weights(mapped)
            per_tensor[name] = ((deployed - ideal) ** 2).mean(axis=0)
        return space.flatten(per_tensor)

    # ------------------------------------------------------------ observers

    def reset_observers(self):
        """Start a fresh wear-accounting session (called on programming)."""
        for observer in self.observers:
            observer.reset()

    def observe(self, name, cycles):
        """Report one tensor's verify-cycle array to every observer."""
        for observer in self.observers:
            observer.observe(name, cycles)

    def wear_summary(self):
        """The endurance observer's wear statistics (None when absent)."""
        for observer in self.observers:
            if isinstance(observer, EnduranceObserver):
                return observer.summary()
        return None

    def __repr__(self):
        names = ", ".join(f"{s.name}@{s.when}" for s in self.stages)
        return f"NonidealityStack([{names}], observers={len(self.observers)})"
