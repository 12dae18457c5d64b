"""Technology registry: named device profiles behind one nonideality stack.

CIMulator-style platforms gain much of their value from simulating
*multiple real memory materials* on one code path; this registry does the
same for the SWIM pipeline.  A :class:`DeviceTechnology` bundles the
technology-specific parameters of every nonideality silo — programming
sigma, bits per cell, retention drift, spatial correlation, endurance
budget — and builds its cell (:meth:`DeviceTechnology.device_config`)
and its :class:`~repro.cim.devices.stack.NonidealityStack`.  The one
derivation of a physics point's mapping and stack from a technology is
:func:`repro.plan.resolve_physics`, so an accelerator on ``pcm`` is
``CimAccelerator(model, mapping_config=mapping, stack=stack)`` with
``_, _, mapping, stack = PlanRequest(technology="pcm").resolve()``.

The built-in profiles are literature-calibrated orders of magnitude, not
device cards: ``fefet`` is the paper's default operating point (Yan et
al. evaluate FeFET CiM at sigma = 0.1 on 4-bit cells), ``rram`` and
``pcm`` follow the usual multi-level filament/phase-change trade-offs
(more variation, relaxation- vs drift-dominated retention), and ``mram``
is the binary, tight-distribution, near-unlimited-endurance outlier.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.cim.devices.device import DeviceConfig
from repro.cim.devices.endurance import EnduranceModel, EnduranceObserver
from repro.cim.devices.retention import RetentionModel
from repro.cim.devices.spatial import SpatialVariationModel
from repro.cim.devices.stack import (
    DriftCompensationStage,
    NonidealityStack,
    ProgrammingNoiseStage,
    RetentionDriftStage,
    SpatialCorrelationStage,
)

__all__ = [
    "DeviceTechnology",
    "register_technology",
    "get_technology",
    "resolve_technology",
    "technology_names",
    "DEFAULT_TECHNOLOGY",
]

DEFAULT_TECHNOLOGY = "fefet"


@dataclass(frozen=True)
class DeviceTechnology:
    """One memory technology's nonideality parameters.

    Attributes
    ----------
    name:
        Registry key (e.g. ``"fefet"``).
    description:
        One-line provenance note for reports.
    bits / sigma:
        Cell resolution and programming-noise std (fraction of the cell's
        full-scale) — the :class:`DeviceConfig` parameters.
    drift_nu / drift_sigma_nu / relaxation_sigma:
        :class:`RetentionModel` parameters; all-zero disables the read
        stage entirely.
    spatial_sigma / correlation_length / global_fraction:
        :class:`SpatialVariationModel` parameters; ``spatial_sigma = 0``
        disables the spatial write stage.
    endurance_cycles:
        Program/erase budget for the endurance observer.
    wear_sigma_growth / wear_growth_exponent:
        The sigma-growth-vs-cycling curve of
        :class:`~repro.cim.devices.endurance.EnduranceModel`: the
        fractional programming-sigma increase at full endurance
        consumption and the curve's exponent.  This is what lets the
        variance map derive ``wear_inflation`` from the endurance
        observer's consumed fraction instead of a manual knob.
    drift_compensated:
        When True (and the technology drifts), the read pipeline appends a
        :class:`~repro.cim.devices.stack.DriftCompensationStage` — the
        global mean-decay rescale PCM platforms apply at read time.
    """

    name: str
    description: str = ""
    bits: int = 4
    sigma: float = 0.1
    drift_nu: float = 0.0
    drift_sigma_nu: float = 0.0
    relaxation_sigma: float = 0.0
    spatial_sigma: float = 0.0
    correlation_length: float = 8.0
    global_fraction: float = 0.2
    endurance_cycles: float = 1e6
    wear_sigma_growth: float = 0.0
    wear_growth_exponent: float = 1.0
    drift_compensated: bool = False

    # ------------------------------------------------------------ factories

    def device_config(self):
        """The per-cell programming model."""
        return DeviceConfig(bits=self.bits, sigma=self.sigma)

    @property
    def has_drift(self):
        """Whether this technology models retention at all."""
        return (
            self.drift_nu > 0
            or self.drift_sigma_nu > 0
            or self.relaxation_sigma > 0
        )

    def retention_model(self):
        """The drift model, or None for drift-free technologies."""
        if not self.has_drift:
            return None
        return RetentionModel(
            nu=self.drift_nu,
            sigma_nu=self.drift_sigma_nu,
            relaxation_sigma=self.relaxation_sigma,
        )

    def spatial_model(self):
        """The correlated-variation model, or None when disabled."""
        if self.spatial_sigma <= 0:
            return None
        return SpatialVariationModel(
            sigma=self.spatial_sigma,
            correlation_length=self.correlation_length,
            global_fraction=self.global_fraction,
        )

    def endurance_model(self):
        """The pulse-budget + write-precision-aging model."""
        return EnduranceModel(
            endurance_cycles=self.endurance_cycles,
            sigma_growth=self.wear_sigma_growth,
            growth_exponent=self.wear_growth_exponent,
        )

    def build_stack(self):
        """The ordered nonideality stack of this technology.

        Write order is programming noise, then spatial correlation (the
        fabrication field sits on top of whatever each pulse achieved);
        retention drift is the read stage, followed by the global
        mean-decay rescale when ``drift_compensated`` is set; endurance
        rides along as an observer.
        """
        stages = [ProgrammingNoiseStage()]
        spatial = self.spatial_model()
        if spatial is not None:
            stages.append(SpatialCorrelationStage(spatial))
        retention = self.retention_model()
        if retention is not None:
            stages.append(RetentionDriftStage(retention))
            if self.drift_compensated:
                stages.append(DriftCompensationStage(retention))
        return NonidealityStack(
            stages=stages,
            observers=(EnduranceObserver(self.endurance_model()),),
        )

    # -------------------------------------------------------- serialization

    def to_dict(self):
        """JSON-serializable parameter dict (round-trips via from_dict)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a technology from :meth:`to_dict` output."""
        return cls(**data)


_REGISTRY = {}


def register_technology(technology, overwrite=False):
    """Add a :class:`DeviceTechnology` to the global registry.

    Returns the registered technology so custom profiles can be defined
    inline; re-registering an existing name requires ``overwrite=True``.
    """
    if not isinstance(technology, DeviceTechnology):
        raise TypeError(f"expected DeviceTechnology, got {type(technology).__name__}")
    if technology.name in _REGISTRY and not overwrite:
        raise ValueError(
            f"technology {technology.name!r} already registered "
            "(pass overwrite=True to replace)"
        )
    _REGISTRY[technology.name] = technology
    return technology


def get_technology(name):
    """Look up a registered technology by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown technology {name!r}; registered: {technology_names()}"
        )
    return _REGISTRY[name]


def resolve_technology(technology):
    """Accept a registry name or a :class:`DeviceTechnology` instance."""
    if isinstance(technology, DeviceTechnology):
        return technology
    return get_technology(technology)


def technology_names():
    """Registered technology names, in registration order."""
    return list(_REGISTRY)


# --------------------------------------------------------------- built-ins

register_technology(DeviceTechnology(
    name="fefet",
    description=(
        "FeFET CiM at the paper's operating point: 4-bit cells, "
        "sigma = 0.1, mild polarization relaxation, limited ferroelectric "
        "fatigue endurance"
    ),
    bits=4,
    sigma=0.10,
    drift_nu=0.002,
    drift_sigma_nu=0.001,
    relaxation_sigma=0.002,
    endurance_cycles=1e7,
    wear_sigma_growth=0.6,
))

register_technology(DeviceTechnology(
    name="rram",
    description=(
        "Multi-level filamentary RRAM: wider write distributions, "
        "relaxation-dominated retention, ~1e6-cycle endurance"
    ),
    bits=4,
    sigma=0.15,
    drift_nu=0.005,
    drift_sigma_nu=0.003,
    relaxation_sigma=0.010,
    endurance_cycles=1e6,
    wear_sigma_growth=1.0,
    wear_growth_exponent=0.7,
))

register_technology(DeviceTechnology(
    name="pcm",
    description=(
        "Phase-change memory: strong power-law conductance drift "
        "(nu ~ 0.05) with device-to-device exponent spread"
    ),
    bits=4,
    sigma=0.12,
    drift_nu=0.05,
    drift_sigma_nu=0.010,
    relaxation_sigma=0.005,
    endurance_cycles=1e8,
    wear_sigma_growth=0.4,
))

register_technology(DeviceTechnology(
    name="pcm-comp",
    description=(
        "Phase-change memory with global drift compensation: the same "
        "cells as 'pcm', but the read path rescales away the mean "
        "power-law decay (time-aware sensing), leaving exponent spread "
        "and relaxation"
    ),
    bits=4,
    sigma=0.12,
    drift_nu=0.05,
    drift_sigma_nu=0.010,
    relaxation_sigma=0.005,
    endurance_cycles=1e8,
    wear_sigma_growth=0.4,
    drift_compensated=True,
))

register_technology(DeviceTechnology(
    name="fefet-spatial",
    description=(
        "FeFET CiM with fabrication-correlated variation: the paper's "
        "operating point plus a spatially correlated error field, so "
        "unverified weights fail in clusters (paper Sec. 2.1)"
    ),
    bits=4,
    sigma=0.10,
    drift_nu=0.002,
    drift_sigma_nu=0.001,
    relaxation_sigma=0.002,
    spatial_sigma=0.10,
    correlation_length=8.0,
    global_fraction=0.2,
    endurance_cycles=1e7,
    wear_sigma_growth=0.6,
))

register_technology(DeviceTechnology(
    name="mram",
    description=(
        "STT-MRAM: binary cells (4 slices per 4-bit weight), tight write "
        "distribution, effectively drift-free, near-unlimited endurance"
    ),
    bits=1,
    sigma=0.05,
    endurance_cycles=1e12,
))
