"""nvCiM substrate: devices, mapping, write-verify, accelerator.

Device physics lives in the composable :mod:`repro.cim.devices`
subsystem: a trial-batched :class:`NonidealityStack` (programming noise →
spatial correlation at write time, retention drift at read time, with
endurance accounting as an observer) behind a :class:`DeviceTechnology`
registry (``fefet`` — the paper's default — plus ``rram``, ``pcm``,
``mram``); import its names from here or from :mod:`repro.cim.devices`.
"""

from repro.cim.accelerator import CimAccelerator, weighted_layers
from repro.cim.devices import (
    DEFAULT_TECHNOLOGY,
    DeviceConfig,
    DeviceTechnology,
    DriftCompensationStage,
    EnduranceModel,
    EnduranceObserver,
    NonidealityStack,
    NonidealityStage,
    ProgrammingNoiseStage,
    RetentionDriftStage,
    RetentionModel,
    SpatialCorrelationStage,
    SpatialVariationModel,
    get_technology,
    register_technology,
    resolve_technology,
    technology_names,
)
from repro.cim.mapping import MappedTensor, MappingConfig, WeightMapper
from repro.cim.write_verify import (
    WriteVerifyConfig,
    WriteVerifyResult,
    calibrate_alpha,
    write_verify,
    write_verify_trials,
)

__all__ = [
    "CimAccelerator",
    "DEFAULT_TECHNOLOGY",
    "DeviceConfig",
    "DeviceTechnology",
    "DriftCompensationStage",
    "EnduranceModel",
    "EnduranceObserver",
    "MappedTensor",
    "MappingConfig",
    "NonidealityStack",
    "NonidealityStage",
    "ProgrammingNoiseStage",
    "RetentionDriftStage",
    "RetentionModel",
    "SpatialCorrelationStage",
    "SpatialVariationModel",
    "WeightMapper",
    "WriteVerifyConfig",
    "WriteVerifyResult",
    "calibrate_alpha",
    "get_technology",
    "register_technology",
    "resolve_technology",
    "technology_names",
    "weighted_layers",
    "write_verify",
    "write_verify_trials",
]
