"""nvCiM substrate: devices, mapping, write-verify, crossbars, accelerator.

Device physics lives in the composable :mod:`repro.cim.devices`
subsystem: a trial-batched :class:`NonidealityStack` (programming noise →
spatial correlation at write time, retention drift at read time, with
endurance accounting as an observer) behind a :class:`DeviceTechnology`
registry (``fefet`` — the paper's default — plus ``rram``, ``pcm``,
``mram``); import its names from here or from :mod:`repro.cim.devices`.
"""

from repro.cim.accelerator import CimAccelerator, weighted_layer_names
from repro.cim.crossbar import (
    ConverterConfig,
    CrossbarConfig,
    CrossbarLinear,
    uniform_quantize_midrise,
)
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
    ResidualModel,
    RetentionDriftStage,
    RetentionModel,
    SpatialCorrelationStage,
    SpatialVariationModel,
    StageContext,
    WearReport,
    get_technology,
    inject_code_noise,
    inject_weight_noise,
    register_technology,
    resolve_technology,
    technology_names,
)
from repro.cim.energy import CostModel, format_duration
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
    "CostModel",
    "ConverterConfig",
    "CrossbarConfig",
    "CrossbarLinear",
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
    "ResidualModel",
    "RetentionDriftStage",
    "RetentionModel",
    "SpatialCorrelationStage",
    "SpatialVariationModel",
    "StageContext",
    "WearReport",
    "WeightMapper",
    "WriteVerifyConfig",
    "WriteVerifyResult",
    "calibrate_alpha",
    "format_duration",
    "get_technology",
    "inject_code_noise",
    "inject_weight_noise",
    "register_technology",
    "resolve_technology",
    "technology_names",
    "uniform_quantize_midrise",
    "weighted_layer_names",
    "write_verify",
    "write_verify_trials",
]
