"""Device nonidealities: composable stack + technology registry.

This subsystem unifies the repository's device physics — programming
noise, spatially correlated variation, retention drift, endurance wear —
behind two concepts:

- :class:`NonidealityStack`: ordered, trial-batched stages (write-time
  programming noise and spatial correlation, read-time retention drift)
  plus passive observers (endurance accounting);
- :class:`DeviceTechnology` and the registry
  (:func:`get_technology` / :func:`register_technology`): named profiles
  (``fefet`` — the paper's default — plus ``rram``, ``pcm``, ``mram``)
  with technology-specific sigma/drift/endurance parameters.

Every stage supports a leading ``(n_trials, ...)`` axis with per-trial
RNG substreams, so trial ``i`` of a batch is bitwise a one-trial call
on trial ``i``'s stream.
"""

from repro.cim.devices.device import DeviceConfig
from repro.cim.devices.endurance import EnduranceModel, EnduranceObserver
from repro.cim.devices.registry import (
    DEFAULT_TECHNOLOGY,
    DeviceTechnology,
    get_technology,
    register_technology,
    resolve_technology,
    technology_names,
)
from repro.cim.devices.retention import RetentionModel
from repro.cim.devices.spatial import SpatialVariationModel
from repro.cim.devices.stack import (
    DriftCompensationStage,
    NonidealityStack,
    NonidealityStage,
    ProgrammingNoiseStage,
    RetentionDriftStage,
    SpatialCorrelationStage,
)

__all__ = [
    "DEFAULT_TECHNOLOGY",
    "DeviceConfig",
    "DeviceTechnology",
    "DriftCompensationStage",
    "EnduranceModel",
    "EnduranceObserver",
    "NonidealityStack",
    "NonidealityStage",
    "ProgrammingNoiseStage",
    "RetentionDriftStage",
    "RetentionModel",
    "SpatialCorrelationStage",
    "SpatialVariationModel",
    "get_technology",
    "register_technology",
    "resolve_technology",
    "technology_names",
]
