"""Selection planning: cached, batched, parallel-orchestrated selection.

The layer between the device physics (:mod:`repro.cim`) and the
experiment drivers (:mod:`repro.experiments`): scenario grids are
expressed as batched :class:`PlanRequest`\\ s, resolved by a
:class:`PlanEngine` whose pure stages (curvature, variance maps,
selection orders) live in a content-addressed
:class:`PlanArtifactCache`, and executed by a
:class:`ScenarioOrchestrator` as a (cells x trial-blocks) work
rectangle on one supervised fork pool (``--workers N``) — serially or
parallel with bitwise-identical results, with every evaluation tile
cached content-addressed so warm reruns recompute only what changed.
"""

from repro.plan.cache import (
    PLAN_CACHE_VERSION,
    PlanArtifactCache,
    artifact_key,
    data_digest,
    model_digest,
    resolve_memory_items,
)
from repro.plan.engine import (
    PLANNED_METHODS,
    PlanEngine,
    PlanRequest,
    SelectionPlan,
    build_engine,
    load_plans,
    save_plans,
)
from repro.plan.orchestrator import ScenarioCell, ScenarioOrchestrator

__all__ = [
    "PLAN_CACHE_VERSION",
    "PLANNED_METHODS",
    "PlanArtifactCache",
    "PlanEngine",
    "PlanRequest",
    "ScenarioCell",
    "ScenarioOrchestrator",
    "SelectionPlan",
    "artifact_key",
    "build_engine",
    "data_digest",
    "load_plans",
    "model_digest",
    "resolve_memory_items",
    "save_plans",
]
