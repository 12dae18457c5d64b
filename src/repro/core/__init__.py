"""SWIM core: sensitivity analysis, Algorithm 1, and the paper's baselines."""

from repro.core.insitu import InSituConfig, InSituHistory, InSituTrainer
from repro.core.metrics import (
    DEFAULT_NWC_TARGETS,
    evaluate_accuracy,
    evaluate_accuracy_trials,
)
from repro.core.pareto import nwc_to_reach, speedup_at_iso_accuracy, speedup_table
from repro.core.second_derivative import (
    accumulate_second_derivatives,
    compute_gradients,
)
from repro.core.selection import WeightSpace, cumulative_groups, rank_descending
from repro.core.sensitivity import (
    FisherScorer,
    GradientScorer,
    MagnitudeScorer,
    RandomScorer,
    SensitivityScorer,
    SwimScorer,
)
from repro.core.swim import SwimConfig, SwimResult, selective_write_verify

__all__ = [
    "DEFAULT_NWC_TARGETS",
    "FisherScorer",
    "GradientScorer",
    "InSituConfig",
    "InSituHistory",
    "InSituTrainer",
    "MagnitudeScorer",
    "RandomScorer",
    "SensitivityScorer",
    "SwimConfig",
    "SwimResult",
    "SwimScorer",
    "WeightSpace",
    "accumulate_second_derivatives",
    "compute_gradients",
    "cumulative_groups",
    "evaluate_accuracy",
    "evaluate_accuracy_trials",
    "nwc_to_reach",
    "rank_descending",
    "selective_write_verify",
    "speedup_at_iso_accuracy",
    "speedup_table",
]
