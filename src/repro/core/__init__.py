"""SWIM core: sensitivity analysis, Algorithm 1, and the paper's baselines."""

from repro.core.extensions import (
    HeteroSwimScorer,
    expected_loss_increase,
    variance_map_from_mapping,
    variance_map_from_stack,
)
from repro.core.hessian_fd import fd_diagonal_hessian, fd_diagonal_hessian_sampled
from repro.core.insitu import InSituConfig, InSituHistory, InSituTrainer
from repro.core.mc import MonteCarloEngine
from repro.core.metrics import (
    DEFAULT_NWC_TARGETS,
    evaluate_accuracy,
    evaluate_accuracy_trials,
)
from repro.core.pareto import nwc_to_reach, speedup_at_iso_accuracy, speedup_table
from repro.core.second_derivative import (
    accumulate_second_derivatives,
    compute_gradients,
    compute_second_derivatives,
)
from repro.core.selection import WeightSpace, cumulative_groups, rank_descending
from repro.core.sensitivity import (
    FisherScorer,
    GradientScorer,
    HessianFDScorer,
    MagnitudeScorer,
    RandomScorer,
    SensitivityScorer,
    SwimScorer,
    build_scorer,
)
from repro.core.swim import SwimConfig, SwimResult, selective_write_verify

__all__ = [
    "DEFAULT_NWC_TARGETS",
    "FisherScorer",
    "GradientScorer",
    "HeteroSwimScorer",
    "HessianFDScorer",
    "InSituConfig",
    "InSituHistory",
    "InSituTrainer",
    "MagnitudeScorer",
    "MonteCarloEngine",
    "RandomScorer",
    "SensitivityScorer",
    "SwimConfig",
    "SwimResult",
    "SwimScorer",
    "WeightSpace",
    "accumulate_second_derivatives",
    "build_scorer",
    "compute_gradients",
    "compute_second_derivatives",
    "cumulative_groups",
    "evaluate_accuracy",
    "evaluate_accuracy_trials",
    "expected_loss_increase",
    "fd_diagonal_hessian",
    "fd_diagonal_hessian_sampled",
    "nwc_to_reach",
    "rank_descending",
    "selective_write_verify",
    "speedup_at_iso_accuracy",
    "speedup_table",
    "variance_map_from_mapping",
    "variance_map_from_stack",
]
