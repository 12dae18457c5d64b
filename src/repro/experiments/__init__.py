"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.config import SCALES, ScalePreset, WorkloadSpec, get_scale
from repro.experiments.devices import render_devices, run_devices
from repro.experiments.fig1 import Fig1Config, Fig1Result, run_fig1
from repro.experiments.fig2 import FIG2_WORKLOADS, render_fig2_panel, run_fig2_panel
from repro.experiments.model_zoo import ZooModel, build_data, build_model, load_workload
from repro.experiments.retention import (
    RETENTION_TECHNOLOGIES,
    render_retention,
    run_retention,
)
from repro.experiments.spatial import SPATIAL_METHODS, render_spatial, run_spatial
from repro.experiments.sweeps import (
    GridResult,
    MethodCurve,
    SweepOutcome,
    WRITE_VERIFY_METHODS,
    run_grid,
    run_method_sweep,
)
from repro.experiments.table1 import TABLE1_SIGMAS, render_table1, run_table1

__all__ = [
    "FIG2_WORKLOADS",
    "Fig1Config",
    "Fig1Result",
    "GridResult",
    "MethodCurve",
    "RETENTION_TECHNOLOGIES",
    "SCALES",
    "SPATIAL_METHODS",
    "ScalePreset",
    "SweepOutcome",
    "TABLE1_SIGMAS",
    "WRITE_VERIFY_METHODS",
    "WorkloadSpec",
    "ZooModel",
    "build_data",
    "build_model",
    "get_scale",
    "load_workload",
    "render_devices",
    "render_fig2_panel",
    "render_retention",
    "render_spatial",
    "render_table1",
    "run_devices",
    "run_fig1",
    "run_fig2_panel",
    "run_grid",
    "run_method_sweep",
    "run_retention",
    "run_spatial",
    "run_table1",
]
