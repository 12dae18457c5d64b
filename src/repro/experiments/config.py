"""Experiment scale presets and workload specifications.

The paper's experiments run 3,000 Monte Carlo trials on full-width models
with GPU training; this CPU-only reproduction organizes every knob that
trades fidelity for time into three presets:

``smoke``
    Seconds-scale: tiny models, few trials.  Used by CI, the test suite
    (``tests/test_paper_claims.py`` asserts the paper's claims on its
    grids) and the pipeline benchmark under ``perfbench/``.
``default``
    Minutes-scale: the paper's topologies at reduced width, enough trials
    for stable means.  The runner's default.
``full``
    The paper's parameter counts and 3,000 trials.  Provided for
    completeness; expect GPU-days of CPU time.

Select with the ``REPRO_SCALE`` environment variable or pass explicitly.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

from repro.robustness.errors import ScenarioConfigError

__all__ = ["WorkloadSpec", "ScalePreset", "get_scale", "resolve_scale", "SCALES"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One model + dataset training configuration.

    ``arch`` selects the model family; ``dataset`` the synthetic data
    generator.  ``weight_bits``/``act_bits`` follow the paper: 4/4 for
    LeNet (Sec. 4.3), 6/6 for ConvNet and ResNet-18 (Sec. 4.4-4.5).
    """

    key: str
    arch: str
    dataset: str
    n_train: int
    n_test: int
    epochs: int
    batch_size: int = 64
    lr: float = 0.03
    width_mult: float = 1.0
    weight_bits: int = 4
    act_bits: int = 4
    num_classes: int = 10
    image_size: int = 28
    seed: int = 20220217  # arXiv submission date of the paper
    data_version: int = 3  # bump when dataset generators change

    def cache_config(self):
        """JSON-serializable identity for the artifact cache."""
        return asdict(self)


@dataclass(frozen=True)
class ScalePreset:
    """All scale-dependent knobs of the experiment drivers.

    ``mc_runs_devices`` / ``mc_runs_retention`` / ``mc_runs_spatial``
    size the technology, drift and clustered-variation scenarios
    (``runner devices`` / ``retention`` / ``spatial``);
    ``retention_times`` is the read-time grid in seconds (the first entry
    should be the write-verify reference time ``t0 = 1 s``) and
    ``spatial_correlation_lengths`` the correlation-length grid (in
    devices; 0 = i.i.d.) the spatial stress test sweeps.
    """

    name: str
    workloads: dict
    mc_runs_table1: int
    mc_runs_fig2: int
    fig1_weights: int
    fig1_mc_runs: int
    fig1_eval_samples: int
    eval_samples: int
    sense_samples: int
    insitu_lr: float = 0.01
    mc_runs_devices: int = 2
    mc_runs_retention: int = 2
    retention_times: tuple = (1.0, 3.6e3, 8.64e4, 2.592e6)
    mc_runs_spatial: int = 2
    spatial_correlation_lengths: tuple = (0.0, 2.0, 8.0, 32.0)

    def workload(self, key):
        """Look up one workload spec."""
        if key not in self.workloads:
            raise KeyError(f"unknown workload {key!r}; known: {sorted(self.workloads)}")
        return self.workloads[key]


def _lenet_spec(n_train, n_test, epochs, **kwargs):
    return WorkloadSpec(
        key="lenet-digits", arch="lenet", dataset="digits",
        n_train=n_train, n_test=n_test, epochs=epochs,
        weight_bits=4, act_bits=4, image_size=28, **kwargs,
    )


def _convnet_spec(n_train, n_test, epochs, width_mult, **kwargs):
    return WorkloadSpec(
        key="convnet-cifar", arch="convnet", dataset="cifar",
        n_train=n_train, n_test=n_test, epochs=epochs,
        width_mult=width_mult, weight_bits=6, act_bits=6,
        image_size=32, **kwargs,
    )


def _resnet_cifar_spec(n_train, n_test, epochs, width_mult, **kwargs):
    return WorkloadSpec(
        key="resnet18-cifar", arch="resnet18", dataset="cifar",
        n_train=n_train, n_test=n_test, epochs=epochs,
        width_mult=width_mult, weight_bits=6, act_bits=6,
        image_size=32, **kwargs,
    )


def _resnet_tiny_spec(n_train, n_test, epochs, width_mult, **kwargs):
    kwargs.setdefault("num_classes", 20)
    return WorkloadSpec(
        key="resnet18-tiny", arch="resnet18", dataset="tiny",
        n_train=n_train, n_test=n_test, epochs=epochs,
        width_mult=width_mult, weight_bits=6, act_bits=6,
        image_size=64, **kwargs,
    )


SMOKE = ScalePreset(
    name="smoke",
    workloads={
        "lenet-digits": _lenet_spec(600, 200, 6, lr=0.03),
        "convnet-cifar": _convnet_spec(400, 160, 4, width_mult=0.1, lr=0.02),
        "resnet18-cifar": _resnet_cifar_spec(400, 160, 4, width_mult=0.1, lr=0.02),
        "resnet18-tiny": _resnet_tiny_spec(400, 160, 4, width_mult=0.1, lr=0.02),
    },
    mc_runs_table1=2,
    mc_runs_fig2=1,
    fig1_weights=24,
    fig1_mc_runs=3,
    fig1_eval_samples=128,
    eval_samples=160,
    sense_samples=128,
    mc_runs_devices=2,
    mc_runs_retention=2,
    retention_times=(1.0, 3.6e3, 2.592e6),  # write time, 1 hour, 1 month
    mc_runs_spatial=2,
    spatial_correlation_lengths=(0.0, 8.0),
)

DEFAULT = ScalePreset(
    name="default",
    workloads={
        "lenet-digits": _lenet_spec(3000, 800, 8, lr=0.03),
        "convnet-cifar": _convnet_spec(1800, 500, 6, width_mult=0.25, lr=0.02),
        "resnet18-cifar": _resnet_cifar_spec(1800, 500, 6, width_mult=0.25, lr=0.02),
        "resnet18-tiny": _resnet_tiny_spec(1200, 400, 6, width_mult=0.125, lr=0.02),
    },
    mc_runs_table1=6,
    mc_runs_fig2=1,
    fig1_weights=72,
    fig1_mc_runs=6,
    fig1_eval_samples=400,
    eval_samples=256,
    sense_samples=512,
    mc_runs_devices=6,
    mc_runs_retention=6,
    retention_times=(1.0, 3.6e3, 8.64e4, 2.592e6),  # + 1 day
    mc_runs_spatial=6,
    spatial_correlation_lengths=(0.0, 2.0, 8.0, 32.0),
)

FULL = ScalePreset(
    name="full",
    workloads={
        "lenet-digits": _lenet_spec(48000, 10000, 30, lr=0.03),
        "convnet-cifar": _convnet_spec(50000, 10000, 60, width_mult=1.0, lr=0.02),
        "resnet18-cifar": _resnet_cifar_spec(50000, 10000, 60, width_mult=1.0, lr=0.02),
        "resnet18-tiny": _resnet_tiny_spec(100000, 10000, 60, width_mult=1.0,
                                           lr=0.02, num_classes=200),
    },
    mc_runs_table1=3000,
    mc_runs_fig2=3000,
    fig1_weights=1000,
    fig1_mc_runs=100,
    fig1_eval_samples=10000,
    eval_samples=10000,
    sense_samples=4096,
    mc_runs_devices=3000,
    mc_runs_retention=3000,
    retention_times=(1.0, 3.6e3, 8.64e4, 2.592e6, 3.1536e7),  # + 1 year
    mc_runs_spatial=3000,
    spatial_correlation_lengths=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)

SCALES = {s.name: s for s in (SMOKE, DEFAULT, FULL)}


def get_scale(name=None):
    """Resolve a preset from an explicit name or ``REPRO_SCALE`` (default)."""
    resolved = name or os.environ.get("REPRO_SCALE", "default")
    if resolved not in SCALES:
        raise KeyError(f"unknown scale {resolved!r}; known: {sorted(SCALES)}")
    return SCALES[resolved]


def resolve_scale(name):
    """:func:`get_scale` for command lines: an unknown name is a
    :class:`~repro.robustness.errors.ScenarioConfigError` (exit 64, one
    ``error:`` line naming the known scales) instead of a ``KeyError``."""
    try:
        return get_scale(name)
    except KeyError as exc:
        raise ScenarioConfigError(exc.args[0]) from None
