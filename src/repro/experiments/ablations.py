"""Ablation studies on SWIM's design choices (beyond the paper's tables).

Each function isolates one of SWIM's design choices:

- ``ablate_granularity`` — Algorithm 1's group size ``p`` (paper fixes 5%):
  smaller groups stop closer to the minimal NWC but evaluate more often.
- ``ablate_device_bits`` — bits-per-device K (paper fixes 4): more slices
  of lower-precision devices change the Eq. 16 noise composition.
- ``ablate_tie_break`` — the magnitude tie-breaker of Sec. 3.2.
- ``ablate_curvature_batches`` — how much data the single-pass curvature
  needs before the ranking stabilizes.
- ``ablate_scorers`` — the extension scorers (gradient, Fisher) between
  Magnitude and SWIM.
- ``ablate_differential`` — differential-column noise (2x devices/weight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
from repro.core import (
    MagnitudeScorer,
    SwimConfig,
    SwimScorer,
    WeightSpace,
    build_scorer,
    evaluate_accuracy,
    selective_write_verify,
)
from repro.utils.stats import spearman, summarize

__all__ = [
    "AblationRow",
    "ablate_granularity",
    "ablate_device_bits",
    "ablate_tie_break",
    "ablate_curvature_batches",
    "ablate_scorers",
    "ablate_differential",
]


@dataclass
class AblationRow:
    """One ablation configuration's outcome."""

    label: str
    metrics: dict = field(default_factory=dict)


def _mapping(zoo, sigma=0.1, device_bits=4, differential=False):
    return MappingConfig(
        weight_bits=zoo.spec.weight_bits,
        device=DeviceConfig(bits=device_bits, sigma=sigma),
        differential=differential,
    )


def _accuracy_at_fraction(zoo, accelerator, order, space, fraction,
                          eval_x, eval_y, run_rng):
    accelerator.program(run_rng.child("program").generator)
    accelerator.write_verify_all(run_rng.child("verify").generator)
    count = int(round(fraction * space.total_size))
    masks = space.masks_from_indices(order[:count])
    nwc = accelerator.apply_selection(masks)
    accuracy = evaluate_accuracy(zoo.model, eval_x, eval_y)
    return accuracy, nwc


def ablate_granularity(zoo, rng, granularities=(0.01, 0.05, 0.1, 0.25),
                       sigma=0.1, delta_a=0.01, eval_samples=300,
                       sense_samples=256):
    """Algorithm 1 under different group sizes p."""
    accelerator = CimAccelerator(zoo.model, mapping_config=_mapping(zoo, sigma))
    data = zoo.data
    eval_x, eval_y = data.test_x[:eval_samples], data.test_y[:eval_samples]
    rows = []
    for p in granularities:
        result = selective_write_verify(
            zoo.model, accelerator, SwimScorer(max_batches=2),
            eval_x, eval_y,
            baseline_accuracy=zoo.clean_accuracy,
            config=SwimConfig(delta_a=delta_a, granularity=p),
            rng=rng.child("p", str(p)),
            sense_x=data.train_x[:sense_samples],
            sense_y=data.train_y[:sense_samples],
        )
        rows.append(AblationRow(
            label=f"p={p:g}",
            metrics={
                "achieved_nwc": result.achieved_nwc,
                "selected_fraction": result.selected_fraction,
                "accuracy": result.achieved_accuracy,
                "evaluations": len(result.accuracy_history),
                "met_target": float(result.met_target),
            },
        ))
    accelerator.clear()
    return rows


def ablate_device_bits(zoo, rng, bit_options=(1, 2, 4), sigma=0.1,
                       fraction=0.1, mc_runs=3, eval_samples=300,
                       sense_samples=256):
    """K-bit devices: slice count changes the mapped-noise composition."""
    data = zoo.data
    space = WeightSpace.from_model(zoo.model)
    eval_x, eval_y = data.test_x[:eval_samples], data.test_y[:eval_samples]
    order = SwimScorer(max_batches=2).ranking(
        zoo.model, space, data.train_x[:sense_samples],
        data.train_y[:sense_samples],
    )
    rows = []
    for bits in bit_options:
        mapping = _mapping(zoo, sigma=sigma, device_bits=bits)
        accelerator = CimAccelerator(zoo.model, mapping_config=mapping)
        accs = []
        nwcs = []
        for run in range(mc_runs):
            accuracy, nwc = _accuracy_at_fraction(
                zoo, accelerator, order, space, fraction, eval_x, eval_y,
                rng.child("k", str(bits), run),
            )
            accs.append(accuracy)
            nwcs.append(nwc)
        accelerator.clear()
        rows.append(AblationRow(
            label=f"K={bits}",
            metrics={
                "slices_per_weight": mapping.num_slices,
                "relative_noise_std": mapping.relative_noise_std(),
                "accuracy_mean": summarize(accs).mean,
                "accuracy_std": summarize(accs).std,
                "nwc": float(np.mean(nwcs)),
            },
        ))
    return rows


def ablate_tie_break(zoo, rng, sigma=0.15, fractions=(0.05, 0.1), mc_runs=3,
                     eval_samples=300, sense_samples=256):
    """Magnitude tie-breaking on vs off at low NWC."""
    data = zoo.data
    space = WeightSpace.from_model(zoo.model)
    eval_x, eval_y = data.test_x[:eval_samples], data.test_y[:eval_samples]
    accelerator = CimAccelerator(zoo.model, mapping_config=_mapping(zoo, sigma))
    rows = []
    for use_tb in (True, False):
        order = SwimScorer(max_batches=2, use_magnitude_tie_break=use_tb).ranking(
            zoo.model, space, data.train_x[:sense_samples],
            data.train_y[:sense_samples],
        )
        metrics = {}
        for fraction in fractions:
            accs = [
                _accuracy_at_fraction(
                    zoo, accelerator, order, space, fraction, eval_x, eval_y,
                    rng.child("tb", str(use_tb), str(fraction), run),
                )[0]
                for run in range(mc_runs)
            ]
            metrics[f"accuracy@{fraction:g}"] = summarize(accs).mean
        rows.append(AblationRow(
            label="tie-break on" if use_tb else "tie-break off",
            metrics=metrics,
        ))
    accelerator.clear()
    return rows


def ablate_curvature_batches(zoo, rng, batch_counts=(1, 2, 8), sigma=0.15,
                             fraction=0.1, mc_runs=3, eval_samples=300,
                             sense_samples=512):
    """Ranking stability vs amount of data in the curvature pass."""
    data = zoo.data
    space = WeightSpace.from_model(zoo.model)
    eval_x, eval_y = data.test_x[:eval_samples], data.test_y[:eval_samples]
    accelerator = CimAccelerator(zoo.model, mapping_config=_mapping(zoo, sigma))
    sense_x = data.train_x[:sense_samples]
    sense_y = data.train_y[:sense_samples]

    reference_scores = SwimScorer(batch_size=64, max_batches=None).scores(
        zoo.model, space, sense_x, sense_y
    )
    rows = []
    for count in batch_counts:
        scorer = SwimScorer(batch_size=64, max_batches=count)
        scores = scorer.scores(zoo.model, space, sense_x, sense_y)
        order = scorer.ranking(zoo.model, space, sense_x, sense_y)
        accs = [
            _accuracy_at_fraction(
                zoo, accelerator, order, space, fraction, eval_x, eval_y,
                rng.child("cb", str(count), run),
            )[0]
            for run in range(mc_runs)
        ]
        rows.append(AblationRow(
            label=f"{count} batch(es)",
            metrics={
                "spearman_vs_full": spearman(scores, reference_scores),
                "accuracy_mean": summarize(accs).mean,
            },
        ))
    accelerator.clear()
    return rows


def ablate_scorers(zoo, rng, scorer_names=("swim", "fisher", "gradient",
                                           "magnitude", "random"),
                   sigma=0.15, fraction=0.1, mc_runs=3, eval_samples=300,
                   sense_samples=256):
    """Where do the cheap curvature surrogates land?"""
    data = zoo.data
    space = WeightSpace.from_model(zoo.model)
    eval_x, eval_y = data.test_x[:eval_samples], data.test_y[:eval_samples]
    accelerator = CimAccelerator(zoo.model, mapping_config=_mapping(zoo, sigma))
    rows = []
    for name in scorer_names:
        scorer = build_scorer(name)
        accs = []
        for run in range(mc_runs):
            order = scorer.ranking(
                zoo.model, space, data.train_x[:sense_samples],
                data.train_y[:sense_samples],
                rng=rng.child("scorer-rng", name, run),
            )
            accs.append(
                _accuracy_at_fraction(
                    zoo, accelerator, order, space, fraction, eval_x, eval_y,
                    rng.child("scorer", name, run),
                )[0]
            )
        rows.append(AblationRow(
            label=name,
            metrics={
                "accuracy_mean": summarize(accs).mean,
                "accuracy_std": summarize(accs).std,
            },
        ))
    accelerator.clear()
    return rows


def ablate_differential(zoo, rng, sigma=0.1, mc_runs=3, eval_samples=300):
    """Differential column pairs double the device count and the variance."""
    data = zoo.data
    eval_x, eval_y = data.test_x[:eval_samples], data.test_y[:eval_samples]
    rows = []
    for differential in (False, True):
        mapping = _mapping(zoo, sigma=sigma, differential=differential)
        accelerator = CimAccelerator(zoo.model, mapping_config=mapping)
        accs = []
        for run in range(mc_runs):
            run_rng = rng.child("diff", str(differential), run)
            accelerator.program(run_rng.child("program").generator)
            accelerator.write_verify_all(run_rng.child("verify").generator)
            accelerator.apply_none()
            accs.append(evaluate_accuracy(zoo.model, eval_x, eval_y))
        accelerator.clear()
        rows.append(AblationRow(
            label="differential" if differential else "single-column",
            metrics={
                "relative_noise_std": mapping.relative_noise_std(),
                "unverified_accuracy_mean": summarize(accs).mean,
            },
        ))
    return rows
