"""Figure 1 reproduction: which metric predicts a weight's sensitivity?

The paper perturbs each LeNet weight individually with additive Gaussian
noise (the device model's value-independent noise), measures the MC-average
accuracy drop, and plots it against (a) the weight's magnitude — weak
correlation — and (b) the weight's second derivative — strong correlation
(Pearson 0.83).  This driver reproduces both scatters on sampled weights
and also records the *loss increase*, which is the quantity Eq. 5 actually
predicts (accuracy drop is a discretized proxy of it).

The Monte Carlo trials run trial-batched: every trial of a perturbed
weight differs from the baseline in exactly one tensor, so the
activations *upstream* of that tensor's layer are shared by all of its
trials and are computed once per tensor (prefix sharing), the perturbed
layer's output is its baseline plus a one-channel correction, and only
the suffix of the network runs per-trial (folded trial-major; see
:class:`~repro.core.perturbation.PerturbationEvaluator`).

The device point is fixed: :data:`SIGMA` on :data:`DEVICE_BITS`-bit
cells, and the study runs on the float activation path (activation
quantizers bypassed).  It runs on a copy of the zoo's model, so the
caller's model keeps its dtypes, bytes and quantizers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.cim import (
    DeviceConfig,
    MappingConfig,
    WeightMapper,
    weighted_layers,
)
from repro.core import SwimScorer, WeightSpace, evaluate_accuracy
from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss
from repro.nn.quant import ActQuant
from repro.utils.stats import pearson, spearman

__all__ = ["DEVICE_BITS", "SIGMA", "Fig1Config", "Fig1Result", "run_fig1"]

#: Upper bound on folded (trials * eval samples) per batched forward.
_MAX_FOLD_SAMPLES = 2048

#: The paper's typical device sigma (fraction of a cell's full-scale).
SIGMA = 0.1
#: Bits per device cell, K = 4 (Sec. 4.1).
DEVICE_BITS = 4


@dataclass(frozen=True)
class Fig1Config:
    """Knobs of the perturbation study."""

    n_weights: int = 120
    mc_runs: int = 10
    eval_samples: int = 400


@dataclass
class Fig1Result:
    """Per-sampled-weight metrics and the headline correlations."""

    magnitudes: np.ndarray
    second_derivatives: np.ndarray
    accuracy_drops: np.ndarray
    loss_increases: np.ndarray
    pearson_magnitude_acc: float
    pearson_curvature_acc: float
    pearson_magnitude_loss: float
    pearson_curvature_loss: float
    spearman_curvature_acc: float


def _sample_entries(space, n_weights, rng):
    """Sample flat weight indices, stratified equally across tensors.

    Uniform sampling would land almost every draw in the largest fully
    connected tensor, whose weights share nearly identical (low)
    sensitivity; stratification reproduces the cross-layer sensitivity
    spread the paper's all-weights scatter shows.
    """
    gen = rng.generator
    per_tensor = max(n_weights // len(space.names), 1)
    chosen = []
    for flat_ids in space.unflatten(np.arange(space.total_size)).values():
        flat_ids = flat_ids.reshape(-1)
        take = min(per_tensor, flat_ids.size)
        chosen.append(gen.choice(flat_ids, size=take, replace=False))
    flat = np.unique(np.concatenate(chosen))
    if flat.size > n_weights:
        flat = gen.choice(flat, size=n_weights, replace=False)
    return np.sort(flat)


def _trial_stats(logits, eval_y):
    """Per-trial (accuracy, mean CE loss) from ``(T, N, C)`` logits."""
    accuracy = (np.argmax(logits, axis=2) == eval_y[None, :]).mean(axis=1)
    log_probs = F.log_softmax(logits, axis=2)
    picked = log_probs[:, np.arange(logits.shape[1]), eval_y]
    return accuracy, -picked.mean(axis=1)


def _perturbation_mc_batched(model, layers, base_weights, indices, deltas,
                             locate, eval_x, eval_y, base_accuracy,
                             base_loss):
    """Per-weight mean accuracy drop and loss increase, trial-batched
    through :class:`~repro.core.perturbation.PerturbationEvaluator`.

    Weights are grouped by owning tensor; the evaluator shares that
    tensor's prefix activations across all of its trials, propagates each
    single-weight perturbation incrementally through its output channel,
    and only runs the network's tail per trial.
    """
    from repro.core.perturbation import PerturbationEvaluator

    mc_runs = deltas.shape[1]
    trials_per_weight = 2 * mc_runs
    acc_drops = np.empty(indices.size)
    loss_increases = np.empty(indices.size)

    by_tensor = {}
    for pos, flat_index in enumerate(indices):
        name, inner = locate(int(flat_index))
        by_tensor.setdefault(name, []).append((pos, inner))

    evaluator = PerturbationEvaluator(
        model, eval_x, max_fold_samples=_MAX_FOLD_SAMPLES
    )
    for name, entries in by_tensor.items():
        layer = layers[name]
        inner = np.repeat([e[1] for e in entries], trials_per_weight)
        # Antithetic +/- pairs: the first-order Taylor term g*delta
        # cancels exactly in the pair average, leaving the curvature
        # signal 0.5*H*delta^2 that Fig. 1b plots (variance reduction
        # over the paper's plain Monte Carlo).
        signed = np.empty(len(entries) * trials_per_weight)
        for j, (pos, _) in enumerate(entries):
            row = j * trials_per_weight
            signed[row : row + trials_per_weight : 2] = deltas[pos]
            signed[row + 1 : row + trials_per_weight : 2] = -deltas[pos]
        logits = evaluator.evaluate(layer, inner, signed)
        accuracy, losses = _trial_stats(logits, eval_y)
        for j, (pos, _) in enumerate(entries):
            window = slice(j * trials_per_weight, (j + 1) * trials_per_weight)
            acc_drops[pos] = float((base_accuracy - accuracy[window]).mean())
            loss_increases[pos] = float((losses[window] - base_loss).mean())
    return acc_drops, loss_increases


def run_fig1(zoo, config, rng):
    """Run the perturbation study on a trained workload.

    All Monte Carlo perturbations of a weight's tensor are evaluated in
    one trial-batched pass.

    Returns
    -------
    Fig1Result
    """
    # The study promotes, re-quantizes and overrides the weights of a
    # copy, so the caller's model leaves as it came.
    model, data = copy.deepcopy(zoo.model), zoo.data
    # Per-weight loss increases can be ~1e-6; run the whole study in
    # float64 so they are not swamped by single-precision forward noise.
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
    # Activation quantization turns the smooth Taylor response Eq. 5
    # analyses into O(delta) discretization jumps; the sensitivity study
    # runs on the float activation path (the regime the paper's analysis
    # — and its correlation figure — assumes).
    for module in model.modules():
        if isinstance(module, ActQuant):
            module.running_peak = 0.0
    space = WeightSpace.from_model(model)
    mapping = MappingConfig(
        weight_bits=zoo.spec.weight_bits,
        device=DeviceConfig(bits=DEVICE_BITS, sigma=SIGMA),
    )
    mapper = WeightMapper(mapping)

    eval_x = data.test_x[: config.eval_samples]
    eval_y = data.test_y[: config.eval_samples]
    loss_fn = CrossEntropyLoss()

    # Per-tensor noise std in weight units (Eq. 16 at this sigma) and the
    # quantized baseline weights the perturbations are applied around.
    params = dict(model.named_parameters())
    layers = weighted_layers(model)

    base_weights = {}
    scales = {}
    for name in space.names:
        codes, scale = mapper.quantize(params[name].data)
        scales[name] = scale
        base_weights[name] = (codes * scale).astype(np.float64)
    # Paper Sec. 3.2: "we perturb each weight in LeNet with the SAME
    # additive Gaussian noise" — one global sigma in weight units (the
    # device-model noise at the median tensor scale), for every weight.
    # Per-tensor scaling would measure H_ii * sigma_tensor^2 instead of
    # H_ii and re-introduce a magnitude confound.
    global_std = mapping.code_noise_std() * float(
        np.median([scales[name] for name in space.names])
    )
    noise_std = {name: global_std for name in space.names}

    # Deploy the quantized baseline everywhere so the reference accuracy
    # and the perturbed evaluations share the same regime.
    for name, layer in layers.items():
        layer.set_weight_override(
            base_weights[name].astype(layer.weight.data.dtype)
        )
    model.eval()
    base_accuracy = evaluate_accuracy(model, eval_x, eval_y)
    with model.inference():
        base_loss = loss_fn(model(eval_x), eval_y)

    # Sensitivity metrics of the sampled weights.
    indices = _sample_entries(space, config.n_weights, rng.child("sample"))
    curvature_flat = SwimScorer(batch_size=256, max_batches=2).scores(
        model, space, data.train_x[:512], data.train_y[:512]
    )
    magnitude_flat = np.abs(space.gather_from_model(model, "data"))

    noise_rng = rng.child("noise").generator
    # One row of deltas per sampled weight, in sampled-index order.
    deltas = np.stack(
        [
            noise_rng.normal(0.0, noise_std[space.locate(int(i))[0]],
                             size=config.mc_runs)
            for i in indices
        ]
    )

    acc_drops, loss_increases = _perturbation_mc_batched(
        model, layers, base_weights, indices, deltas, space.locate,
        eval_x, eval_y, base_accuracy, base_loss,
    )

    curvature = curvature_flat[indices]
    magnitude = magnitude_flat[indices]
    return Fig1Result(
        magnitudes=magnitude,
        second_derivatives=curvature,
        accuracy_drops=acc_drops,
        loss_increases=loss_increases,
        pearson_magnitude_acc=pearson(magnitude, acc_drops),
        pearson_curvature_acc=pearson(curvature, acc_drops),
        pearson_magnitude_loss=pearson(magnitude, loss_increases),
        pearson_curvature_loss=pearson(curvature, loss_increases),
        spearman_curvature_acc=spearman(curvature, acc_drops),
    )
