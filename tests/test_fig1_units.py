"""Unit-level pieces of the Fig. 1 study (the full run is a bench)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selection import WeightSpace
from repro.experiments import fig1
from repro.experiments.fig1 import Fig1Config, _sample_entries, run_fig1
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import mlp
from repro.nn.quant import ActQuant
from repro.utils.rng import RngStream


@pytest.fixture
def space(rng):
    # Deliberately imbalanced tensors: (4->100) dwarfs (100->3).
    model = mlp(rng.child("m"), (4, 100, 3))
    return WeightSpace.from_model(model)


def test_sampling_is_stratified_across_tensors(space):
    indices = _sample_entries(space, 20, RngStream(1).child("s"))
    owners = [space.locate(int(i))[0] for i in indices]
    in_first = owners.count(space.names[0])
    in_second = owners.count(space.names[1])
    # Uniform sampling would put ~10% in the second tensor; stratified
    # sampling gives both tensors comparable representation.
    assert in_first >= 5
    assert in_second >= 5


def test_sampling_respects_budget_and_uniqueness(space):
    indices = _sample_entries(space, 10, RngStream(2).child("s"))
    assert indices.size <= 10
    assert len(np.unique(indices)) == indices.size
    assert indices.max() < space.total_size


def test_sampling_deterministic(space):
    a = _sample_entries(space, 16, RngStream(3).child("s"))
    b = _sample_entries(space, 16, RngStream(3).child("s"))
    np.testing.assert_array_equal(a, b)


def test_config_defaults_match_paper_setting():
    assert fig1.SIGMA == 0.1  # the paper's typical device sigma
    assert fig1.DEVICE_BITS == 4  # K = 4 (Sec. 4.1)


def _model_state(model):
    """Every parameter's dtype and bytes, and every quantizer's peak."""
    params = {name: (p.data.dtype, p.data.tobytes())
              for name, p in model.named_parameters()}
    peaks = [m.running_peak for m in model.modules()
             if isinstance(m, ActQuant)]
    return params, peaks


def _perturbation_mc_scalar(model, layers, base_weights, indices, deltas,
                            locate, eval_x, eval_y, base_accuracy, base_loss):
    """The study's reference, in ``fig1._perturbation_mc_batched``'s
    signature: one full forward per (weight, trial)."""
    loss_fn = CrossEntropyLoss()
    acc_drops = np.empty(indices.size)
    loss_increases = np.empty(indices.size)
    for pos, flat_index in enumerate(indices):
        name, inner = locate(int(flat_index))
        layer = layers[name]
        drops = []
        increases = []
        for delta in deltas[pos]:
            for signed in (delta, -delta):  # the antithetic pair
                perturbed = base_weights[name].copy()
                perturbed.reshape(-1)[inner] += signed
                layer.set_weight_override(perturbed)
                logits = model(eval_x)
                accuracy = float((np.argmax(logits, axis=1) == eval_y).mean())
                value = loss_fn(logits, eval_y)
                drops.append(base_accuracy - accuracy)
                increases.append(value - base_loss)
        layer.set_weight_override(base_weights[name])
        acc_drops[pos] = float(np.mean(drops))
        loss_increases[pos] = float(np.mean(increases))
    return acc_drops, loss_increases


def test_scalar_reference_matches_batched_and_leaves_the_model(mini_zoo,
                                                                monkeypatch):
    """The one-forward-per-trial reference loop, installed in place of
    the trial-batched path, draws the same perturbations: accuracy drops
    agree bitwise, loss increases within 1e-15 (the two paths sum the
    loss in different orders).  Neither run touches the caller's
    model."""
    before = _model_state(mini_zoo.model)
    config = Fig1Config(n_weights=12, mc_runs=3, eval_samples=64)
    batched = run_fig1(mini_zoo, config, RngStream(5).child("fig1"))
    calls = []

    def reference(*args):
        calls.append(1)
        return _perturbation_mc_scalar(*args)

    monkeypatch.setattr(fig1, "_perturbation_mc_batched", reference)
    scalar = run_fig1(mini_zoo, config, RngStream(5).child("fig1"))
    assert calls == [1]
    np.testing.assert_array_equal(scalar.accuracy_drops,
                                  batched.accuracy_drops)
    np.testing.assert_allclose(scalar.loss_increases, batched.loss_increases,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(scalar.magnitudes, batched.magnitudes)
    np.testing.assert_array_equal(scalar.second_derivatives,
                                  batched.second_derivatives)
    assert _model_state(mini_zoo.model) == before
