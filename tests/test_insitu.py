"""In-situ training baseline: write counting, noise plateau, recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
from repro.core import InSituConfig, InSituTrainer, evaluate_accuracy
from repro.utils.rng import RngStream


@pytest.fixture
def setup(trained_lenet):
    model, data, clean = trained_lenet
    config = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.15))
    accelerator = CimAccelerator(model, mapping_config=config)
    yield model, data, clean, accelerator
    accelerator.clear()


def test_config_validation():
    with pytest.raises(ValueError, match="update_rule"):
        InSituConfig(update_rule="newton")
    with pytest.raises(ValueError, match="lr"):
        InSituConfig(lr=0.0)


def test_initialize_required_before_run(setup):
    model, data, clean, accelerator = setup
    trainer = InSituTrainer(model, accelerator)
    with pytest.raises(RuntimeError, match="initialize"):
        trainer.run(data.train_x, data.train_y, 1, RngStream(0))
    with pytest.raises(RuntimeError, match="initialize"):
        trainer.nwc


def test_write_counting_matches_iterations(setup):
    model, data, clean, accelerator = setup
    trainer = InSituTrainer(model, accelerator,
                            InSituConfig(lr=0.02, batch_size=32))
    rng = RngStream(21)
    trainer.initialize(rng.child("init"))
    n_weights = accelerator.num_weights()
    trainer.run(data.train_x, data.train_y, 3, rng.child("run"))
    assert trainer._writes == 3 * n_weights
    assert trainer.nwc == pytest.approx(
        3 * n_weights / accelerator.total_cycles()
    )


def test_iterations_for_nwc_round_trip(setup):
    model, data, clean, accelerator = setup
    trainer = InSituTrainer(model, accelerator)
    trainer.initialize(RngStream(22).child("init"))
    iters = trainer.iterations_for_nwc(1.0)
    # ~10 verify cycles per weight -> ~10 iterations per unit NWC.
    assert 5 <= iters <= 20


def test_insitu_improves_over_unverified_mapping(setup):
    """A few on-chip iterations recover accuracy lost to mapping noise."""
    model, data, clean, accelerator = setup
    trainer = InSituTrainer(
        model, accelerator, InSituConfig(lr=0.03, batch_size=64)
    )
    rng = RngStream(23)
    trainer.initialize(rng.child("init"))
    noisy_accuracy = evaluate_accuracy(model, data.test_x, data.test_y)
    history = trainer.run(
        data.train_x, data.train_y, 8, rng.child("run"),
        eval_x=data.test_x, eval_y=data.test_y,
    )
    assert history.accuracy[-1] > noisy_accuracy - 0.02
    # With a sensible LR it should actually improve most runs; allow slack
    # but require clear improvement over the worst case.
    assert history.accuracy[-1] >= noisy_accuracy or noisy_accuracy > 0.95


def test_update_noise_keeps_accuracy_below_writeverify(setup):
    """Unverified updates carry programming noise: in-situ cannot reach the
    fully write-verified accuracy in a comparable cycle budget."""
    model, data, clean, accelerator = setup
    rng = RngStream(24)
    trainer = InSituTrainer(
        model, accelerator, InSituConfig(lr=0.03, batch_size=64)
    )
    trainer.initialize(rng.child("init"))
    iters = trainer.iterations_for_nwc(1.0)
    history = trainer.run(
        data.train_x, data.train_y, iters, rng.child("run"),
        eval_x=data.test_x, eval_y=data.test_y,
    )
    insitu_acc = history.accuracy[-1]

    accelerator.program(rng.child("p2").generator)
    accelerator.write_verify_all(rng.child("wv2").generator)
    accelerator.apply_all()
    wv_acc = evaluate_accuracy(model, data.test_x, data.test_y)
    assert insitu_acc <= wv_acc + 0.01


def test_sign_rule_runs_and_counts(setup):
    model, data, clean, accelerator = setup
    trainer = InSituTrainer(
        model, accelerator,
        InSituConfig(lr=0.03, update_rule="sign", sign_step_codes=0.25),
    )
    rng = RngStream(25)
    trainer.initialize(rng.child("init"))
    history = trainer.run(
        data.train_x, data.train_y, 2, rng.child("run"),
        eval_x=data.test_x[:100], eval_y=data.test_y[:100],
    )
    assert trainer._writes == 2 * accelerator.num_weights()
    assert len(history.accuracy) == 1


def test_devices_saturate_at_representable_range(setup):
    model, data, clean, accelerator = setup
    trainer = InSituTrainer(
        model, accelerator, InSituConfig(lr=50.0, batch_size=16)
    )
    rng = RngStream(26)
    trainer.initialize(rng.child("init"))
    trainer.run(data.train_x, data.train_y, 2, rng.child("run"))
    for name, mapped in accelerator.map_model().items():
        layer = accelerator._layers[name]
        bound = accelerator.mapping_config.qmax * mapped.scale
        assert np.abs(layer.weight_override).max() <= bound + 1e-6
