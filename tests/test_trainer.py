"""Training loop: learning happens, histories record, QAT path works."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, TrainConfig, Trainer, evaluate_accuracy, iterate_batches
from repro.nn.models import mlp
from repro.utils.rng import RngStream


def _blobs(rng, n=240, dims=6, classes=3, spread=0.4):
    """Separable Gaussian blobs."""
    gen = rng.generator
    centers = gen.normal(size=(classes, dims)) * 2.0
    y = np.arange(n) % classes
    x = centers[y] + gen.normal(size=(n, dims)) * spread
    return x.astype(np.float32), y.astype(np.int64)


def test_iterate_batches_covers_everything(rng):
    x = np.arange(10).reshape(10, 1)
    y = np.arange(10)
    seen = []
    for xb, yb in iterate_batches(x, y, batch_size=3):
        assert xb.shape[0] == yb.shape[0]
        seen.extend(yb.tolist())
    assert sorted(seen) == list(range(10))


def test_iterate_batches_shuffles_with_rng(rng):
    x = np.arange(20).reshape(20, 1)
    y = np.arange(20)
    order_a = [yb.tolist() for _, yb in iterate_batches(
        x, y, 5, rng=np.random.default_rng(1))]
    order_b = [yb.tolist() for _, yb in iterate_batches(
        x, y, 5, rng=np.random.default_rng(2))]
    assert order_a != order_b


def test_training_reaches_high_accuracy(rng):
    x, y = _blobs(rng.child("data"))
    model = mlp(rng.child("model"), (6, 16, 3))
    trainer = Trainer(SGD(model.parameters(), lr=0.1, momentum=0.9),
                      rng=rng.child("shuffle"))
    history = trainer.fit(model, x, y, x, y,
                          config=TrainConfig(epochs=20, batch_size=32))
    assert history.test_accuracy[-1] > 0.95
    assert history.train_loss[0] > history.train_loss[-1]
    assert len(history.train_loss) == 20


def test_schedule_applied_per_epoch(rng):
    x, y = _blobs(rng.child("data"), n=60)
    model = mlp(rng.child("model"), (6, 8, 3))
    optimizer = SGD(model.parameters(), lr=999.0)
    trainer = Trainer(optimizer, schedule=lambda epoch: 0.05,
                      rng=rng.child("s"))
    history = trainer.fit(model, x, y,
                          config=TrainConfig(epochs=3, batch_size=32))
    assert history.learning_rate == [0.05, 0.05, 0.05]
    assert optimizer.lr == 0.05


def test_qat_flag_attaches_quantizers(rng):
    x, y = _blobs(rng.child("data"), n=60)
    model = mlp(rng.child("model"), (6, 8, 3))
    trainer = Trainer(SGD(model.parameters(), lr=0.05), rng=rng.child("s"))
    trainer.fit(model, x, y,
                config=TrainConfig(epochs=2, batch_size=32, weight_bits=4))
    weighted = [m for m in model.modules()
                if getattr(m, "weight_quantizer", None) is not None]
    assert len(weighted) == 2


def test_model_left_in_eval_mode(rng):
    x, y = _blobs(rng.child("data"), n=60)
    model = mlp(rng.child("model"), (6, 8, 3))
    trainer = Trainer(SGD(model.parameters(), lr=0.05), rng=rng.child("s"))
    trainer.fit(model, x, y, config=TrainConfig(epochs=1, batch_size=32))
    assert not model.training


def test_evaluate_accuracy_preserves_mode(rng):
    x, y = _blobs(rng.child("data"), n=60)
    model = mlp(rng.child("model"), (6, 8, 3))
    model.train()
    evaluate_accuracy(model, x, y)
    assert model.training
    model.eval()
    evaluate_accuracy(model, x, y)
    assert not model.training


def test_deterministic_training_given_seed(rng):
    x, y = _blobs(rng.child("data"), n=120)

    def train_once():
        model = mlp(RngStream(11).child("model"), (6, 8, 3))
        trainer = Trainer(SGD(model.parameters(), lr=0.05, momentum=0.9),
                          rng=RngStream(12).child("shuffle"))
        trainer.fit(model, x, y, config=TrainConfig(epochs=3, batch_size=32))
        return model.state_dict()

    a = train_once()
    b = train_once()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
