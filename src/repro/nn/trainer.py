"""Mini-batch training loop for the off-chip (pre-mapping) training stage.

The paper trains every model to convergence on GPU with quantization-aware
training before mapping (Sec. 4.2).  :class:`Trainer` reproduces that
stage: shuffled mini-batches, an optimizer + LR schedule, optional STE
weight fake-quantization, and accuracy tracking on a held-out split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import CrossEntropyLoss
from repro.nn.quant import attach_weight_quantizers

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "evaluate_accuracy", "iterate_batches"]


def iterate_batches(x, y, batch_size, rng=None):
    """Yield ``(xb, yb)`` mini-batches; shuffles when ``rng`` is given."""
    n = x.shape[0]
    order = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield x[idx], y[idx]


def evaluate_accuracy(model, x, y, batch_size=256):
    """Top-1 accuracy of ``model`` on ``(x, y)`` in inference mode.

    The forwards run under ``model.inference()``: they cache nothing.
    """
    was_training = model.training
    model.eval()
    correct = 0
    with model.inference():
        for xb, yb in iterate_batches(x, y, batch_size):
            logits = model(xb)
            correct += int((np.argmax(logits, axis=1) == yb).sum())
    if was_training:
        model.train()
    return correct / x.shape[0]


@dataclass
class TrainConfig:
    """Hyper-parameters for :class:`Trainer`."""

    epochs: int = 10
    batch_size: int = 64
    weight_bits: int | None = None  # enable STE weight fake-quant when set


@dataclass
class TrainHistory:
    """Per-epoch curves recorded during training."""

    train_loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    learning_rate: list = field(default_factory=list)


class Trainer:
    """Train a model with a given optimizer and LR schedule.

    Parameters
    ----------
    optimizer:
        Any :mod:`repro.nn.optim` optimizer over the model parameters.
    schedule:
        Callable ``epoch -> learning rate`` (see :mod:`repro.nn.optim`).
    loss:
        Loss object (default :class:`CrossEntropyLoss`).
    rng:
        :class:`~repro.utils.rng.RngStream` used for batch shuffling.
    """

    def __init__(self, optimizer, schedule=None, loss=None, rng=None):
        self.optimizer = optimizer
        self.schedule = schedule
        self.loss = loss if loss is not None else CrossEntropyLoss()
        self._shuffle_rng = rng

    def fit(self, model, train_x, train_y, test_x=None, test_y=None, config=None):
        """Run the training loop; returns a :class:`TrainHistory`.

        The model is left in eval mode, holding no forward cache.
        """
        config = config or TrainConfig()
        if config.weight_bits is not None:
            attach_weight_quantizers(model, config.weight_bits)
        history = TrainHistory()
        model.train()
        for epoch in range(config.epochs):
            if self.schedule is not None:
                self.optimizer.lr = float(self.schedule(epoch))
            history.learning_rate.append(self.optimizer.lr)
            epoch_loss = 0.0
            epoch_correct = 0
            shuffle = (
                self._shuffle_rng.child("epoch", epoch).generator
                if self._shuffle_rng is not None
                else np.random.default_rng(epoch)
            )
            n_batches = 0
            for xb, yb in iterate_batches(
                train_x, train_y, config.batch_size, rng=shuffle
            ):
                logits = model(xb)
                loss_value = self.loss(logits, yb)
                model.zero_grad()
                model.backward(self.loss.backward(), input_grad=False)
                self.optimizer.step()
                epoch_loss += loss_value
                epoch_correct += int((np.argmax(logits, axis=1) == yb).sum())
                n_batches += 1
            history.train_loss.append(epoch_loss / max(n_batches, 1))
            history.train_accuracy.append(epoch_correct / train_x.shape[0])
            if test_x is not None:
                acc = evaluate_accuracy(model, test_x, test_y, config.batch_size)
                history.test_accuracy.append(acc)
                model.train()
        model.eval()
        model.drop_caches()
        return history
