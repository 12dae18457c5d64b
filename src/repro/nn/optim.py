"""Optimizers and learning-rate schedules for the training substrate.

The models mapped to the CiM simulator are trained off-chip first (paper
Sec. 4.2: "all models ... trained to converge on GPU before mapping").  SGD
with momentum covers everything the model zoo needs; schedules are simple
callables ``epoch -> lr`` so the trainer stays decoupled.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SGD", "cosine_schedule"]


class Optimizer:
    """Base: holds parameters and a current learning rate."""

    def __init__(self, params, lr):
        self.params = [p for p in params if p.trainable]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = float(lr)

    def zero_grad(self):
        """Zero gradient accumulators of all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self):
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with momentum, Nesterov, and decoupled weight decay."""

    def __init__(self, params, lr=0.1, momentum=0.9, weight_decay=0.0, nesterov=False):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, vel in zip(self.params, self._velocity):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            vel *= self.momentum
            vel += grad
            update = grad + self.momentum * vel if self.nesterov else vel
            p.data = p.data - self.lr * update.astype(p.data.dtype)


def cosine_schedule(base_lr, total_epochs, min_lr=0.0):
    """Cosine decay from ``base_lr`` to ``min_lr`` over ``total_epochs``."""

    def schedule(epoch):
        frac = min(max(epoch, 0), total_epochs) / max(total_epochs, 1)
        return min_lr + 0.5 * (base_lr - min_lr) * (1 + np.cos(np.pi * frac))

    return schedule
