"""Accuracy evaluation and the paper's NWC grid.

:func:`evaluate_accuracy_trials` is the trial-batched counterpart of
:func:`evaluate_accuracy`: with trial-batched weight overrides deployed on
the model's layers (see :mod:`repro.nn.layers.base`), it scores all
``n_trials`` variation draws in one folded forward pass per mini-batch and
returns a ``(n_trials,)`` accuracy vector.  The batched Monte Carlo sweep
(:func:`repro.experiments.sweeps.run_method_sweep`) builds on it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.trainer import evaluate_accuracy

__all__ = [
    "evaluate_accuracy",
    "evaluate_accuracy_trials",
    "DEFAULT_NWC_TARGETS",
    "EVAL_BATCH_SIZE",
]

#: The NWC grid of the paper's Table 1 columns.
DEFAULT_NWC_TARGETS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)

#: Test images per mini-batch of :func:`evaluate_accuracy_trials`; the
#: Monte Carlo trial block is sized from it
#: (:func:`repro.core.mc.default_trial_block`).
EVAL_BATCH_SIZE = 256


def _tile_trials(batch, n_trials):
    """Repeat a mini-batch trial-major: ``(N, ...) -> (T*N, ...)``."""
    shape = (n_trials,) + batch.shape
    return np.broadcast_to(batch, shape).reshape((n_trials * batch.shape[0],) + batch.shape[1:])


def _forward_trials(model, batch, n_trials):
    """One folded forward of a shared mini-batch under per-trial weights.

    The input is identical for every trial — only the deployed weights
    differ — so when the model's first layer is a convolution carrying
    the trial axis (every zoo model's is), its input unfolding (the
    im2col) is computed once via ``Conv2d.forward_multi`` instead of
    ``n_trials`` times on a tiled batch, and the tiled copy of the batch
    is never built.  Any other model runs on plain tiling.  The forward
    runs under ``model.inference()``, so no layer caches anything.
    """
    from repro.nn.layers.conv import Conv2d
    from repro.nn.module import Sequential

    with model.inference():
        if isinstance(model, Sequential) and len(model) > 0:
            first = model[0]
            if (
                isinstance(first, Conv2d)
                and first.override_trials() == n_trials
            ):
                out = first.forward_multi(batch, first.weight_override)
                for module in list(model)[1:]:
                    out = module(out)
                return out
        return model(_tile_trials(batch, n_trials))


def evaluate_accuracy_trials(model, x, y, n_trials):
    """Top-1 accuracy per trial under trial-batched weight overrides.

    The trial-batched counterpart of :func:`evaluate_accuracy`: each
    mini-batch is evaluated once for all trials (folded trial-major), so
    the per-layer dispatch cost is paid once instead of ``n_trials``
    times.

    Returns
    -------
    numpy.ndarray
        ``(n_trials,)`` float accuracies.
    """
    was_training = model.training
    model.eval()
    correct = np.zeros(int(n_trials), dtype=np.int64)
    for start in range(0, x.shape[0], EVAL_BATCH_SIZE):
        xb = x[start : start + EVAL_BATCH_SIZE]
        yb = y[start : start + EVAL_BATCH_SIZE]
        logits = _forward_trials(model, xb, n_trials)
        predictions = np.argmax(logits.reshape(n_trials, xb.shape[0], -1), axis=2)
        correct += (predictions == yb[None, :]).sum(axis=1)
    if was_training:
        model.train()
    return correct / x.shape[0]

