"""Loss functions with first- and second-derivative seeds.

The paper's curvature recursion starts from ``d2F/dO_j^2``, the diagonal
second derivative of the loss w.r.t. the network output (Sec. 3.3):

- L2 loss: ``d2F/dO_j^2 = 2`` (per sample; ``2/N`` under a batch mean).
  No zoo model trains on it; ``tests/helpers.py`` keeps an ``MSELoss``
  for the recursion's exactness tests.
- Cross-entropy with softmax: ``p_j (1 - p_j)`` with
  ``p_j = exp(O_j) / sum_k exp(O_k)``.

Note: the paper's Eq. 11 prints the probability as ``O_j / sum exp(O_j)``;
the correct softmax probability uses ``exp(O_j)`` in the numerator.  We
implement the correct expression (validated against finite differences in
``tests/test_losses.py``).

The loss reduces with a batch mean, so both derivative seeds carry a
``1/N`` factor: the loss is a *sum* of per-sample terms scaled by
``1/N``, and both d/dO and d2/dO2 are linear in that scaling.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy over logits of shape (N, C), integer targets."""

    def __init__(self):
        self._cache = None

    def forward(self, logits, targets):
        """Return the scalar mean loss and cache derivative state."""
        logits = np.asarray(logits)
        targets = np.asarray(targets, dtype=np.int64)
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        if targets.shape != (logits.shape[0],):
            raise ValueError(
                f"targets must be ({logits.shape[0]},), got {targets.shape}"
            )
        log_probs = F.log_softmax(logits, axis=1)
        n = logits.shape[0]
        loss = -float(log_probs[np.arange(n), targets].mean())
        self._cache = {
            "probs": np.exp(log_probs),
            "targets": targets,
            "n": n,
            "num_classes": logits.shape[1],
        }
        return loss

    def __call__(self, logits, targets):
        return self.forward(logits, targets)

    def backward(self):
        """Gradient of the mean loss w.r.t. logits: ``(p - y) / N``."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs = self._cache["probs"]
        targets = self._cache["targets"]
        n = self._cache["n"]
        # one_hot derives its dtype from the probabilities (hence the
        # logits), so float32 models stay float32 through backward.
        y = F.one_hot(targets, self._cache["num_classes"], like=probs)
        return (probs - y) / n

    def second(self):
        """Diagonal curvature w.r.t. logits: ``p (1 - p) / N`` (Eq. 11)."""
        if self._cache is None:
            raise RuntimeError("second called before forward")
        probs = self._cache["probs"]
        return probs * (1.0 - probs) / self._cache["n"]
