"""Element-wise activations with first- and second-derivative passes.

For an activation ``P = g(I)`` the exact chain rule for the diagonal
curvature is (paper Eq. 9)::

    d2F/dI^2 = g'(I)^2 * d2F/dP^2 + g''(I) * dF/dP

ReLU — the case the paper specializes to in Eq. 10 — has ``g'' = 0`` and
``g'^2 = g' = step(I)``, so the curvature is simply masked, exactly like
the gradient.  Smooth activations (tanh, sigmoid) keep the ``g''`` term,
which requires the first-order gradient ``dF/dP``; the backward pass caches
it, which is why ``backward_second`` must run after ``backward``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "Tanh", "Sigmoid", "Identity"]


class _Activation(Module):
    """Common caching logic for element-wise activations."""

    def _derivatives(self, cache):
        """Return ``(g_prime, g_double_prime)`` arrays for the cached input."""
        raise NotImplementedError

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_out, input_grad=True):
        cache = self._saved("backward")
        g_prime, _ = self._derivatives(cache)
        cache["grad_out"] = grad_out
        return grad_out * g_prime

    def backward_second(self, curv_out, input_grad=True):
        cache = self._saved("backward_second")
        g_prime, g_double = self._derivatives(cache)
        curv_in = curv_out * np.square(g_prime)
        if g_double is not None:
            grad_out = cache.get("grad_out")
            if grad_out is None:
                raise RuntimeError(
                    "backward_second for a smooth activation requires "
                    "backward to run first (needs dF/dP for the g'' term)"
                )
            curv_in = curv_in + g_double * grad_out
        return curv_in


class ReLU(_Activation):
    """Rectified linear unit.

    ``forward`` computes values only: ``fmax(x, 0)`` (NaN and every
    non-positive input map to +0.0) and caches the output.  The
    derivative mask is ``out > 0``, derived when a backward pass runs; it
    equals ``x > 0`` for every input, NaN included.
    """

    def forward(self, x):
        out = np.fmax(x, 0)
        out += 0  # -0.0 -> +0.0: fmax may return either zero on a tie.
        self._save_for_backward(out=out)
        return out

    def _derivatives(self, cache):
        return (cache["out"] > 0).astype(np.float32), None


class Tanh(_Activation):
    """Hyperbolic tangent (smooth: keeps the g'' curvature term)."""

    def forward(self, x):
        out = np.tanh(x)
        self._save_for_backward(out=out)
        return out

    def _derivatives(self, cache):
        out = cache["out"]
        g_prime = 1.0 - np.square(out)
        g_double = -2.0 * out * g_prime
        return g_prime, g_double


class Sigmoid(_Activation):
    """Logistic sigmoid (smooth: keeps the g'' curvature term)."""

    def forward(self, x):
        out = 1.0 / (1.0 + np.exp(-x))
        self._save_for_backward(out=out)
        return out

    def _derivatives(self, cache):
        out = cache["out"]
        g_prime = out * (1.0 - out)
        g_double = g_prime * (1.0 - 2.0 * out)
        return g_prime, g_double


class Identity(Module):
    """No-op layer (useful as a placeholder in model definitions)."""

    def forward(self, x):
        return x

    def backward(self, grad_out, input_grad=True):
        return grad_out

    def backward_second(self, curv_out, input_grad=True):
        return curv_out
