"""Shape-only layers (no parameters, derivatives pass through reshaped)."""

from __future__ import annotations

from repro.nn.module import Module

__all__ = ["Flatten"]


class Flatten(Module):
    """Flatten (N, ...) to (N, features)."""

    def forward(self, x):
        self._save_for_backward(shape=x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out, input_grad=True):
        return grad_out.reshape(self._saved("backward")["shape"])

    def backward_second(self, curv_out, input_grad=True):
        return curv_out.reshape(self._saved("backward_second")["shape"])
