"""Batch normalization with gradient and curvature passes.

The gradient pass implements the full batch-norm backward (statistics
depend on the batch).  For the curvature pass we use the frozen-statistics
(affine) form: at weight-mapping time the network runs in inference mode,
where batch norm *is* exactly an affine map ``out = gamma * (x - mu)/std +
beta``; in that regime the rules below are exact:

- input curvature:  ``h_x     = h_out * (gamma / std)^2``
- gamma curvature:  ``h_gamma = sum h_out * x_hat^2``
- beta curvature:   ``h_beta  = sum h_out``

In training mode the same frozen-statistics rule is applied with the batch
statistics; the (tiny) curvature contribution of the statistics' dependence
on x is dropped, consistent with the paper's diagonal approximation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm2d"]


class _BatchNorm(Module):
    """Batch-norm logic; a subclass names the reduction axes and the
    parameter broadcast shape."""

    def __init__(self, num_features, eps=1e-5, momentum=0.1, dtype=np.float32):
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(self.num_features, dtype=dtype), name="gamma")
        self.beta = Parameter(np.zeros(self.num_features, dtype=dtype), name="beta")
        self.running_mean = np.zeros(self.num_features, dtype=dtype)
        self.running_var = np.ones(self.num_features, dtype=dtype)
        self.register_buffer_name("running_mean")
        self.register_buffer_name("running_var")

    def _reduce_axes(self):
        raise NotImplementedError

    def _shape_param(self, p):
        raise NotImplementedError

    def forward(self, x):
        axes = self._reduce_axes()
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(self.running_mean.dtype)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(self.running_var.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.eps)
        x_hat = (x - self._shape_param(mean)) / self._shape_param(std)
        out = self._shape_param(self.gamma.data) * x_hat + self._shape_param(
            self.beta.data
        )
        self._save_for_backward(
            x_hat=x_hat,
            std=std,
            m=int(np.prod([x.shape[a] for a in axes])),
            train_stats=self.training,
        )
        return out

    def backward(self, grad_out, input_grad=True):
        cache = self._saved("backward")
        axes = self._reduce_axes()
        x_hat = cache["x_hat"]
        std = self._shape_param(cache["std"])
        gamma = self._shape_param(self.gamma.data)

        self.gamma.accumulate_grad((grad_out * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad_out.sum(axis=axes))

        if not input_grad:
            return None
        if not cache["train_stats"]:
            # Inference: statistics are constants; pure affine backward.
            return grad_out * gamma / std

        m = cache["m"]
        sum_g = grad_out.sum(axis=axes)
        sum_gx = (grad_out * x_hat).sum(axis=axes)
        return (
            gamma
            / std
            / m
            * (
                m * grad_out
                - self._shape_param(sum_g)
                - x_hat * self._shape_param(sum_gx)
            )
        )

    def backward_second(self, curv_out, input_grad=True):
        cache = self._saved("backward_second")
        axes = self._reduce_axes()
        x_hat = cache["x_hat"]
        std = self._shape_param(cache["std"])
        gamma = self._shape_param(self.gamma.data)
        self.gamma.accumulate_curvature((curv_out * np.square(x_hat)).sum(axis=axes))
        self.beta.accumulate_curvature(curv_out.sum(axis=axes))
        if not input_grad:
            return None
        return curv_out * np.square(gamma / std)


class BatchNorm2d(_BatchNorm):
    """Batch norm over NCHW inputs (per-channel statistics)."""

    def _reduce_axes(self):
        return (0, 2, 3)

    def _shape_param(self, p):
        return np.asarray(p).reshape(1, -1, 1, 1)
