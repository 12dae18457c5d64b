"""Fully connected layer with gradient and diagonal-curvature passes.

This layer is the reference implementation of the paper's Sec. 3.3 math.
With ``O = W P + b`` (paper Eq. 7):

- gradient w.r.t. weights (Eq. 12):   ``dF/dW_ji = dF/dO_j * P_i``
- gradient w.r.t. inputs  (Eq. 13):   ``dF/dP_i  = sum_j W_ji dF/dO_j``
- curvature w.r.t. weights (Eq. 8):   ``d2F/dW_ji^2 = d2F/dO_j^2 * P_i^2``
- curvature w.r.t. inputs  (Eq. 10):  ``d2F/dP_i^2 = sum_j W_ji^2 d2F/dO_j^2``

The curvature recursion drops the Hessian cross terms, following the
paper's (and Optimal Brain Damage's) diagonal approximation; the bias
curvature is ``d2F/db_j^2 = d2F/dO_j^2`` since the output is linear in b
with coefficient 1.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers.base import WeightedLayer
from repro.nn.parameter import Parameter

__all__ = ["Linear"]


class Linear(WeightedLayer):
    """Affine map ``y = x @ W.T + b`` over inputs of shape ``(N, in)``."""

    def __init__(self, in_features, out_features, bias=True, rng=None, dtype=np.float32):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if rng is None:
            raise ValueError("Linear requires an RngStream for initialization")
        weight = init.kaiming_uniform(
            (self.out_features, self.in_features), rng, dtype=dtype
        )
        self.weight = Parameter(weight, name="weight")
        self.has_bias = bool(bias)
        if self.has_bias:
            self.bias = Parameter(init.zeros((self.out_features,), dtype), name="bias")

    def forward(self, x):
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (N, {self.in_features}), got {x.shape}"
            )
        w = self.effective_weight()
        n_trials = self.override_trials()
        if n_trials is not None:
            # Trial-batched inference: per-trial weights applied to a
            # trial-major folded batch (see WeightedLayer docstring).
            self._require_inference()
            xt = self._split_trials(x, n_trials)
            # (T, N', in) @ (T, in, out) — stacked BLAS matmuls.
            out = np.matmul(xt, w.transpose(0, 2, 1)).reshape(x.shape[0], -1)
            if self.has_bias:
                out = out + self.bias.data
            return out
        out = x @ w.T
        if self.has_bias:
            out = out + self.bias.data
        self._save_for_backward(x=x, w=w)
        return out

    def backward(self, grad_out, input_grad=True):
        cache = self._saved("backward")
        self.weight.accumulate_grad(grad_out.T @ cache["x"])
        if self.has_bias:
            self.bias.accumulate_grad(grad_out.sum(axis=0))
        return grad_out @ cache["w"] if input_grad else None

    def backward_second(self, curv_out, input_grad=True):
        cache = self._saved("backward_second")
        # Eq. 8: curvature of each weight sums (over the batch) the output
        # curvature times the squared input it multiplies.
        self.weight.accumulate_curvature(curv_out.T @ np.square(cache["x"]))
        if self.has_bias:
            self.bias.accumulate_curvature(curv_out.sum(axis=0))
        if not input_grad:
            return None
        # Eq. 10: propagate through squared weights.
        return curv_out @ np.square(cache["w"])

    def __repr__(self):
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.has_bias})"
        )
