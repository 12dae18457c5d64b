"""2-D convolution via im2col, with gradient and curvature passes.

The paper notes (Sec. 3.3) that convolution "can be cast in the same form
as FC layers" for the second-derivative recursion.  im2col makes this
literal: with ``cols`` the unfolded input patches and ``W`` the flattened
filter bank, the forward pass is ``O = W @ cols``.  The backward passes are
then the Linear-layer rules applied to the column matrix, with ``col2im``
summing per-patch input derivatives back onto the pixels they came from:

- weight gradient:   ``dW = dO @ cols.T``
- weight curvature:  ``hW = hO @ (cols^2).T``          (Eq. 8)
- input gradient:    ``col2im(W.T @ dO)``              (Eq. 13)
- input curvature:   ``col2im((W^2).T @ hO)``          (Eq. 10)

A weight is shared across all spatial positions, so both its gradient and
its curvature sum over positions — the curvature sum matching the paper's
one-weight-at-a-time independence approximation.

The forward pass caches its input, not ``cols`` (9-25x larger), and each
backward pass unfolds the input again: ``im2col`` is a pure copy, so the
derivatives keep their bytes.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers.base import WeightedLayer
from repro.nn.parameter import Parameter

__all__ = ["Conv2d"]


def _pair(value):
    if isinstance(value, (tuple, list)):
        a, b = value
        return int(a), int(b)
    return int(value), int(value)


class Conv2d(WeightedLayer):
    """Convolution over NCHW inputs (no dilation/groups; stride + padding)."""

    def __init__(
        self,
        in_channels,
        out_channels,
        kernel_size,
        stride=1,
        padding=0,
        bias=True,
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        if rng is None:
            raise ValueError("Conv2d requires an RngStream for initialization")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        kh, kw = self.kernel_size
        weight = init.kaiming_normal(
            (self.out_channels, self.in_channels, kh, kw), rng, dtype=dtype
        )
        self.weight = Parameter(weight, name="weight")
        self.has_bias = bool(bias)
        if self.has_bias:
            self.bias = Parameter(init.zeros((self.out_channels,), dtype), name="bias")

    def _weight_matrix(self, w):
        kh, kw = self.kernel_size
        if w.ndim == 5:  # (T, F, C, kh, kw) trial stack
            return w.reshape(w.shape[0], self.out_channels, -1)
        return w.reshape(self.out_channels, self.in_channels * kh * kw)

    def _unfold(self, x):
        return F.im2col(
            x, self.kernel_size, stride=self.stride, padding=self.padding
        )

    def forward(self, x):
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        cols, out_h, out_w = self._unfold(x)
        w = self.effective_weight()
        w_mat = self._weight_matrix(w)
        n_trials = self.override_trials()
        if n_trials is not None:
            # Trial-batched inference on a trial-major folded batch: the
            # column matrix is (Ckk, T*N'*oh*ow) with samples trial-major,
            # so a reshape exposes the trial axis for one batched matmul.
            self._require_inference()
            per = self._fold_size(n, n_trials)
            cols_t = cols.reshape(
                cols.shape[0], n_trials, per * out_h * out_w
            ).transpose(1, 0, 2)
            out = np.matmul(w_mat, cols_t)  # (T, F, N'*oh*ow), stacked BLAS
            out = out.reshape(n_trials, self.out_channels, per, out_h, out_w)
            out = out.transpose(0, 2, 1, 3, 4).reshape(
                n, self.out_channels, out_h, out_w
            )
            if self.has_bias:
                out = out + self.bias.data.reshape(1, -1, 1, 1)
            return np.ascontiguousarray(out)
        out = w_mat @ cols  # (F, N*oh*ow)
        out = out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        if self.has_bias:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        self._save_for_backward(x=x, w_mat=w_mat)
        return np.ascontiguousarray(out)

    def forward_multi(self, x, weights):
        """Apply a ``(T, F, C, kh, kw)`` filter stack to one *shared* input.

        The receptive fields of ``x`` are unfolded once and multiplied by
        every trial's filter bank in one ``(T*F, Ckk) @ cols`` matmul, so
        T weight variants cost one im2col and one pass over the columns.
        Returns a trial-major folded output ``(T*N, F, oh, ow)``.
        Inference-only.
        """
        self._require_inference()
        x = np.asarray(x)
        weights = np.asarray(weights)
        n, n_trials = x.shape[0], weights.shape[0]
        cols, out_h, out_w = self._unfold(x)
        w_rows = weights.reshape(n_trials * self.out_channels, -1)
        out = w_rows @ cols  # (T*F, N*oh*ow)
        out = out.reshape(n_trials, self.out_channels, n, out_h, out_w)
        out = out.transpose(0, 2, 1, 3, 4).reshape(
            n_trials * n, self.out_channels, out_h, out_w
        )
        if self.has_bias:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        return np.ascontiguousarray(out)

    def _grad_matrix(self, grad_out):
        return grad_out.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)

    def _fold(self, cols, x):
        return F.col2im(
            cols, x.shape, self.kernel_size, stride=self.stride,
            padding=self.padding,
        )

    def backward(self, grad_out, input_grad=True):
        cache = self._saved("backward")
        x, w_mat = cache["x"], cache["w_mat"]
        cols, _, _ = self._unfold(x)
        g_mat = self._grad_matrix(grad_out)
        grad_w = (g_mat @ cols.T).reshape(self.weight.data.shape)
        del cols
        self.weight.accumulate_grad(grad_w)
        if self.has_bias:
            self.bias.accumulate_grad(g_mat.sum(axis=1))
        if not input_grad:
            return None
        return self._fold(w_mat.T @ g_mat, x)

    def backward_second(self, curv_out, input_grad=True):
        cache = self._saved("backward_second")
        x, w_mat = cache["x"], cache["w_mat"]
        cols, _, _ = self._unfold(x)
        h_mat = self._grad_matrix(curv_out)
        np.square(cols, out=cols)
        curv_w = (h_mat @ cols.T).reshape(self.weight.data.shape)
        del cols
        self.weight.accumulate_curvature(curv_w)
        if self.has_bias:
            self.bias.accumulate_curvature(h_mat.sum(axis=1))
        if not input_grad:
            return None
        return self._fold(np.square(w_mat).T @ h_mat, x)

    def __repr__(self):
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.has_bias})"
        )
