"""Pooling layers with gradient and curvature passes.

Max pooling routes both derivatives to the argmax input — the paper states
"the backpropagation process of max pooling layers cancels derivatives of
the deactivated inputs" (Sec. 3.3).  Average pooling is linear with
coefficient ``1/area``, so gradients scale by ``1/area`` and diagonal
curvature by ``1/area^2``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


def _pair(value):
    if isinstance(value, (tuple, list)):
        a, b = value
        return int(a), int(b)
    return int(value), int(value)


class MaxPool2d(Module):
    """Max pooling over NCHW inputs."""

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size[0]
        self._cache = None

    def forward(self, x):
        n, c, h, w = x.shape
        # View each channel independently: reshape to (N*C, 1, H, W) and
        # unfold so columns are pooling windows.
        flat = x.reshape(n * c, 1, h, w)
        cols, out_h, out_w = F.im2col(flat, self.kernel_size, stride=self.stride)
        # cols: (kh*kw, N*C*out_h*out_w)
        argmax = np.argmax(cols, axis=0)
        out = cols[argmax, np.arange(cols.shape[1])]
        out = out.reshape(n * c, out_h, out_w).reshape(n, c, out_h, out_w)
        self._cache = {
            "x_shape": x.shape,
            "argmax": argmax,
            "cols_shape": cols.shape,
            "out_hw": (out_h, out_w),
        }
        return out

    def _scatter(self, values):
        """Scatter per-window values back through the argmax selections."""
        n, c, h, w = self._cache["x_shape"]
        cols = np.zeros(self._cache["cols_shape"], dtype=values.dtype)
        flat_vals = values.reshape(-1)
        cols[self._cache["argmax"], np.arange(cols.shape[1])] = flat_vals
        out = F.col2im(
            cols, (n * c, 1, h, w), self.kernel_size, stride=self.stride
        )
        return out.reshape(n, c, h, w)

    def backward(self, grad_out):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return self._scatter(grad_out)

    def backward_second(self, curv_out):
        if self._cache is None:
            raise RuntimeError("backward_second called before forward")
        return self._scatter(curv_out)


class AvgPool2d(Module):
    """Average pooling over NCHW inputs."""

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size[0]
        self._cache = None

    def forward(self, x):
        n, c, h, w = x.shape
        flat = x.reshape(n * c, 1, h, w)
        cols, out_h, out_w = F.im2col(flat, self.kernel_size, stride=self.stride)
        out = cols.mean(axis=0).reshape(n, c, out_h, out_w)
        self._cache = {"x_shape": x.shape, "cols_shape": cols.shape}
        return out

    def _spread(self, values, power):
        n, c, h, w = self._cache["x_shape"]
        kh, kw = self.kernel_size
        area = kh * kw
        coeff = (1.0 / area) ** power
        cols = np.broadcast_to(
            values.reshape(1, -1) * coeff, self._cache["cols_shape"]
        ).astype(values.dtype)
        out = F.col2im(
            np.ascontiguousarray(cols),
            (n * c, 1, h, w),
            self.kernel_size,
            stride=self.stride,
        )
        return out.reshape(n, c, h, w)

    def backward(self, grad_out):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return self._spread(grad_out, power=1)

    def backward_second(self, curv_out):
        if self._cache is None:
            raise RuntimeError("backward_second called before forward")
        return self._spread(curv_out, power=2)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def __init__(self):
        super().__init__()
        self._cache = None

    def forward(self, x):
        self._cache = {"x_shape": x.shape}
        return x.mean(axis=(2, 3))

    def backward(self, grad_out):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._cache["x_shape"]
        coeff = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out.reshape(n, c, 1, 1) * coeff, (n, c, h, w)
        ).copy()

    def backward_second(self, curv_out):
        if self._cache is None:
            raise RuntimeError("backward_second called before forward")
        n, c, h, w = self._cache["x_shape"]
        coeff = 1.0 / (h * w) ** 2
        return np.broadcast_to(
            curv_out.reshape(n, c, 1, 1) * coeff, (n, c, h, w)
        ).copy()
