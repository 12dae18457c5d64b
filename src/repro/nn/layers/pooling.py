"""Pooling layers with gradient and curvature passes.

Max pooling routes both derivatives to the argmax input — the paper states
"the backpropagation process of max pooling layers cancels derivatives of
the deactivated inputs" (Sec. 3.3).  Global average pooling is linear with
coefficient ``1/area``, so gradients scale by ``1/area`` and diagonal
curvature by ``1/area^2``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module

__all__ = ["MaxPool2d", "GlobalAvgPool2d"]


def _select(hit, values):
    """``np.where(hit, values, 0)``, bit for bit, as an AND with a bit mask.

    np.where branches per element, which mispredicts on a max-pool's
    scattered hits; the mask is all ones where ``hit`` and zero (the bits
    of +0.0) elsewhere.
    """
    bits = values.view(f"i{values.itemsize}")
    mask = hit.astype(bits.dtype)
    np.negative(mask, out=mask)
    mask &= bits
    return mask.view(values.dtype)


def _pair(value):
    if isinstance(value, (tuple, list)):
        a, b = value
        return int(a), int(b)
    return int(value), int(value)


class MaxPool2d(Module):
    """Max pooling over NCHW inputs.

    Each window routes its derivatives to its first element, in (kh, kw)
    order, that equals the window's maximum, or to its first NaN: the
    element ``np.argmax`` over the window's column picks.  ``forward``
    computes values only, as a fold of ``np.maximum`` over the kh*kw
    strided window views, and caches its input and output.  ``backward``
    and ``backward_second`` derive the routing from that cache when they
    run, one kernel offset at a time: an element is hit when it equals
    the output (or is NaN) and no earlier offset took its window, and the
    hits' values are added into strided slices of a zeroed input-shaped
    buffer, so every pixel sums its windows in (kh, kw) order from +0.0,
    as ``col2im`` does.  A window holding several NaNs outputs the last
    of them; they route to the first.  ``np.maximum`` propagates NaN, so
    only a NaN output's window can hold one: without a NaN output the
    routing skips the NaN test.
    """

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size[0]

    def _offsets(self, out_h, out_w):
        """Yield the ``(rows, cols)`` slices of each kernel offset's view."""
        kh, kw = self.kernel_size
        s = self.stride
        for i in range(kh):
            for j in range(kw):
                yield slice(i, i + s * out_h, s), slice(j, j + s * out_w, s)

    def forward(self, x):
        n, c, h, w = x.shape
        out_h = F.conv_output_size(h, self.kernel_size[0], self.stride, 0)
        out_w = F.conv_output_size(w, self.kernel_size[1], self.stride, 0)
        offsets = self._offsets(out_h, out_w)
        rows, cols = next(offsets)
        out = x[:, :, rows, cols].copy()
        for rows, cols in offsets:
            # On a +0.0/-0.0 tie np.maximum returns its second argument,
            # the earlier zero (tests/test_functional.py pins this).
            np.maximum(x[:, :, rows, cols], out, out=out)
        self._save_for_backward(x=x, out=out)
        return out

    def _scatter(self, values):
        """Route per-window values to each window's first maximum."""
        x, out = self._cache["x"], self._cache["out"]
        values = values.reshape(out.shape)
        routed = np.zeros(x.shape, dtype=values.dtype)
        taken = np.zeros(out.shape, dtype=bool)
        has_nan = bool(np.isnan(out).any())
        offsets = list(self._offsets(*out.shape[2:]))
        for index, (rows, cols) in enumerate(offsets, 1):
            view = x[:, :, rows, cols]
            hit = view == out
            if has_nan:
                hit |= np.isnan(view)
            np.greater(hit, taken, out=hit)  # hit & ~taken
            if index < len(offsets):  # no later offset reads the last's
                taken |= hit
            routed[:, :, rows, cols] += _select(hit, values)
        return routed

    def backward(self, grad_out, input_grad=True):
        self._saved("backward")
        return self._scatter(grad_out)

    def backward_second(self, curv_out, input_grad=True):
        self._saved("backward_second")
        return self._scatter(curv_out)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x):
        self._save_for_backward(x_shape=x.shape)
        return x.mean(axis=(2, 3))

    def backward(self, grad_out, input_grad=True):
        n, c, h, w = self._saved("backward")["x_shape"]
        coeff = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out.reshape(n, c, 1, 1) * coeff, (n, c, h, w)
        ).copy()

    def backward_second(self, curv_out, input_grad=True):
        n, c, h, w = self._saved("backward_second")["x_shape"]
        coeff = 1.0 / (h * w) ** 2
        return np.broadcast_to(
            curv_out.reshape(n, c, 1, 1) * coeff, (n, c, h, w)
        ).copy()
