"""Array-level building blocks: im2col/col2im, log-softmax, one-hot.

``im2col`` turns convolution into one big matrix multiply, which is both the
fastest way to run convolutions in NumPy and — more importantly here — makes
the paper's observation that "convolution layers can be cast in the same
form as FC layers" (Sec. 3.3) literal in the code: the gradient uses the
column matrix, and the diagonal-curvature pass uses the *squared* column
matrix, exactly as Eq. 8 does for fully connected layers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad2d",
    "unpad2d",
    "im2col",
    "col2im",
    "conv_output_size",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size, kernel, stride, padding):
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad2d(x, padding):
    """Zero-pad NCHW input spatially by ``padding`` on each side."""
    if padding == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


def unpad2d(x, padding):
    """Inverse of :func:`pad2d`."""
    if padding == 0:
        return x
    return x[:, :, padding:-padding, padding:-padding]


def im2col(x, kernel, stride=1, padding=0):
    """Unfold NCHW input into a column matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` window size.
    stride, padding:
        Convolution geometry.

    Returns
    -------
    tuple
        ``(cols, out_h, out_w)`` where ``cols`` has shape
        ``(C*kh*kw, N*out_h*out_w)``; column ``n*out_h*out_w + p`` holds the
        receptive field of output pixel ``p`` of sample ``n``.

    Raises
    ------
    ValueError
        If the kernel does not fit the padded input (see
        :func:`conv_output_size`).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x = pad2d(x, padding).transpose(1, 0, 2, 3)  # (C, N, Hp, Wp) view
    cols = np.empty((c, kh, kw, n, out_h, out_w), dtype=x.dtype)
    # One strided copy per kernel offset: offset (i, j) of every window.
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, :, i : i + stride * out_h : stride,
                              j : j + stride * out_w : stride]
    return cols.reshape(c * kh * kw, n * out_h * out_w), out_h, out_w


def col2im(cols, x_shape, kernel, stride=1, padding=0):
    """Fold a column matrix back to NCHW, summing overlapping windows.

    This is the adjoint of :func:`im2col` (not its inverse): each input
    pixel accumulates contributions from every window that covered it,
    which is exactly what both the gradient and the diagonal-curvature
    backward passes require.

    The sum runs as one strided slice add per kernel offset, in (kh, kw)
    order, into a zeroed padded image.  So every pixel adds its
    contributions one at a time in (kh, kw) order starting from +0.0,
    the order an ``np.add.at`` scatter over im2col's window indices
    uses, and the result is bit-identical to that scatter
    (``tests/test_functional.py`` keeps it as the reference).  The
    result is a view into a C-contiguous ``(N, C, H+2p, W+2p)`` buffer;
    keep that layout, because the reductions and BLAS calls downstream
    may sum in an order that depends on it.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    patches = cols.reshape(c, kh, kw, n, out_h, out_w).transpose(3, 0, 1, 2, 4, 5)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * out_h : stride,
                j : j + stride * out_w : stride] += patches[:, :, i, j]
    return unpad2d(out, padding)


def log_softmax(logits, axis=-1):
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels, num_classes, dtype=None, like=None):
    """One-hot encode integer labels of shape (N,) into (N, num_classes).

    The dtype is taken from ``dtype`` when given, else derived from
    ``like`` (typically the logits array), else float64.  Deriving from
    the logits keeps float32 models float32 through the loss/backward
    path instead of silently upcasting everything downstream.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("labels out of range")
    if dtype is None:
        dtype = np.asarray(like).dtype if like is not None else np.float64
    out = np.zeros((labels.size, num_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1
    return out
