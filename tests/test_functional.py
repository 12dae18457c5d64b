"""Array-level building blocks: im2col/col2im, softmax, one-hot."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import Conv2d, MaxPool2d


def _window_indices(channels, height, width, kernel, stride):
    """Row/col gather indices for the reference kernels on a padded volume."""
    kh, kw = kernel
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    c_idx = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    kh_idx = np.tile(np.repeat(np.arange(kh), kw), channels).reshape(-1, 1)
    kw_idx = np.tile(np.arange(kw), channels * kh).reshape(-1, 1)
    oh_idx = stride * np.repeat(np.arange(out_h), out_w).reshape(1, -1)
    ow_idx = stride * np.tile(np.arange(out_w), out_h).reshape(1, -1)
    return c_idx, kh_idx + oh_idx, kw_idx + ow_idx, out_h, out_w


def im2col_reference(x, kernel, stride=1, padding=0):
    """im2col as one fancy-index gather: the reference for ``F.im2col``."""
    x = F.pad2d(x, padding)
    n, c, h, w = x.shape
    c_idx, rows, cols_idx, out_h, out_w = _window_indices(c, h, w, kernel, stride)
    patches = x[:, c_idx, rows, cols_idx]  # (N, C*kh*kw, out_h*out_w)
    cols = patches.transpose(1, 0, 2).reshape(patches.shape[1], -1)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im_reference(cols, x_shape, kernel, stride=1, padding=0):
    """col2im as one ``np.add.at`` scatter: the reference for ``F.col2im``."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    c_idx, rows, cols_idx, out_h, out_w = _window_indices(c, hp, wp, kernel, stride)
    patches = cols.reshape(cols.shape[0], n, out_h * out_w).transpose(1, 0, 2)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    np.add.at(out, (slice(None), c_idx, rows, cols_idx), patches)
    return F.unpad2d(out, padding)


# (input shape, kernel, stride, padding).  The zoo's conv and pool
# geometries at small sizes, plus ragged ones where the last window
# stops short of the padded edge: (H + 2p - k) % s != 0.
KERNEL_CASES = {
    "lenet-5x5-p2": ((3, 1, 12, 11), (5, 5), 1, 2),
    "lenet-5x5-p0": ((3, 6, 9, 10), (5, 5), 1, 0),
    "convnet-3x3-p1": ((2, 4, 8, 7), (3, 3), 1, 1),
    "resnet-3x3-s2-p1": ((2, 4, 8, 9), (3, 3), 2, 1),
    "resnet-1x1-s2": ((2, 4, 8, 8), (1, 1), 2, 0),
    "pool-2x2-s2": ((6, 1, 8, 10), (2, 2), 2, 0),
    "pool-3x3-s2-overlapping": ((6, 1, 9, 7), (3, 3), 2, 0),
    "ragged-3x2-s2": ((2, 3, 8, 10), (3, 2), 2, 0),
}


def _planted(shape, dtype, seed):
    """Values over 16 decades with ties, +0.0 and -0.0 planted.

    The spread of magnitudes makes a sum taken in another order round
    differently, so a byte comparison catches a reordered kernel.
    """
    gen = np.random.default_rng(seed)
    x = gen.normal(size=shape) * 10.0 ** gen.integers(-8, 8, size=shape)
    flat = x.reshape(-1)
    slots = np.array_split(gen.permutation(flat.size), 5)
    flat[slots[0]] = 0.0
    flat[slots[1]] = -0.0
    flat[slots[2]] = 1.5
    flat[slots[3]] = -1.5
    return x.astype(dtype)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def test_conv_output_size():
    assert F.conv_output_size(28, 5, 1, 2) == 28
    assert F.conv_output_size(28, 2, 2, 0) == 14
    with pytest.raises(ValueError):
        F.conv_output_size(3, 5, 1, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernels_byte_identical_to_reference(case, dtype):
    """im2col and col2im reproduce the gather and ``np.add.at`` bytes."""
    shape, kernel, stride, padding = KERNEL_CASES[case]
    seed = zlib.crc32(case.encode())
    x = _planted(shape, dtype, seed)
    cols, out_h, out_w = F.im2col(x, kernel, stride=stride, padding=padding)
    want, want_h, want_w = im2col_reference(x, kernel, stride, padding)
    assert (out_h, out_w) == (want_h, want_w)
    _assert_same_bytes(cols, want)

    y = _planted(want.shape, dtype, seed + 1)
    _assert_same_bytes(
        F.col2im(y, shape, kernel, stride=stride, padding=padding),
        col2im_reference(y, shape, kernel, stride, padding),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 2)])
def test_maxpool_byte_identical_to_im2col_reference(kernel, stride, dtype):
    """Forward, backward and curvature match the reference-kernel pool.

    Ties go to the first window element, and overlapping windows (3x3,
    stride 2) sum their routed derivatives in the reference's order.
    """
    shape = n, c, h, w = (2, 3, 9, 8)
    x = _planted(shape, dtype, 7)
    flat = x.reshape(n * c, 1, h, w)
    cols, out_h, out_w = im2col_reference(flat, (kernel, kernel), stride)
    argmax = np.argmax(cols, axis=0)
    picked = np.arange(cols.shape[1])
    grad = _planted((n, c, out_h, out_w), dtype, 8)
    curv = np.abs(_planted(grad.shape, dtype, 9))

    def route(values):
        routed = np.zeros_like(cols)
        routed[argmax, picked] = values.reshape(-1)
        back = col2im_reference(routed, flat.shape, (kernel, kernel), stride)
        return back.reshape(shape)

    pool = MaxPool2d(kernel, stride=stride)
    _assert_same_bytes(pool.forward(x), cols[argmax, picked].reshape(grad.shape))
    _assert_same_bytes(pool.backward(grad), route(grad))
    _assert_same_bytes(pool.backward_second(curv), route(curv))


def test_oversized_kernel_raises_value_error(rng):
    """A kernel larger than the padded input is a geometry error."""
    x = np.zeros((2, 1, 3, 3))
    with pytest.raises(ValueError, match="non-positive output size"):
        F.im2col(x, (5, 5))
    with pytest.raises(ValueError, match="non-positive output size"):
        F.col2im(np.zeros((25, 0)), x.shape, (5, 5))
    conv = Conv2d(1, 2, 5, rng=rng.child("conv"), dtype=np.float64)
    with pytest.raises(ValueError, match="non-positive output size"):
        conv.forward(x)
    with pytest.raises(ValueError, match="non-positive output size"):
        MaxPool2d(5).forward(x)
    # One pixel of padding on each side is still one pixel short.
    with pytest.raises(ValueError, match="non-positive output size"):
        F.im2col(x, (6, 6), padding=1)


def test_im2col_matches_naive_convolution(rng):
    """Convolution via im2col equals the direct nested-loop definition."""
    x = rng.child("x").normal(size=(2, 3, 6, 7))
    w = rng.child("w").normal(size=(4, 3, 3, 3))
    stride, padding = 2, 1
    cols, out_h, out_w = F.im2col(x, (3, 3), stride=stride, padding=padding)
    out = (w.reshape(4, -1) @ cols).reshape(4, 2, out_h, out_w).transpose(1, 0, 2, 3)

    xp = F.pad2d(x, padding)
    want = np.zeros_like(out)
    for n in range(2):
        for f in range(4):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[n, :, i * stride : i * stride + 3,
                               j * stride : j * stride + 3]
                    want[n, f, i, j] = (patch * w[f]).sum()
    np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-6)


def test_col2im_is_adjoint_of_im2col(rng):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    x = rng.child("x").normal(size=(2, 2, 5, 5))
    cols, _, _ = F.im2col(x, (3, 3), stride=1, padding=1)
    y = rng.child("y").normal(size=cols.shape)
    lhs = float((cols * y).sum())
    back = F.col2im(y, x.shape, (3, 3), stride=1, padding=1)
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(4, 9),
    w=st.integers(4, 9),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    seed=st.integers(0, 1000),
)
def test_adjoint_property_holds_generally(h, w, k, stride, padding, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(1, 2, h, w))
    cols, _, _ = F.im2col(x, (k, k), stride=stride, padding=padding)
    y = gen.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    back = F.col2im(y, x.shape, (k, k), stride=stride, padding=padding)
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_pad_unpad_roundtrip(rng):
    x = rng.child("x").normal(size=(1, 1, 4, 4))
    np.testing.assert_array_equal(F.unpad2d(F.pad2d(x, 2), 2), x)


def test_softmax_rows_sum_to_one(rng):
    logits = rng.child("l").normal(size=(6, 9)) * 10
    probs = F.softmax(logits, axis=1)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-10)
    assert probs.min() >= 0


def test_log_softmax_consistent_with_softmax(rng):
    logits = rng.child("l").normal(size=(4, 5))
    np.testing.assert_allclose(
        np.exp(F.log_softmax(logits)), F.softmax(logits), rtol=1e-10
    )


def test_softmax_extreme_values_stable():
    logits = np.array([[1e4, 0.0, -1e4]])
    probs = F.softmax(logits)
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(1.0)


def test_one_hot_basics():
    out = F.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )
    with pytest.raises(ValueError, match="range"):
        F.one_hot(np.array([3]), 3)
    with pytest.raises(ValueError, match="1-D"):
        F.one_hot(np.zeros((2, 2), dtype=np.int64), 3)


def test_one_hot_dtype_derivation():
    labels = np.array([0, 1])
    # Default stays float64; `like` derives from the logits; explicit wins.
    assert F.one_hot(labels, 2).dtype == np.float64
    logits32 = np.zeros((2, 2), dtype=np.float32)
    assert F.one_hot(labels, 2, like=logits32).dtype == np.float32
    assert F.one_hot(labels, 2, dtype=np.float16, like=logits32).dtype == np.float16


def test_cross_entropy_backward_preserves_float32():
    """Float32 models must not be upcast through the loss backward path."""
    from repro.nn.losses import CrossEntropyLoss

    logits = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
    targets = np.arange(8) % 4
    loss = CrossEntropyLoss()
    loss(logits, targets)
    grad = loss.backward()
    assert grad.dtype == np.float32
    # Gradient identity (p - y) / N against the float64 reference.
    loss64 = CrossEntropyLoss()
    loss64(logits.astype(np.float64), targets)
    np.testing.assert_allclose(grad, loss64.backward(), atol=1e-7)
