"""Array-level building blocks: im2col/col2im, max-pool, ReLU and
activation quantization kernels, log-softmax, one-hot."""

from __future__ import annotations

import copy
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import _forward_trials
from repro.core.second_derivative import accumulate_second_derivatives
from repro.nn import functional as F
from repro.nn.layers import Conv2d, MaxPool2d, ReLU
from repro.nn.layers.activation import _Activation
from repro.nn.layers.base import WeightedLayer
from repro.nn.models import convnet, lenet, resnet18
from repro.nn.quant import ActQuant
from repro.utils.rng import RngStream


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


class MaxPool2dReference(MaxPool2d):
    """Max pooling as im2col, ``np.argmax`` and a gather; derivatives
    scattered back through the argmax with col2im: the reference for
    ``MaxPool2d`` (on the reference kernels above)."""

    def forward(self, x):
        n, c, h, w = x.shape
        flat = x.reshape(n * c, 1, h, w)
        cols, out_h, out_w = im2col_reference(flat, self.kernel_size, self.stride)
        argmax = np.argmax(cols, axis=0)
        out = cols[argmax, np.arange(cols.shape[1])]
        self._cache = {"x_shape": x.shape, "argmax": argmax,
                       "cols_shape": cols.shape}
        return out.reshape(n, c, out_h, out_w)

    def _scatter(self, values):
        n, c, h, w = self._cache["x_shape"]
        cols = np.zeros(self._cache["cols_shape"], dtype=values.dtype)
        cols[self._cache["argmax"], np.arange(cols.shape[1])] = values.reshape(-1)
        out = col2im_reference(cols, (n * c, 1, h, w), self.kernel_size,
                               self.stride)
        return out.reshape(n, c, h, w)


class ReLUReference(_Activation):
    """ReLU with its mask computed in the forward pass: the reference."""

    def forward(self, x):
        mask = x > 0
        self._cache = {"mask": mask}
        return np.where(mask, x, 0.0)

    def _derivatives(self, cache):
        return cache["mask"].astype(np.float32), None


class ActQuantReference(ActQuant):
    """ActQuant with its STE mask computed in the forward pass: the
    reference."""

    def forward(self, x):
        if self.training:
            peak = float(np.max(np.abs(x), initial=0.0))
            if self.running_peak == 0.0:
                self.running_peak = peak
            else:
                self.running_peak = (
                    (1 - self.momentum) * self.running_peak + self.momentum * peak
                )
        peak = self.running_peak
        if peak <= 0.0:
            self._cache = {"mask": np.ones_like(x, dtype=bool)}
            return x
        qmax = (1 << self.bits) - 1
        scale = peak / qmax
        clipped = np.clip(x, -peak, peak)
        out = np.rint(clipped / scale) * scale
        self._cache = {"mask": np.abs(x) <= peak}
        return out.astype(x.dtype)

    def backward(self, grad_out):
        return grad_out * self._cache["mask"]

    def backward_second(self, curv_out):
        return curv_out * self._cache["mask"]


class Conv2dReference(Conv2d):
    """Conv2d that caches its column matrix and runs the backward
    formulas on it: the reference for the Conv2d that caches its input
    and unfolds it again in each backward pass."""

    def forward(self, x):
        n = x.shape[0]
        cols, out_h, out_w = F.im2col(
            x, self.kernel_size, stride=self.stride, padding=self.padding
        )
        w_mat = self.effective_weight().reshape(self.out_channels, -1)
        out = (w_mat @ cols).reshape(self.out_channels, n, out_h, out_w)
        out = out.transpose(1, 0, 2, 3)
        if self.has_bias:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        self._cache = {"x_shape": x.shape, "cols": cols, "w_mat": w_mat}
        return np.ascontiguousarray(out)

    def _fold_reference(self, cols):
        return F.col2im(cols, self._cache["x_shape"], self.kernel_size,
                        stride=self.stride, padding=self.padding)

    def backward(self, grad_out, input_grad=True):
        cols, w_mat = self._cache["cols"], self._cache["w_mat"]
        g_mat = grad_out.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        grad_w = (g_mat @ cols.T).reshape(self.weight.data.shape)
        self.weight.accumulate_grad(grad_w)
        if self.has_bias:
            self.bias.accumulate_grad(g_mat.sum(axis=1))
        return self._fold_reference(w_mat.T @ g_mat)

    def backward_second(self, curv_out, input_grad=True):
        cols, w_mat = self._cache["cols"], self._cache["w_mat"]
        h_mat = curv_out.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        curv_w = (h_mat @ np.square(cols).T).reshape(self.weight.data.shape)
        self.weight.accumulate_curvature(curv_w)
        if self.has_bias:
            self.bias.accumulate_curvature(h_mat.sum(axis=1))
        return self._fold_reference(np.square(w_mat).T @ h_mat)


def _reference_layer(layer):
    """The reference twin of a max-pool, ReLU or ActQuant layer, else None."""
    if type(layer) is MaxPool2d:
        twin = MaxPool2dReference(layer.kernel_size, stride=layer.stride)
    elif type(layer) is ReLU:
        twin = ReLUReference()
    elif type(layer) is ActQuant:
        twin = ActQuantReference(layer.bits, momentum=layer.momentum)
        twin.running_peak = layer.running_peak
    else:
        return None
    twin.training = layer.training
    return twin


def _with_reference_layers(model):
    """A deep copy of a Sequential model that runs the reference layers."""
    twin = copy.deepcopy(model)
    for index, layer in enumerate(twin):
        reference = _reference_layer(layer)
        if reference is not None:
            twin._layers[index] = reference
            twin._modules[str(index)] = reference
    return twin


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


def _planted(shape, dtype, seed, finite=False):
    """Values over 16 decades with ties, +0.0, -0.0, NaN and +-inf planted.

    The spread of magnitudes makes a sum taken in another order round
    differently, so a byte comparison catches a reordered kernel; the
    ties, signed zeros and NaNs catch a max-pool that routes to another
    window element than ``np.argmax`` does.  ``finite`` leaves out NaN and
    +-inf.
    """
    gen = np.random.default_rng(seed)
    x = gen.normal(size=shape) * 10.0 ** gen.integers(-8, 8, size=shape)
    flat = x.reshape(-1)
    planted = [0.0, -0.0, 1.5, -1.5] + ([] if finite else [np.nan, np.inf, -np.inf])
    slots = np.array_split(gen.permutation(flat.size), len(planted) + 1)
    for slot, value in zip(slots, planted):
        flat[slot] = value
    return x.astype(dtype)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _assert_same_passes(layer, reference, x, seed):
    """Forward, backward and backward_second of both layers match bytes."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = layer.forward(x)
        _assert_same_bytes(out, reference.forward(x))
        grad = _planted(out.shape, out.dtype, seed)
        _assert_same_bytes(layer.backward(grad), reference.backward(grad))
        curv = np.abs(_planted(out.shape, out.dtype, seed + 1))
        _assert_same_bytes(layer.backward_second(curv),
                           reference.backward_second(curv))


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
    # Finite values: where NaNs of both signs meet in a sum, np.add returns
    # either operand's NaN depending on the loop it runs, so the sign of a
    # NaN sum is not the kernels' to pin.
    x = _planted(shape, dtype, seed, finite=True)
    cols, out_h, out_w = F.im2col(x, kernel, stride=stride, padding=padding)
    want, want_h, want_w = im2col_reference(x, kernel, stride, padding)
    assert (out_h, out_w) == (want_h, want_w)
    _assert_same_bytes(cols, want)

    y = _planted(want.shape, dtype, seed + 1, finite=True)
    _assert_same_bytes(
        F.col2im(y, shape, kernel, stride=stride, padding=padding),
        col2im_reference(y, shape, kernel, stride, padding),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "kernel, stride",
    [
        (2, 2),
        (3, 2),  # overlapping windows
        pytest.param(1, 1, id="1x1"),
        pytest.param((2, 3), 2, id="ragged-2x3-s2"),
        pytest.param(2, 3, id="stride-over-kernel"),
    ],
)
def test_maxpool_byte_identical_to_im2col_reference(kernel, stride, dtype):
    """Forward, backward and curvature match the argmax reference pool.

    Ties, +-0.0 and NaN go to the first window element ``np.argmax``
    picks, overlapping windows sum their routed derivatives in the
    reference's order, and pixels no window covers (ragged edges, stride
    over kernel) get +0.0.  The input is (2, 3, 9, 8), so the 2x2, 3x3
    and 2x3 windows stop short of an edge.
    """
    x = _planted((2, 3, 9, 8), dtype, 7)
    _assert_same_passes(MaxPool2d(kernel, stride=stride),
                        MaxPool2dReference(kernel, stride=stride), x, 8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_byte_identical_to_reference(dtype):
    """NaN, -0.0 and -inf map to +0.0; the mask ``out > 0`` is ``x > 0``.

    The transposed input pins the output layout too, and nine -0.0s reach
    a NumPy float64 loop whose ``fmax(-0.0, 0)`` returns -0.0.
    """
    x = _planted((3, 3, 5, 7), dtype, 11)
    _assert_same_passes(ReLU(), ReLUReference(), x, 12)
    _assert_same_passes(ReLU(), ReLUReference(), x.transpose(0, 2, 1, 3), 13)
    _assert_same_passes(ReLU(), ReLUReference(),
                        np.full((1, 1, 3, 3), -0.0, dtype), 14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_actquant_byte_identical_to_reference(dtype):
    """Training, eval and uncalibrated ActQuant match the reference.

    In training mode two forwards move the running peak, and the backward
    passes must use the peak of the second.
    """
    layer, reference = ActQuant(4), ActQuantReference(4)
    x1, x2 = (_planted((4, 3, 6, 5), dtype, seed, finite=True)
              for seed in (21, 22))
    _assert_same_bytes(layer.forward(x1), reference.forward(x1))
    _assert_same_passes(layer, reference, x2, 23)
    assert layer.running_peak == reference.running_peak

    layer.eval()
    reference.eval()
    x = _planted((4, 3, 6, 5), dtype, 24)
    _assert_same_passes(layer, reference, x, 25)
    _assert_same_passes(layer, reference, x.transpose(0, 2, 1, 3), 26)

    # The mask belongs to the forward pass: a later change of the range
    # (the Fig. 1 study zeroes it) does not reach a pending backward.
    layer.forward(x)
    reference.forward(x)
    assert layer.running_peak > 1.5
    layer.running_peak = reference.running_peak = 1.0  # now +-1.5 would clip
    grad = _planted(x.shape, dtype, 28)
    with np.errstate(invalid="ignore"):
        _assert_same_bytes(layer.backward(grad), reference.backward(grad))

    layer.running_peak = reference.running_peak = 0.0
    assert layer.forward(x) is x
    _assert_same_passes(layer, reference, x, 27)


@pytest.mark.parametrize(
    "build, shape",
    [
        pytest.param(lambda rng: lenet(rng, act_bits=4), (24, 1, 28, 28),
                     id="lenet"),
        pytest.param(lambda rng: convnet(rng, width_mult=0.1, act_bits=6),
                     (24, 3, 32, 32), id="convnet"),
    ],
)
def test_models_byte_identical_with_reference_layers(build, shape):
    """Smoke-size LeNet and ConvNet: trial-batched eval logits and the
    curvature pass equal a copy of the model built from the reference
    max-pool, ReLU and ActQuant layers."""
    model = build(RngStream(31).child("model"))
    x = np.random.default_rng(5).random(shape).astype(np.float32)
    y = np.arange(shape[0]) % 10
    model.train()
    model(x)  # calibrate the activation quantizers and batch norms
    model.eval()
    twin = _with_reference_layers(model)
    assert {MaxPool2dReference, ReLUReference, ActQuantReference} <= set(
        map(type, twin))

    curvature = accumulate_second_derivatives(model, x, y, batch_size=12)
    want = accumulate_second_derivatives(twin, x, y, batch_size=12)
    assert curvature.keys() == want.keys()
    for name in want:
        _assert_same_bytes(curvature[name], want[name])

    for layers in (model, twin):
        for layer in layers:
            if isinstance(layer, WeightedLayer):
                w = layer.effective_weight()
                noise = np.random.default_rng(6).normal(0, 0.05, (2,) + w.shape)
                layer.set_weight_override((w + noise).astype(w.dtype))
    _assert_same_bytes(_forward_trials(model, x, 2), _forward_trials(twin, x, 2))


SMOKE_MODELS = [
    pytest.param(lambda rng: lenet(rng, act_bits=4), (16, 1, 28, 28),
                 id="lenet"),
    pytest.param(lambda rng: convnet(rng, width_mult=0.1, act_bits=6),
                 (16, 3, 32, 32), id="convnet"),
    pytest.param(lambda rng: resnet18(rng, width_mult=0.1, act_bits=6),
                 (16, 3, 32, 32), id="resnet18"),
]


def _smoke_model(build, shape, dtype):
    """A smoke-width zoo model in ``dtype``, its batch norms and
    activation quantizers calibrated on one batch, in eval mode."""
    model = build(RngStream(41).child("model"))
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    x = np.random.default_rng(7).random(shape).astype(dtype)
    model.train()
    model(x)
    model.eval()
    return model, x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build, shape", SMOKE_MODELS)
def test_conv_backward_byte_identical_to_cached_columns(build, shape, dtype):
    """Re-unfolding the cached input in each backward pass gives the
    bytes of the cached-column formulas: parameter gradients and
    curvatures of the curvature pass (which skips the input derivative),
    and a training step's input gradient, which ``model.backward``
    returns by default."""
    model, x = _smoke_model(build, shape, dtype)
    twin = copy.deepcopy(model)
    convs = [m for m in twin.modules() if type(m) is Conv2d]
    assert convs
    for conv in convs:
        conv.__class__ = Conv2dReference
    y = np.arange(shape[0]) % 10

    accumulate_second_derivatives(model, x, y, batch_size=8)
    accumulate_second_derivatives(twin, x, y, batch_size=8)
    for got, want in zip(model.parameters(), twin.parameters()):
        _assert_same_bytes(got.grad, want.grad)
        _assert_same_bytes(got.curvature, want.curvature)

    model.train()
    twin.train()
    grad = np.random.default_rng(8).normal(size=(shape[0], 10)).astype(dtype)
    outputs = []
    for layers in (model, twin):
        layers.zero_grad()
        layers(x)
        outputs.append(layers.backward(grad))
    _assert_same_bytes(*outputs)
    for got, want in zip(model.parameters(), twin.parameters()):
        _assert_same_bytes(got.grad, want.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build, shape", SMOKE_MODELS)
def test_forward_multi_byte_identical_to_one_trial_forwards(build, shape,
                                                            dtype):
    """The shared first layer's one ``(T*F, Ckk) @ cols`` matmul gives
    each trial the bytes of its own one-trial forward."""
    model, x = _smoke_model(build, shape, dtype)
    first = model[0]
    w = first.weight.data
    n = shape[0]
    for n_trials in (1, 2, 3):
        noise = np.random.default_rng(n_trials).normal(0, 0.05,
                                                       (n_trials,) + w.shape)
        stack = (w + noise).astype(dtype)
        with model.inference():
            got = first.forward_multi(x, stack)
        for trial in range(n_trials):
            first.set_weight_override(stack[trial])
            _assert_same_bytes(got[trial * n:(trial + 1) * n],
                               first.forward(x))
        first.clear_weight_override()


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
    """The probabilities cross-entropy uses, ``exp(log_softmax)``."""
    logits = rng.child("l").normal(size=(6, 9)) * 10
    probs = np.exp(F.log_softmax(logits, axis=1))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-10)
    assert probs.min() >= 0


def test_log_softmax_consistent_with_softmax(rng):
    logits = rng.child("l").normal(size=(4, 5))
    exp = np.exp(logits)
    np.testing.assert_allclose(
        np.exp(F.log_softmax(logits)),
        exp / exp.sum(axis=-1, keepdims=True),
        rtol=1e-10,
    )


def test_softmax_extreme_values_stable():
    logits = np.array([[1e4, 0.0, -1e4]])
    log_probs = F.log_softmax(logits)
    assert np.all(np.isfinite(log_probs))
    assert np.exp(log_probs[0, 0]) == pytest.approx(1.0)


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
