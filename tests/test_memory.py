"""Layer caches hold only what backward reads, only until it runs.

``tracemalloc`` counts NumPy's array buffers, so a pass's traced peak is
the memory its arrays take.  The bounds are derived from the smoke
ConvNet's sizes, not tuned: an evaluation forward holds one layer's
column matrix beside a few activations, and a curvature batch holds
every activation (each layer caches at most an activation-sized array)
plus one column matrix, re-unfolded by the convolution whose backward is
running.  Six activation-sized temporaries are allowed beside either.
A model that kept each convolution's columns until its next forward, as
this one once did, peaked at 250 MB in that evaluation (bound 122 MB)
and at 301 MB in that curvature batch (bound 193 MB).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
from repro.core import InSituConfig, InSituTrainer
from repro.core.second_derivative import (
    accumulate_second_derivatives,
    compute_gradients,
)
from repro.nn import SGD, TrainConfig, Trainer, evaluate_accuracy
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.nn.models import convnet, lenet
from repro.utils.rng import RngStream

#: Activation-sized temporaries a pass may hold beside its bound.
TEMPORARIES = 6


@pytest.fixture(scope="module")
def smoke_convnet():
    """The smoke ConvNet (width 0.1, 6-bit activations), calibrated, in
    eval mode, with 160 CIFAR-sized images and labels."""
    model = convnet(RngStream(51).child("model"), width_mult=0.1, act_bits=6)
    gen = np.random.default_rng(52)
    x = gen.random((160, 3, 32, 32)).astype(np.float32)
    y = gen.integers(0, 10, size=160)
    model.train()
    model(x[:16])
    model.eval()
    return model, x, y


def _sizes(model, x):
    """``(activations, columns)``: the bytes of the input and of every
    layer's output, and of every convolution's column matrix, on ``x``."""
    activations, columns = [x.nbytes], []
    out = x
    with model.inference():
        for layer in model:
            if isinstance(layer, Conv2d):
                n, c, h, w = out.shape
                kh, kw = layer.kernel_size
                oh = F.conv_output_size(h, kh, layer.stride, layer.padding)
                ow = F.conv_output_size(w, kw, layer.stride, layer.padding)
                columns.append(c * kh * kw * n * oh * ow * out.itemsize)
            out = layer(out)
            activations.append(out.nbytes)
    return activations, columns


def _traced_peak(run):
    """Traced peak bytes of ``run()`` above what was live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def _cached(model):
    """The modules that hold a forward cache."""
    return [module for module in model.modules() if module._cache is not None]


def test_evaluation_forward_holds_one_column_matrix(smoke_convnet):
    model, x, y = smoke_convnet
    activations, columns = _sizes(model, x)
    bound = max(columns) + TEMPORARIES * max(activations)
    peak = _traced_peak(lambda: evaluate_accuracy(model, x, y))
    assert peak < bound, (peak / 2**20, bound / 2**20)
    assert not _cached(model)


def test_curvature_batch_holds_activations_and_one_column_matrix(
        smoke_convnet):
    model, x, y = smoke_convnet
    xb, yb = x[:128], y[:128]
    activations, columns = _sizes(model, xb)
    bound = sum(activations) + max(columns) + TEMPORARIES * max(activations)
    peak = _traced_peak(lambda: accumulate_second_derivatives(
        model, xb, yb, batch_size=128, max_batches=1))
    assert peak < bound, (peak / 2**20, bound / 2**20)
    assert not _cached(model)


def test_no_cache_left_after_the_backward_callers():
    """Training, the gradient and curvature passes and in-situ training
    each run backward passes, and each frees every cache on return.
    Each ends on a backward here: an evaluation forward would free the
    caches by itself."""
    root = RngStream(53)
    model = lenet(root.child("model"), conv_channels=(3, 6),
                  fc_features=(24, 16), act_bits=4)
    gen = np.random.default_rng(54)
    x = gen.random((48, 1, 28, 28)).astype(np.float32)
    y = gen.integers(0, 10, size=48)

    Trainer(SGD(model.parameters(), lr=0.01), rng=root.child("train")).fit(
        model, x, y, config=TrainConfig(epochs=1, batch_size=16,
                                        weight_bits=4),
    )
    assert not _cached(model)
    accumulate_second_derivatives(model, x, y, batch_size=16)
    assert not _cached(model)
    compute_gradients(model, x[:16], y[:16])
    assert not _cached(model)

    mapping = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4,
                                                               sigma=0.1))
    accelerator = CimAccelerator(model, mapping_config=mapping)
    trainer = InSituTrainer(model, accelerator, InSituConfig(batch_size=16))
    trainer.initialize(root.child("init"))
    history = trainer.run(x, y, 2, root.child("run"), eval_x=x[:16],
                          eval_y=y[:16], eval_at=[1])
    assert history.iterations == [1]
    assert not _cached(model)
    accelerator.clear()
