"""Module infrastructure: traversal, modes, state dicts with buffers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d, Linear, ReLU, Sequential
from repro.nn import layers as L
from repro.nn.models import convnet, lenet, resnet18
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.quant import ActQuant


def test_parameter_registration(rng):
    layer = Linear(3, 2, rng=rng.child("l"))
    names = [name for name, _ in layer.named_parameters()]
    assert names == ["weight", "bias"]


def test_nested_names(rng):
    model = Sequential(
        Linear(3, 4, rng=rng.child("a")), ReLU(), Linear(4, 2, rng=rng.child("b"))
    )
    names = [name for name, _ in model.named_parameters()]
    assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]


def test_named_modules_paths(rng):
    model = Sequential(Linear(3, 4, rng=rng.child("a")), ReLU())
    paths = [name for name, _ in model.named_modules()]
    assert paths == ["", "0", "1"]


def test_train_eval_recursive(rng):
    model = Sequential(Conv2d(1, 2, 3, rng=rng.child("c")), BatchNorm2d(2))
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_num_parameters_counts(rng):
    model = Sequential(Linear(3, 4, rng=rng.child("a")))
    assert model.num_parameters() == 3 * 4 + 4


def test_state_dict_roundtrip_with_buffers(rng):
    bn = BatchNorm2d(3)
    aq = ActQuant(bits=4)
    model = Sequential(Conv2d(2, 3, 3, rng=rng.child("c")), bn, ReLU(), aq)
    model.train()
    x = rng.child("x").normal(size=(4, 2, 5, 5)).astype(np.float32)
    model(x)  # populate running stats and quantizer peak
    state = model.state_dict()
    assert any(key.startswith("buffer::") for key in state)

    clone = Sequential(
        Conv2d(2, 3, 3, rng=rng.child("c2")), BatchNorm2d(3), ReLU(),
        ActQuant(bits=4),
    )
    clone.load_state_dict(state)
    np.testing.assert_allclose(clone[1].running_mean, bn.running_mean)
    np.testing.assert_allclose(clone[1].running_var, bn.running_var)
    assert clone[3].running_peak == pytest.approx(aq.running_peak)
    for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_state_dict_mismatch_raises(rng):
    model = Sequential(Linear(3, 2, rng=rng.child("l")))
    state = model.state_dict()
    del state["0.bias"]
    with pytest.raises(KeyError, match="missing"):
        model.load_state_dict(state)
    state = model.state_dict()
    state["extra"] = np.zeros(1)
    with pytest.raises(KeyError, match="unexpected"):
        model.load_state_dict(state)


def test_eval_reproducibility_after_reload(rng):
    """A trained-ish model reloaded from its state dict computes the same
    outputs — the property the model-zoo cache depends on."""
    from repro.utils.rng import RngStream

    model = lenet(RngStream(3).child("m"), conv_channels=(3, 6),
                  fc_features=(24, 16), act_bits=4)
    model.train()
    x = rng.child("x").normal(size=(8, 1, 28, 28)).astype(np.float32)
    model(x)
    model.eval()
    want = model(x)

    clone = lenet(RngStream(4).child("m"), conv_channels=(3, 6),
                  fc_features=(24, 16), act_bits=4)
    clone.load_state_dict(model.state_dict())
    clone.eval()
    np.testing.assert_allclose(clone(x), want, atol=1e-6)


def test_zero_grad_and_curvature(rng):
    model = Sequential(Linear(3, 2, rng=rng.child("l")))
    param = model[0].weight
    param.accumulate_grad(np.ones_like(param.data))
    param.accumulate_curvature(np.ones_like(param.data))
    model.zero_grad()
    model.zero_curvature()
    np.testing.assert_array_equal(param.grad, 0)
    np.testing.assert_array_equal(param.curvature, 0)


def test_register_module_type_checked():
    class Holder(Module):
        pass

    holder = Holder()
    with pytest.raises(TypeError, match="Module"):
        holder.register_module("x", object())


def test_register_buffer_requires_existing_attribute():
    class Holder(Module):
        pass

    holder = Holder()
    with pytest.raises(AttributeError):
        holder.register_buffer_name("nope")


def test_resnet_parameter_count_scales_with_width(rng):
    small = resnet18(rng.child("s"), width_mult=0.125)
    big = resnet18(rng.child("b"), width_mult=0.25)
    assert big.num_parameters() > small.num_parameters() * 2


def test_parameter_copy_shape_checked():
    param = Parameter(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        param.copy_(np.zeros((3, 2)))


# name -> (factory(rng), input shape): every layer in repro.nn.layers, the
# activation quantizer and the three zoo architectures at small sizes.
PASS_CASES = {
    "BatchNorm2d": (lambda rng: L.BatchNorm2d(3), (2, 3, 4, 4)),
    "Conv2d": (lambda rng: L.Conv2d(3, 4, 3, padding=1, rng=rng), (2, 3, 5, 5)),
    "Flatten": (lambda rng: L.Flatten(), (2, 3, 2, 2)),
    "GlobalAvgPool2d": (lambda rng: L.GlobalAvgPool2d(), (2, 3, 4, 4)),
    "Identity": (lambda rng: L.Identity(), (4, 5)),
    "Linear": (lambda rng: L.Linear(5, 3, rng=rng), (4, 5)),
    "MaxPool2d": (lambda rng: L.MaxPool2d(3, stride=2), (2, 3, 7, 7)),
    "ReLU": (lambda rng: L.ReLU(), (4, 5)),
    "Sigmoid": (lambda rng: L.Sigmoid(), (4, 5)),
    "Tanh": (lambda rng: L.Tanh(), (4, 5)),
    "ActQuant": (lambda rng: ActQuant(4), (4, 5)),
    "lenet": (lambda rng: lenet(rng, act_bits=4), (2, 1, 28, 28)),
    "convnet": (lambda rng: convnet(rng, width_mult=0.1, act_bits=6),
                (2, 3, 32, 32)),
    "resnet18": (lambda rng: resnet18(rng, width_mult=0.1, act_bits=6),
                 (2, 3, 32, 32)),
}


def test_pass_cases_cover_every_layer():
    assert set(L.__all__) - {"WeightedLayer"} <= set(PASS_CASES)


def _frozen(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_passes_leave_their_argument_unchanged(case, mode, rng):
    """forward, backward and backward_second never write into their argument.

    Forward caches hold references to layer inputs, so a write would
    corrupt the backward of the layer that produced the array (the rule
    in ``repro.nn.module``).  The arguments are read-only, so a write
    raises, and their bytes must not move.
    """
    factory, shape = PASS_CASES[case]
    layer = factory(rng.child(case))
    gen = np.random.default_rng(0)
    x = gen.normal(size=shape).astype(np.float32)
    layer.train()
    layer.forward(x.copy())  # calibrate quantizer ranges and norm statistics
    layer.train(mode == "train")

    x = _frozen(x)
    want = x.tobytes()
    out = layer.forward(x)
    assert x.tobytes() == want
    grad = _frozen(gen.normal(size=out.shape).astype(np.float32))
    want = grad.tobytes()
    layer.backward(grad)
    assert grad.tobytes() == want
    curv = _frozen(np.abs(gen.normal(size=out.shape)).astype(np.float32))
    want = curv.tobytes()
    layer.backward_second(curv)
    assert curv.tobytes() == want


@pytest.mark.parametrize("case", sorted(set(PASS_CASES) - {"Identity"}))
def test_backward_after_an_inference_forward_raises(case, rng):
    """A forward under ``inference()`` caches nothing, and drops what an
    earlier forward cached, so neither backward pass can run after it
    (Identity has no cache: its passes read nothing)."""
    factory, shape = PASS_CASES[case]
    layer = factory(rng.child(case))
    x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    out = layer.forward(x)
    with layer.inference():
        assert layer.forward(x).tobytes() == out.tobytes()
    assert all(module._cache is None for module in layer.modules())
    for name in ("backward", "backward_second"):
        with pytest.raises(RuntimeError, match="inference"):
            getattr(layer, name)(np.ones_like(out))


def test_inference_nests_and_restores(rng):
    model = lenet(rng.child("m"), conv_channels=(2, 3), fc_features=(8, 6))
    with model.inference():
        with model[0].inference():
            assert all(module._inference for module in model.modules())
        assert all(module._inference for module in model.modules())
        with pytest.raises(KeyError):
            with model.inference():
                raise KeyError("restored on the way out")
        assert all(module._inference for module in model.modules())
    assert not any(module._inference for module in model.modules())


@pytest.mark.parametrize("case", ["Linear", "Conv2d"])
def test_trial_batched_forward_needs_inference(case, rng):
    factory, shape = PASS_CASES[case]
    layer = factory(rng.child(case))
    w = layer.weight.data
    layer.set_weight_override(np.stack([w, 2 * w]))
    x = np.random.default_rng(1).normal(size=(2 * shape[0],) + shape[1:])
    x = x.astype(np.float32)
    with pytest.raises(RuntimeError, match="inference"):
        layer.forward(x)
    with layer.inference():
        layer.forward(x)
    if case == "Conv2d":
        with pytest.raises(RuntimeError, match="inference"):
            layer.forward_multi(x[: shape[0]], layer.weight_override)


@pytest.mark.parametrize("case", ["Conv2d", "Linear", "BatchNorm2d",
                                  "lenet", "convnet", "resnet18"])
def test_skipping_the_input_derivative_keeps_parameter_derivatives(case, rng):
    """``input_grad=False`` returns None and accumulates the bytes of
    the default passes, which return the input derivatives."""
    factory, shape = PASS_CASES[case]
    layer = factory(rng.child(case))
    gen = np.random.default_rng(2)
    x = gen.normal(size=shape).astype(np.float32)
    layer.train()
    grads = []
    for input_grad in (True, False):
        layer.zero_grad()
        layer.zero_curvature()
        out = layer.forward(x)
        grad = np.random.default_rng(3).normal(size=out.shape)
        grad = grad.astype(np.float32)
        returned = [layer.backward(grad, input_grad),
                    layer.backward_second(np.abs(grad), input_grad)]
        assert all((r is None) == (not input_grad) for r in returned)
        grads.append([(p.grad.tobytes(), p.curvature.tobytes())
                      for p in layer.parameters()])
    assert grads[0] == grads[1]
