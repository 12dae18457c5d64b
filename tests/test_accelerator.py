"""CimAccelerator: the program / verify / select / deploy protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim import DeviceConfig
from repro.cim.accelerator import CimAccelerator, weighted_layers
from repro.cim.mapping import MappingConfig
from repro.nn.models import lenet, mlp


@pytest.fixture
def small_model(rng):
    return mlp(rng.child("model"), (12, 16, 4), activation="relu")


@pytest.fixture
def accelerator(small_model):
    config = MappingConfig(weight_bits=4, device=DeviceConfig(bits=4, sigma=0.1))
    return CimAccelerator(small_model, mapping_config=config)


def _ideal(accelerator):
    """Quantized, noise-free weights per mapped tensor."""
    return {
        name: accelerator.mapper.ideal_weights(mapped)
        for name, mapped in accelerator.map_model().items()
    }


def test_weighted_layer_names_finds_all(rng):
    model = lenet(rng.child("m"))
    layers = weighted_layers(model)
    assert len(layers) == 5  # 2 conv + 3 fc
    assert all(name.endswith(".weight") for name in layers)
    params = dict(model.named_parameters())
    assert all(layer.weight is params[name] for name, layer in layers.items())


def test_protocol_order_enforced(accelerator, rng):
    with pytest.raises(RuntimeError, match="program"):
        accelerator.write_verify_all(rng.child("wv").generator)
    accelerator.program(rng.child("p").generator)
    with pytest.raises(RuntimeError, match="write_verify_all"):
        accelerator.apply_selection({})


def test_apply_none_deploys_raw_noisy_weights(accelerator, small_model, rng):
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    nwc = accelerator.apply_none()
    assert nwc == 0.0
    ideal = _ideal(accelerator)
    for name, layer in accelerator._layers.items():
        deviation = np.abs(layer.weight_override - ideal[name])
        assert deviation.max() > 0  # noise present


def test_apply_all_deploys_verified_weights(accelerator, rng):
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    nwc = accelerator.apply_all()
    assert nwc == 1.0
    ideal = _ideal(accelerator)
    config = accelerator.mapping_config
    tol_codes = accelerator.wv_config.tolerance * config.device.max_level
    max_code_err = tol_codes * config.slice_weights.sum()
    for name, mapped in accelerator._mapped.items():
        layer = accelerator._layers[name]
        err = np.abs(layer.weight_override - ideal[name]) / mapped.scale
        assert err.max() <= max_code_err + 1e-9


def test_partial_selection_nwc_between_zero_and_one(accelerator, rng):
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    masks = {}
    for name, mapped in accelerator._mapped.items():
        mask = np.zeros(mapped.codes.shape, dtype=bool)
        mask.reshape(-1)[:: 2] = True  # half the weights
        masks[name] = mask
    nwc = accelerator.apply_selection(masks)
    assert 0.2 < nwc < 0.8


def test_selection_improves_weight_accuracy(accelerator, rng):
    """Verified weights must sit closer to ideal than raw programmed ones."""
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    ideal = _ideal(accelerator)

    accelerator.apply_none()
    raw_err = sum(
        float(np.square(layer.weight_override - ideal[name]).sum())
        for name, layer in accelerator._layers.items()
    )
    accelerator.apply_all()
    verified_err = sum(
        float(np.square(layer.weight_override - ideal[name]).sum())
        for name, layer in accelerator._layers.items()
    )
    assert verified_err < raw_err * 0.5


def test_clear_restores_float_model(accelerator, small_model, rng):
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    accelerator.apply_all()
    accelerator.clear()
    for layer in accelerator._layers.values():
        assert layer.weight_override is None


def test_weight_cycles_shape_and_sign(accelerator, rng):
    accelerator.program(rng.child("p").generator)
    verified = accelerator.write_verify_all(rng.child("wv").generator)
    cycles = {name: result.cycles.sum(axis=0)
              for name, result in verified.items()}
    for name, mapped in accelerator._mapped.items():
        assert cycles[name].shape == mapped.codes.shape
        assert (cycles[name] >= 0).all()
    assert accelerator.total_cycles() > 0
    assert accelerator.total_cycles() == sum(
        int(c.sum()) for c in cycles.values())


def test_mask_shape_validated(accelerator, small_model, rng):
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    bad = {next(iter(weighted_layers(small_model))): np.ones((1, 1), dtype=bool)}
    with pytest.raises(ValueError, match="mask shape"):
        accelerator.apply_selection(bad)


def test_num_weights_counts_mapped_tensors_only(accelerator, small_model):
    mapped = accelerator.num_weights()
    want = sum(
        p.size for name, p in small_model.named_parameters() if "weight" in name
    )
    assert mapped == want


def test_program_invalidates_previous_verify(accelerator, rng):
    accelerator.program(rng.child("p").generator)
    accelerator.write_verify_all(rng.child("wv").generator)
    accelerator.program(rng.child("p2").generator)
    with pytest.raises(RuntimeError):
        accelerator.apply_all()


def test_model_without_weighted_layers_rejected():
    from repro.nn.layers import ReLU
    from repro.nn.module import Sequential

    with pytest.raises(ValueError, match="no weighted layers"):
        CimAccelerator(Sequential(ReLU()))
