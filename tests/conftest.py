"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.utils.rng import RngStream


@pytest.fixture(scope="session", autouse=True)
def hermetic_cache_dir(tmp_path_factory):
    """Point every on-disk cache at a session-scoped temporary directory.

    Covers the model-zoo artifact cache *and* the selection-plan cache
    (both resolve through ``REPRO_CACHE_DIR``), so CI and local runs
    never read stale artifacts from — or leak artifacts into — the
    user's ``~/.cache/repro``.  Session-scoped: the first test (or
    runner subprocess, which inherits the environment) trains and
    caches the smoke models once, and the rest of the session reuses
    them.
    """
    path = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def rng():
    """A deterministic root RNG stream for tests."""
    return RngStream(seed=1234)


@pytest.fixture
def float64_default():
    """Context: run a test with float64 defaults for finite differences."""
    return np.float64


@pytest.fixture(scope="session")
def trained_lenet():
    """A small LeNet trained on SyntheticDigits (shared across tests).

    Returns ``(model, data, clean_accuracy)``.  Session-scoped because
    training costs a few seconds; tests must not mutate the parameters
    (use weight overrides instead).
    """
    from repro.data import synthetic_digits
    from repro.nn import SGD, TrainConfig, Trainer, cosine_schedule, evaluate_accuracy
    from repro.nn.models import lenet

    root = RngStream(seed=777)
    data = synthetic_digits(n_train=900, n_test=300, rng=root.child("data"))
    model = lenet(root.child("model"), conv_channels=(6, 12), fc_features=(64, 32))
    optimizer = SGD(model.parameters(), lr=0.03, momentum=0.9)
    trainer = Trainer(optimizer, schedule=cosine_schedule(0.03, 8),
                      rng=root.child("train"))
    trainer.fit(model, data.train_x, data.train_y,
                config=TrainConfig(epochs=8, batch_size=64))
    accuracy = evaluate_accuracy(model, data.test_x, data.test_y)
    assert accuracy > 0.9, f"fixture model failed to train: {accuracy}"
    return model, data, accuracy


@pytest.fixture()
def mini_zoo(trained_lenet):
    """A ZooModel-shaped wrapper around the shared test LeNet."""
    model, data, accuracy = trained_lenet
    return SimpleNamespace(
        model=model,
        data=data,
        clean_accuracy=accuracy,
        spec=SimpleNamespace(key="lenet-test", weight_bits=4),
    )
