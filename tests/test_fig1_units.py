"""Unit-level pieces of the Fig. 1 study (the full run is a bench)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selection import WeightSpace
from repro.experiments import fig1
from repro.experiments.fig1 import _sample_entries
from repro.nn.models import mlp
from repro.utils.rng import RngStream


@pytest.fixture
def space(rng):
    # Deliberately imbalanced tensors: (4->100) dwarfs (100->3).
    model = mlp(rng.child("m"), (4, 100, 3))
    return WeightSpace.from_model(model)


def test_sampling_is_stratified_across_tensors(space):
    indices = _sample_entries(space, 20, RngStream(1).child("s"))
    # Tensor boundaries.
    first_size = int(np.prod(space.shape_of(space.names[0])))
    in_first = int((indices < first_size).sum())
    in_second = int((indices >= first_size).sum())
    # Uniform sampling would put ~10% in the second tensor; stratified
    # sampling gives both tensors comparable representation.
    assert in_first >= 5
    assert in_second >= 5


def test_sampling_respects_budget_and_uniqueness(space):
    indices = _sample_entries(space, 10, RngStream(2).child("s"))
    assert indices.size <= 10
    assert len(np.unique(indices)) == indices.size
    assert indices.max() < space.total_size


def test_sampling_deterministic(space):
    a = _sample_entries(space, 16, RngStream(3).child("s"))
    b = _sample_entries(space, 16, RngStream(3).child("s"))
    np.testing.assert_array_equal(a, b)


def test_config_defaults_match_paper_setting():
    assert fig1.SIGMA == 0.1  # the paper's typical device sigma
    assert fig1.DEVICE_BITS == 4  # K = 4 (Sec. 4.1)
