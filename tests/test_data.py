"""Synthetic datasets: shapes, determinism, learnability signals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    DataSplit,
    render_digit,
    synthetic_cifar,
    synthetic_digits,
    synthetic_tiny_imagenet,
)
from repro.data.cifar import class_recipes
from repro.data.procedural import (
    SHAPES,
    _grid,
    draw_segment,
    gabor_texture,
    shape_mask,
)
from repro.utils.rng import RngStream


def test_digits_shapes_and_ranges(rng):
    data = synthetic_digits(n_train=100, n_test=40, rng=rng.child("d"))
    assert data.train_x.shape == (100, 1, 28, 28)
    assert data.test_x.shape == (40, 1, 28, 28)
    assert data.train_x.dtype == np.float32
    assert data.train_y.min() >= 0 and data.train_y.max() <= 9
    assert -1.01 <= data.train_x.min() and data.train_x.max() <= 1.01


def test_digits_deterministic(rng):
    a = synthetic_digits(n_train=30, n_test=10, rng=RngStream(5).child("d"))
    b = synthetic_digits(n_train=30, n_test=10, rng=RngStream(5).child("d"))
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.train_y, b.train_y)


def test_digits_seed_changes_data():
    a = synthetic_digits(n_train=30, n_test=10, rng=RngStream(5).child("d"))
    b = synthetic_digits(n_train=30, n_test=10, rng=RngStream(6).child("d"))
    assert not np.array_equal(a.train_x, b.train_x)


def test_digits_balanced_classes(rng):
    data = synthetic_digits(n_train=200, n_test=50, rng=rng.child("d"))
    counts = np.bincount(data.train_y, minlength=10)
    assert counts.min() >= 18 and counts.max() <= 22


def test_render_digit_classes_differ(rng):
    one = render_digit(1, rng.child("a"))
    eight = render_digit(8, rng.child("b"))
    # An 8 lights every segment; a 1 only two — mass must differ a lot.
    assert eight.sum() > one.sum() * 1.5


def test_render_digit_validates_input(rng):
    with pytest.raises(ValueError, match="digit"):
        render_digit(10, rng)


def test_cifar_shapes(rng):
    data = synthetic_cifar(n_train=60, n_test=20, rng=rng.child("c"))
    assert data.train_x.shape == (60, 3, 32, 32)
    assert data.num_classes == 10
    assert data.name == "synthetic-cifar"


def test_cifar_recipes_distinct():
    recipes = class_recipes(10)
    assert len({(r["shape"], r["palette"], r["texture_theta"],
                 r["texture_freq"]) for r in recipes}) == 10


def test_tiny_imagenet_shapes(rng):
    data = synthetic_tiny_imagenet(n_train=40, n_test=20, rng=rng.child("t"))
    assert data.train_x.shape == (40, 3, 64, 64)
    assert data.num_classes == 20
    assert data.train_y.max() <= 19


def test_within_class_similarity_exceeds_between(rng):
    """Mean per-pixel distance within a class < between classes (a weak
    but necessary condition for learnability)."""
    data = synthetic_digits(n_train=300, n_test=10, rng=rng.child("d"))
    x = data.train_x.reshape(300, -1)
    y = data.train_y
    centroids = np.stack([x[y == c].mean(axis=0) for c in range(10)])
    within = np.mean([
        np.linalg.norm(x[y == c] - centroids[c], axis=1).mean()
        for c in range(10)
    ])
    between = np.mean([
        np.linalg.norm(centroids[c] - centroids[d])
        for c in range(10) for d in range(10) if c != d
    ])
    assert between > within * 0.5


def test_shape_masks_nonempty_and_distinct():
    masks = {kind: shape_mask(kind, 32, 16, 16, 8) for kind in SHAPES}
    for kind, mask in masks.items():
        assert mask.sum() > 10, kind
    areas = {kind: int(mask.sum()) for kind, mask in masks.items()}
    assert len(set(areas.values())) >= 4  # mostly different footprints


def test_draw_segment_marks_line():
    canvas = np.zeros((16, 16))
    draw_segment(canvas, 2, 8, 13, 8, thickness=2.0)
    assert canvas[8, 2:13].min() > 0.5
    assert canvas[2, 2] == 0.0


def test_coordinate_grid_is_shared_and_read_only():
    """One grid per canvas size, which no primitive call can change."""
    xs, ys = _grid(5)
    assert _grid(5)[0] is xs
    assert not xs.flags.writeable and not ys.flags.writeable
    np.testing.assert_array_equal(xs, np.tile(np.arange(5.0), (5, 1)))
    np.testing.assert_array_equal(ys, xs.T)


def test_gabor_texture_range():
    tex = gabor_texture(32, frequency=0.1, theta=0.5)
    assert tex.min() >= 0.0 and tex.max() <= 1.0
    assert tex.std() > 0.1


def test_data_split_repr_and_image_shape(rng):
    data = synthetic_digits(n_train=10, n_test=5, rng=rng.child("d"))
    assert data.image_shape == (1, 28, 28)
    assert "synthetic-digits" in repr(data)
