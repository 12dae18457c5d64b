"""Procedural synthetic datasets (offline stand-ins for the paper's data)."""

from repro.data.cifar import class_recipes, render_class_sample, synthetic_cifar
from repro.data.dataset import DataSplit, normalize_images
from repro.data.digits import (
    DIGIT_SEGMENTS,
    DigitDifficulty,
    SEGMENTS,
    render_digit,
    synthetic_digits,
)
from repro.data.tinyimagenet import synthetic_tiny_imagenet, tiny_class_recipes

__all__ = [
    "DIGIT_SEGMENTS",
    "DataSplit",
    "DigitDifficulty",
    "SEGMENTS",
    "class_recipes",
    "normalize_images",
    "render_class_sample",
    "render_digit",
    "synthetic_cifar",
    "synthetic_digits",
    "synthetic_tiny_imagenet",
    "tiny_class_recipes",
]
