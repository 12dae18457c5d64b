"""Dataset containers shared by all synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DataSplit", "normalize_images"]


@dataclass(frozen=True)
class DataSplit:
    """Train/test arrays plus task metadata.

    Attributes
    ----------
    train_x, train_y, test_x, test_y:
        NCHW float32 images and int64 labels.
    num_classes:
        Number of classes.
    name:
        Human-readable dataset name.
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int
    name: str

    @property
    def image_shape(self):
        """Per-sample (C, H, W) shape."""
        return self.train_x.shape[1:]

    def __repr__(self):
        return (
            f"DataSplit({self.name}, train={self.train_x.shape[0]}, "
            f"test={self.test_x.shape[0]}, classes={self.num_classes}, "
            f"image={self.image_shape})"
        )


def normalize_images(images):
    """Map [0, 1] images to zero-centred float32 in [-1, 1]."""
    return ((np.asarray(images) - 0.5) / 0.5).astype(np.float32)
