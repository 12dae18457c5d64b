"""Drawing primitives for the synthetic datasets.

The offline environment has no dataset downloads, so MNIST / CIFAR-10 /
Tiny ImageNet are replaced by procedurally generated classification tasks
at the original image sizes.  This module holds
the shared raster primitives: anti-aliased line segments, filled shapes,
Gabor textures, blur, and random affine jitter.

All functions operate on float64 arrays in ``[0, 1]`` and are deterministic
given an :class:`~repro.utils.rng.RngStream`.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import ndimage

__all__ = [
    "blank_canvas",
    "draw_segment",
    "shape_mask",
    "gabor_texture",
    "gaussian_blur",
    "affine_jitter",
    "add_pixel_noise",
    "SHAPES",
]

SHAPES = ("circle", "square", "triangle", "cross", "ring", "stripes")


def blank_canvas(size, channels=None):
    """A zero canvas: ``(size, size)`` or ``(channels, size, size)``."""
    if channels is None:
        return np.zeros((size, size), dtype=np.float64)
    return np.zeros((channels, size, size), dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _grid(size):
    """Pixel coordinates ``(xs, ys)`` of a square canvas.

    Every primitive call needs them, so they are built once per size and
    shared; the arrays are read-only so that no caller can change them
    for the next.
    """
    ys, xs = np.mgrid[0:size, 0:size]
    grids = xs.astype(np.float64), ys.astype(np.float64)
    for grid in grids:
        grid.flags.writeable = False
    return grids


def draw_segment(canvas, x0, y0, x1, y1, thickness=1.5, value=1.0):
    """Draw an anti-aliased line segment onto a 2-D canvas (in place).

    Intensity falls off linearly within one pixel of the stroke boundary,
    giving smooth strokes that survive affine resampling.
    """
    size = canvas.shape[-1]
    xs, ys = _grid(size)
    dx, dy = x1 - x0, y1 - y0
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        dist = np.hypot(xs - x0, ys - y0)
    else:
        t = ((xs - x0) * dx + (ys - y0) * dy) / length_sq
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
    half = thickness / 2.0
    intensity = np.clip(half + 1.0 - dist, 0.0, 1.0)
    np.maximum(canvas, value * intensity, out=canvas)
    return canvas


def shape_mask(kind, size, cx, cy, radius, angle=0.0):
    """Boolean mask of a filled shape.

    Parameters
    ----------
    kind:
        One of :data:`SHAPES`.
    size:
        Canvas side length.
    cx, cy:
        Shape centre in pixels.
    radius:
        Characteristic half-size in pixels.
    angle:
        Rotation in radians (square/triangle/cross/stripes).
    """
    xs, ys = _grid(size)
    # Rotate coordinates about the centre.
    ca, sa = np.cos(-angle), np.sin(-angle)
    rx = ca * (xs - cx) - sa * (ys - cy)
    ry = sa * (xs - cx) + ca * (ys - cy)
    if kind == "circle":
        return rx * rx + ry * ry <= radius * radius
    if kind == "square":
        return (np.abs(rx) <= radius) & (np.abs(ry) <= radius)
    if kind == "triangle":
        # Upward triangle: inside three half-planes.
        h = radius * 1.5
        return (ry <= h / 2) & (ry >= -h / 2 + 1.5 * np.abs(rx))
    if kind == "cross":
        arm = radius / 2.5
        return ((np.abs(rx) <= arm) & (np.abs(ry) <= radius)) | (
            (np.abs(ry) <= arm) & (np.abs(rx) <= radius)
        )
    if kind == "ring":
        rr = rx * rx + ry * ry
        return (rr <= radius * radius) & (rr >= (0.55 * radius) ** 2)
    if kind == "stripes":
        band = np.abs(np.mod(rx, radius) - radius / 2.0) <= radius / 4.0
        inside = (np.abs(rx) <= 2 * radius) & (np.abs(ry) <= 2 * radius)
        return band & inside
    raise ValueError(f"unknown shape kind {kind!r}")


def gabor_texture(size, frequency, theta, phase=0.0):
    """Oriented sinusoidal texture in ``[0, 1]``."""
    xs, ys = _grid(size)
    wave = np.cos(
        2.0 * np.pi * frequency * (xs * np.cos(theta) + ys * np.sin(theta)) + phase
    )
    return 0.5 * (wave + 1.0)


def gaussian_blur(image, sigma):
    """Gaussian blur; channel-wise for (C, H, W) inputs."""
    if sigma <= 0:
        return image
    if image.ndim == 2:
        return ndimage.gaussian_filter(image, sigma)
    return np.stack([ndimage.gaussian_filter(ch, sigma) for ch in image])


def affine_jitter(image, rng, max_rotate=0.15, max_shift=2.0, scale_range=(0.9, 1.1)):
    """Random rotation + isotropic scale + shift, resampled bilinearly.

    Works on 2-D or (C, H, W) images; the same transform is applied to all
    channels.
    """
    angle = rng.uniform(-max_rotate, max_rotate)
    scale = rng.uniform(*scale_range)
    shift_x = rng.uniform(-max_shift, max_shift)
    shift_y = rng.uniform(-max_shift, max_shift)
    size = image.shape[-1]
    centre = (size - 1) / 2.0
    ca, sa = np.cos(angle), np.sin(angle)
    # Inverse map: output pixel -> input pixel.
    matrix = np.array([[ca, -sa], [sa, ca]]) / scale
    offset = (
        np.array([centre - shift_y, centre - shift_x])
        - matrix @ np.array([centre, centre])
    )

    def transform(channel):
        return ndimage.affine_transform(
            channel, matrix, offset=offset, order=1, mode="constant", cval=0.0
        )

    if image.ndim == 2:
        return transform(image)
    return np.stack([transform(ch) for ch in image])


def add_pixel_noise(image, rng, sigma):
    """Additive Gaussian pixel noise, clipped back to [0, 1]."""
    if sigma <= 0:
        return image
    noisy = image + rng.normal(0.0, sigma, size=image.shape)
    return np.clip(noisy, 0.0, 1.0)
