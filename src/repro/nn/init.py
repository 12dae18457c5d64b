"""Weight initializers (seeded, deterministic).

All initializers take an :class:`~repro.utils.rng.RngStream` so model
construction is reproducible given a seed.  The fan computations follow the
conventions of He et al. (Kaiming).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "compute_fans",
    "kaiming_normal",
    "kaiming_uniform",
    "zeros",
]


def compute_fans(shape):
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Linear weights are ``(out, in)``; conv weights are
    ``(out_channels, in_channels, kh, kw)``.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    elif len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_normal(shape, rng, gain=np.sqrt(2.0), dtype=np.float32):
    """He-normal init: std = gain / sqrt(fan_in)."""
    fan_in, _ = compute_fans(shape)
    std = gain / np.sqrt(max(fan_in, 1))
    return rng.generator.normal(0.0, std, size=shape).astype(dtype)


def kaiming_uniform(shape, rng, gain=np.sqrt(2.0), dtype=np.float32):
    """He-uniform init: bound = gain * sqrt(3 / fan_in)."""
    fan_in, _ = compute_fans(shape)
    bound = gain * np.sqrt(3.0 / max(fan_in, 1))
    return rng.generator.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape, dtype=np.float32):
    """All-zero tensor (biases, BatchNorm beta)."""
    return np.zeros(shape, dtype=dtype)
