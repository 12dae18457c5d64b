"""Extensions of SWIM's sensitivity analysis beyond the paper's setting.

Eq. 5 of the paper is more general than the experiments use it:

    E[delta_f] ~= 0.5 * sum_i H_ii * E[dw_i^2]

The paper's device model makes ``E[dw_i^2]`` identical for every weight,
so ranking by ``H_ii`` alone is optimal.  Real platforms are messier —
different layers may sit on different arrays (different sigma), devices
age, bit-slice counts differ per layer.  The ``hetero_swim`` method ranks
by the full product ``H_ii * var_i``, which reduces exactly to SWIM when
the variance map is constant; :class:`~repro.plan.PlanEngine` resolves
it, pairing its cached curvature with the per-tensor Eq. 16 variance of
:func:`variance_map_from_mapping` or, for a technology, the stack's
:meth:`~repro.cim.devices.NonidealityStack.variance_map`.

``expected_loss_increase`` exposes the Eq. 5 estimate itself, which the
tests validate against Monte Carlo measurements of the true loss — a
quantitative check of the paper's central approximation (the independence
assumption that drops the Hessian cross terms).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expected_loss_increase",
    "variance_map_from_mapping",
]


def expected_loss_increase(curvature_flat, variance_flat):
    """Eq. 5: predicted mean loss increase under independent perturbation.

    Parameters
    ----------
    curvature_flat:
        Diagonal second derivatives, flat over the weight space.
    variance_flat:
        Per-weight perturbation variance ``E[dw_i^2]`` (scalar broadcasts).

    Returns
    -------
    float
        ``0.5 * sum_i H_ii * var_i``.
    """
    curvature = np.asarray(curvature_flat, dtype=np.float64)
    variance = np.broadcast_to(
        np.asarray(variance_flat, dtype=np.float64), curvature.shape
    )
    return float(0.5 * (curvature * variance).sum())


def variance_map_from_mapping(space, model, mapping_config):
    """Per-weight Eq. 16 noise variance in *weight units* for each tensor.

    Different tensors have different quantization scales, so the same
    device noise means different weight-space variance per layer — the
    simplest realistic source of heterogeneity.
    """
    from repro.cim.mapping import WeightMapper

    mapper = WeightMapper(mapping_config)
    params = dict(model.named_parameters())
    code_std = mapping_config.code_noise_std()
    variances = {}
    for name in space.names:
        _, scale = mapper.quantize(params[name].data)
        std_w = code_std * scale
        variances[name] = np.full(space.shape_of(name), std_w ** 2)
    return space.flatten(variances)
