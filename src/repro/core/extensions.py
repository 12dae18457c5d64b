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
"""

from __future__ import annotations

import numpy as np

__all__ = ["variance_map_from_mapping"]


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
