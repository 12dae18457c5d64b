"""Global weight ranking and programming-granularity selection (Alg. 1).

SWIM ranks *all* weights of the network in one global order (sensitivity
descending, magnitude as tie-breaker) and write-verifies them in groups of
``p`` — the programming granularity, 5% of the weights in the paper — until
the accuracy target is met.  :class:`WeightSpace` provides the stable
flat indexing over a model's mapped tensors that makes "global order"
well-defined, and the helpers here turn an order into per-tensor boolean
selection masks consumable by
:meth:`repro.cim.accelerator.CimAccelerator.apply_selection`.
"""

from __future__ import annotations

import numpy as np

from repro.cim.accelerator import weighted_layers

__all__ = ["WeightSpace", "rank_descending", "cumulative_groups"]


class WeightSpace:
    """Stable flat indexing over the mapped weight tensors of a model."""

    def __init__(self, names_and_shapes):
        self._names = [name for name, _ in names_and_shapes]
        self._shapes = {name: tuple(shape) for name, shape in names_and_shapes}
        self._offsets = {}
        offset = 0
        for name in self._names:
            size = int(np.prod(self._shapes[name]))
            self._offsets[name] = (offset, offset + size)
            offset += size
        self.total_size = offset

    @classmethod
    def from_model(cls, model):
        """Build from a model's weighted layers (traversal order)."""
        return cls([(name, layer.weight.shape)
                    for name, layer in weighted_layers(model).items()])

    @property
    def names(self):
        """Tensor names in flat-concatenation order."""
        return list(self._names)

    def locate(self, flat_index):
        """``(name, index into that flattened tensor)`` of a flat index."""
        for name in self._names:
            start, stop = self._offsets[name]
            if start <= flat_index < stop:
                return name, flat_index - start
        raise IndexError(flat_index)

    def flatten(self, tensors):
        """Concatenate ``name -> array`` into one flat vector."""
        parts = []
        for name in self._names:
            arr = np.asarray(tensors[name])
            if arr.shape != self._shapes[name]:
                raise ValueError(
                    f"{name}: shape {arr.shape} != expected {self._shapes[name]}"
                )
            parts.append(arr.reshape(-1))
        return np.concatenate(parts) if parts else np.empty(0)

    def unflatten(self, flat):
        """Split a flat vector back into ``name -> array``.

        Leading axes are preserved: a ``(n_trials, total_size)`` input
        yields ``(n_trials,) + shape`` tensors (trial-batched masks).
        """
        flat = np.asarray(flat)
        if flat.shape[-1:] != (self.total_size,):
            raise ValueError(
                f"flat vector has shape {flat.shape}, expected a trailing "
                f"axis of {self.total_size}"
            )
        lead = flat.shape[:-1]
        out = {}
        for name in self._names:
            start, stop = self._offsets[name]
            out[name] = flat[..., start:stop].reshape(lead + self._shapes[name])
        return out

    def masks_from_indices(self, indices):
        """Boolean per-tensor masks selecting the given flat indices."""
        flat = np.zeros(self.total_size, dtype=bool)
        flat[np.asarray(indices, dtype=np.int64)] = True
        return self.unflatten(flat)

    def masks_from_indices_trials(self, indices_per_trial):
        """Trial-batched masks: one index set per trial.

        Returns ``name -> (n_trials,) + shape`` boolean stacks consumable
        by :meth:`repro.cim.accelerator.CimAccelerator.apply_selection_trials`.
        """
        flat = np.zeros((len(indices_per_trial), self.total_size), dtype=bool)
        for row, indices in enumerate(indices_per_trial):
            flat[row, np.asarray(indices, dtype=np.int64)] = True
        return self.unflatten(flat)

    def gather_from_model(self, model, attribute="data"):
        """Flatten a parameter attribute (data/grad/curvature) of the model."""
        params = dict(model.named_parameters())
        tensors = {
            name: getattr(params[name], attribute) for name in self._names
        }
        return self.flatten(tensors)


def _descending_key(values):
    """Unsigned integers whose ascending order is ``values`` descending.

    Equal floats map to equal keys, -0.0 onto +0.0, and every NaN onto
    the largest key, so the keys order as a sort orders ``-values``.
    Keys of another dtype rank as float64.
    """
    values = np.asarray(values)
    if values.dtype.kind != "f":
        values = values.astype(np.float64)
    uint = np.dtype(f"u{values.itemsize}")
    sign = uint.type(1) << uint.type(8 * values.itemsize - 1)
    bits = np.ascontiguousarray(values).view(uint)
    # A non-negative float's bits grow with it, so ``sign - 1 - bits``
    # falls; a negative float's bits grow with its magnitude, and one
    # less puts -0.0 on +0.0.
    key = np.where(bits < sign, (sign - uint.type(1)) - bits,
                   bits - uint.type(1))
    key[np.isnan(values)] = np.iinfo(uint).max
    return key


def rank_descending(scores, tie_break=None):
    """Indices sorted by score descending; ties broken by ``tie_break`` desc.

    Implements the paper's Sec. 3.2 rule: "when two weights have the same
    second derivative, we use their magnitudes as the tie-breaker: the
    larger one will have a higher priority."

    The order is exactly ``np.lexsort((-tie_break, -scores))`` (without a
    tie-break, ``np.argsort(-scores, kind="stable")``): -0.0 ranks equal
    to +0.0, NaN ranks last in either key, and the lower index comes
    first among weights equal in both keys.  One unstable sort of the
    score keys places every weight; only the runs of equal scores are
    sorted again, by (tie key, index).
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError("scores must be a flat vector")
    if tie_break is not None:
        tie_break = np.asarray(tie_break)
        if tie_break.shape != scores.shape:
            raise ValueError("tie_break must match scores shape")
    primary = _descending_key(scores)
    order = np.argsort(primary)
    ranked = primary[order]
    same = ranked[1:] == ranked[:-1]
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    runs = np.flatnonzero(tied)
    if runs.size:
        index = order[runs]
        keys = (index, ranked[runs])  # np.lexsort: the last key is primary
        if tie_break is not None:
            keys = (index, _descending_key(tie_break[index]), ranked[runs])
        order[runs] = index[np.lexsort(keys)]
    return order


def cumulative_groups(order, granularity, total=None):
    """Yield cumulative index prefixes in steps of ``granularity``.

    Parameters
    ----------
    order:
        Flat weight indices, highest priority first.
    granularity:
        Group size as a fraction of ``total`` (paper: 0.05).
    total:
        Denominator for the fraction (defaults to ``len(order)``).

    Yields
    ------
    numpy.ndarray
        ``order[:k]`` for k = p, 2p, ... (final group may be smaller).
    """
    order = np.asarray(order)
    total = int(total) if total is not None else order.size
    if not 0 < granularity <= 1:
        raise ValueError("granularity must be in (0, 1]")
    step = max(int(round(granularity * total)), 1)
    for stop in range(step, order.size + step, step):
        yield order[: min(stop, order.size)]
        if stop >= order.size:
            break
