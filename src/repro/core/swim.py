"""Algorithm 1 — SWIM's selective write-verify.

:func:`selective_write_verify` is the literal Algorithm 1 for one Monte
Carlo draw: program, rank by sensitivity, write-verify group after group
(granularity ``p``) until the measured accuracy drop is within
``delta_a``.  It is the library form that ``examples/quickstart.py``
runs.  The scenarios deploy fixed top-k budgets through
:func:`repro.experiments.sweeps.run_method_sweep` instead; Algorithm 1
deploys exactly the prefixes of :func:`~repro.core.selection.
cumulative_groups`, so a sweep over those budgets evaluates the same
deployments, and the stopping point can be read off its curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import evaluate_accuracy
from repro.core.selection import WeightSpace, cumulative_groups

__all__ = ["SwimConfig", "SwimResult", "selective_write_verify"]


@dataclass(frozen=True)
class SwimConfig:
    """Knobs of Algorithm 1.

    Attributes
    ----------
    delta_a:
        Maximum acceptable accuracy drop (fractional, e.g. 0.005 = 0.5%).
    granularity:
        Group size ``p`` as a fraction of all weights (paper: 5%).
    eval_batch_size:
        Batch size for the accuracy evaluations of line 7.
    """

    delta_a: float = 0.005
    granularity: float = 0.05
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.delta_a < 0:
            raise ValueError("delta_a must be >= 0")
        if not 0 < self.granularity <= 1:
            raise ValueError("granularity must be in (0, 1]")


@dataclass
class SwimResult:
    """Trace of one Algorithm 1 run.

    Attributes
    ----------
    achieved_accuracy:
        Accuracy of the deployed (partially verified) network.
    achieved_nwc:
        Write cycles spent / cycles to write-verify everything.
    selected_fraction:
        Fraction of weights write-verified when the loop stopped.
    met_target:
        Whether the accuracy-drop target was met.
    accuracy_history, nwc_history:
        Per-group traces (one entry per executed group).
    """

    achieved_accuracy: float
    achieved_nwc: float
    selected_fraction: float
    met_target: bool
    accuracy_history: list = field(default_factory=list)
    nwc_history: list = field(default_factory=list)


def selective_write_verify(
    model,
    accelerator,
    scorer,
    eval_x,
    eval_y,
    baseline_accuracy,
    config=None,
    rng=None,
    sense_x=None,
    sense_y=None,
):
    """Run Algorithm 1 end to end for one Monte Carlo draw.

    Parameters
    ----------
    model:
        The trained network (weights are the desired values W0).
    accelerator:
        A :class:`~repro.cim.CimAccelerator` wrapping ``model``.
    scorer:
        A :class:`~repro.core.sensitivity.SensitivityScorer`.
    eval_x, eval_y:
        Dataset D used for the accuracy checks (paper uses training data).
    baseline_accuracy:
        Accuracy ``A`` of the original network (line 1 input).
    config:
        :class:`SwimConfig`.
    rng:
        :class:`~repro.utils.rng.RngStream` for programming noise and any
        scorer randomness.
    sense_x, sense_y:
        Data for the sensitivity pass (defaults to ``eval_x/eval_y``).

    Returns
    -------
    SwimResult
    """
    if rng is None:
        raise ValueError("selective_write_verify requires an rng")
    config = config if config is not None else SwimConfig()
    space = WeightSpace.from_model(model)
    if sense_x is None:
        sense_x, sense_y = eval_x, eval_y

    # Line 2: program all weights (parallel, no verify cost).
    accelerator.program(rng.child("program").generator)
    accelerator.write_verify_all(rng.child("verify").generator)

    # Line 3-4: sensitivity on the ideal network, then global sort.
    accelerator.clear()
    order = scorer.ranking(model, space, sense_x, sense_y, rng=rng.child("scorer"))

    result = SwimResult(
        achieved_accuracy=0.0,
        achieved_nwc=0.0,
        selected_fraction=0.0,
        met_target=False,
    )

    # NWC = 0 deployment first: maybe nothing needs verification at all.
    nwc = accelerator.apply_none()
    accuracy = evaluate_accuracy(model, eval_x, eval_y, config.eval_batch_size)
    result.accuracy_history.append(accuracy)
    result.nwc_history.append(nwc)
    selected = 0

    if baseline_accuracy - accuracy > config.delta_a:
        # Lines 5-11: grow the verified set group by group.
        for prefix in cumulative_groups(order, config.granularity):
            masks = space.masks_from_indices(prefix)
            nwc = accelerator.apply_selection(masks)
            accuracy = evaluate_accuracy(
                model, eval_x, eval_y, config.eval_batch_size
            )
            selected = prefix.size
            result.accuracy_history.append(accuracy)
            result.nwc_history.append(nwc)
            if baseline_accuracy - accuracy <= config.delta_a:
                break

    result.achieved_accuracy = accuracy
    result.achieved_nwc = nwc
    result.selected_fraction = selected / space.total_size
    result.met_target = baseline_accuracy - accuracy <= config.delta_a
    return result

