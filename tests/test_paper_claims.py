"""The paper's qualitative claims, asserted on the scenarios' own outputs.

SWIM's results are directional: at a low write budget SWIM beats
Magnitude and Random (Table 1); at NWC = 1 every write-verify method
verifies every weight, so they meet; in-situ training needs far more
write cycles than SWIM to recover; curvature predicts a weight's
sensitivity better than its magnitude (Fig. 1).  Each test checks one
such claim on the grid the runner itself computes.

The grids are pinned to the smoke preset and the scenarios' default
seeds whatever ``REPRO_SCALE`` says, so they are the grids
``test_runner_smoke.py`` asks the runner for: the eval-tile cache under
the test session's ``REPRO_CACHE_DIR`` computes each of them once.

Every Monte Carlo trial deploys all methods on the same programming
draw, so the per-trial difference between two methods isolates the
selection.  Paired claims use a one-sided exact sign test on those
differences (ties dropped, ``ALPHA`` = 0.05), pooled over Table 1's
three sigmas; with two trials per cell, the scenario claims hold on
every trial instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.ablations import (
    EVAL_SAMPLES,
    SENSE_SAMPLES,
    ablation_cells,
    run_ablations,
)
from repro.experiments.config import get_scale
from repro.experiments.fig1 import Fig1Config, run_fig1
from repro.experiments.model_zoo import load_workload
from repro.experiments.retention import run_retention
from repro.experiments.spatial import run_spatial
from repro.experiments.sweeps import WRITE_VERIFY_METHODS
from repro.experiments.table1 import run_table1
from repro.plan import ScenarioOrchestrator
from repro.utils.rng import RngStream

SMOKE = get_scale("smoke")
ALPHA = 0.05
ONE_MONTH = SMOKE.retention_times[-1]


def sign_test(differences):
    """One-sided exact sign test that ``differences`` are positive.

    Returns ``(wins, losses, p)``; ties are dropped and ``p`` is
    P(X >= wins) for X ~ Binomial(wins + losses, 1/2).
    """
    differences = np.asarray(differences)
    wins = int((differences > 0).sum())
    losses = int((differences < 0).sum())
    n = wins + losses
    p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n
    return wins, losses, p


def test_sign_test_counts_and_p():
    assert sign_test([0.1, 0.2, 0.0, 0.3, 0.1, 0.2]) == (5, 0, 1 / 32)
    assert sign_test([1, 1, -1]) == (2, 1, 0.5)
    assert sign_test([0.0, 0.0]) == (0, 0, 1.0)


def _column(outcome, method, nwc):
    """Per-trial accuracies of one method at one NWC target."""
    curve = outcome.curve(method)
    return curve.accuracy_runs[:, curve.nwc_targets.index(nwc)]


def _pooled(result, method, nwc):
    """One method's per-trial accuracies at ``nwc``, pooled over sigmas."""
    return np.concatenate([
        _column(result.outcomes[sigma], method, nwc)
        for sigma in sorted(result.outcomes)
    ])


@pytest.fixture(scope="module")
def table1():
    return run_table1(SMOKE)


@pytest.mark.parametrize("rival", ["magnitude", "random"])
def test_table1_swim_beats_rival_at_low_nwc(table1, rival):
    """Table 1: SWIM beats Magnitude and Random at NWC = 0.1."""
    wins, losses, p = sign_test(
        _pooled(table1, "swim", 0.1) - _pooled(table1, rival, 0.1)
    )
    assert p <= ALPHA, (
        f"SWIM - {rival} at NWC=0.1: {wins} wins, {losses} losses, p={p:.3g}"
    )


def test_table1_methods_meet_at_full_verify(table1):
    """At NWC = 1 every write-verify method deploys the same verified
    weights, so their per-trial accuracies are identical; verifying
    everything never hurts SWIM's mean."""
    for sigma, outcome in table1.outcomes.items():
        swim = _column(outcome, "swim", 1.0)
        for method in WRITE_VERIFY_METHODS:
            np.testing.assert_array_equal(
                _column(outcome, method, 1.0), swim,
                err_msg=f"sigma={sigma}: {method} != swim at NWC=1",
            )
        means = outcome.curve("swim").means()
        assert means[-1] >= means[0] - 0.01, f"sigma={sigma}: {means}"


def test_insitu_at_nwc_one_trails_swim_at_a_tenth(table1):
    """Sec. 4.3: in-situ training spends ten times SWIM's write cycles
    (its NWC = 1 column) and still does not reach SWIM at NWC = 0.1."""
    wins, losses, p = sign_test(
        _pooled(table1, "swim", 0.1) - _pooled(table1, "insitu", 1.0)
    )
    assert p <= ALPHA, (
        f"SWIM@0.1 - in-situ@1: {wins} wins, {losses} losses, p={p:.3g}"
    )


@pytest.fixture(scope="module")
def lenet_zoo():
    """The smoke LeNet that ``runner fig1`` and ``runner ablations`` load."""
    return load_workload(SMOKE.workload("lenet-digits"))


@pytest.fixture(scope="module")
def fig1(lenet_zoo):
    config = Fig1Config(
        n_weights=SMOKE.fig1_weights,
        mc_runs=SMOKE.fig1_mc_runs,
        eval_samples=SMOKE.fig1_eval_samples,
    )
    return run_fig1(lenet_zoo, config, RngStream(101).child("fig1"))


def test_fig1_curvature_predicts_loss_better_than_magnitude(fig1):
    """Fig. 1: the second derivative tracks the loss increase a
    perturbation causes; the weight magnitude does not."""
    assert fig1.pearson_curvature_loss > 0.2
    assert fig1.pearson_curvature_loss > fig1.pearson_magnitude_loss + 0.1
    # Accuracy drops are a coarse discretization of the loss increase;
    # compare them only when the perturbations moved accuracy at all.
    if fig1.accuracy_drops.std() > 0:
        assert fig1.pearson_curvature_acc >= fig1.pearson_magnitude_acc - 0.1


@pytest.fixture(scope="module")
def retention():
    return run_retention(SMOKE)


def test_retention_drift_erodes_full_verify(retention):
    """Write-verify certifies precision at t0 only: a month of raw PCM
    drift drops the fully verified network on every trial."""
    at_t0 = _column(retention.outcomes[("pcm", 1.0)], "swim", 1.0)
    later = _column(retention.outcomes[("pcm", ONE_MONTH)], "swim", 1.0)
    assert np.all(later < at_t0), (later, at_t0)


def test_retention_swim_ages_with_full_verify(retention):
    """Behind drift compensation, SWIM at NWC = 0.1 stays within 0.10 of
    full verify after a month on every trial: selective verify does not
    age disproportionately."""
    outcome = retention.outcomes[("pcm-comp", ONE_MONTH)]
    swim = _column(outcome, "swim", 0.1)
    full = _column(outcome, "swim", 1.0)
    assert np.all(swim >= full - 0.10), (swim, full)


@pytest.fixture(scope="module")
def spatial():
    return run_spatial(SMOKE)


def test_spatial_correlation_lowers_the_unverified_floor(spatial):
    """Sec. 2.1: a correlated error field fails devices in clusters, so
    the unverified network is worse than under i.i.d. noise of the same
    marginal sigma on every paired trial; its trial-to-trial spread is
    no smaller than the i.i.d. spread, within 0.01."""
    iid = _column(spatial.outcomes[0.0], "swim", 0.0)
    clustered = _column(spatial.outcomes[8.0], "swim", 0.0)
    assert np.all(clustered < iid), (clustered, iid)
    assert clustered.std() >= iid.std() - 0.01
    assert 0.05 <= clustered.mean() <= 1.0 and 0.05 <= iid.mean() <= 1.0


@pytest.fixture(scope="module")
def ablations(lenet_zoo):
    """The studies ``runner ablations --scale smoke`` computes."""
    studies, _ = run_ablations(lenet_zoo)
    return studies


def _metric(rows, name):
    return {row.label: row.metrics[name] for row in rows}


def test_ablation_finer_granularity_stops_earlier(ablations):
    """Algorithm 1: a finer group size p stops at no larger selected
    fraction, at the price of more accuracy evaluations."""
    selected = _metric(ablations["granularity"], "selected_fraction")
    evaluations = _metric(ablations["granularity"], "evaluations")
    assert selected["p=0.01"] <= selected["p=0.25"] + 1e-9, selected
    assert evaluations["p=0.01"] >= evaluations["p=0.25"], evaluations


def test_ablation_device_bits_keep_relative_noise_near_sigma(ablations):
    """Eq. 16: the MSB slice dominates, keeping relative noise ~ sigma
    for every bits-per-device K."""
    for row in ablations["device_bits"]:
        assert 0.05 <= row.metrics["relative_noise_std"] <= 0.2, row


def test_ablation_curvature_ranking_stabilizes(ablations):
    """More data in the curvature pass moves the ranking toward the
    full-data reference, and all eight batches are that reference."""
    rhos = list(_metric(ablations["curvature_batches"],
                        "spearman_vs_full").values())
    assert np.all(np.diff(rhos) > 0), rhos
    assert rhos[-1] == 1.0, rhos


def test_ablation_swim_leads_the_scorers(ablations):
    """At NWC = 0.1, SWIM's ranking is no worse than Magnitude's or
    Random's."""
    accuracy = _metric(ablations["scorers"], "accuracy_mean")
    assert accuracy["swim"] >= accuracy["random"] - 0.005
    assert accuracy["swim"] >= accuracy["magnitude"] - 0.005


def test_ablation_tie_break_arms_agree_where_selections_agree(
        lenet_zoo, ablations):
    """The magnitude tie-break only reorders weights with tied
    curvature: at every budget where both orders select the same set,
    the two arms deploy the same weights on the same draw, so their
    per-trial accuracies are equal."""
    cells = ablation_cells(lenet_zoo)["tie_break"]
    orchestrator = ScenarioOrchestrator(
        lenet_zoo, eval_samples=EVAL_SAMPLES, sense_samples=SENSE_SAMPLES,
    )
    outcome = orchestrator.run(cells)[cells[0].key]
    plan = orchestrator.plans[cells[0].key]
    assert orchestrator.report.tiles_computed == 0  # the runner's tiles
    same = []
    for i, count in enumerate(plan.counts):
        tied, untied = (np.sort(plan.order(method)[:count])
                        for method in ("swim", "untied_swim"))
        if np.array_equal(tied, untied):
            same.append(plan.nwc_targets[i])
            np.testing.assert_array_equal(
                _column(outcome, "swim", plan.nwc_targets[i]),
                _column(outcome, "untied_swim", plan.nwc_targets[i]),
            )
    assert same, "no budget where the two orders select the same set"
