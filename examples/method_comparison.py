"""Method comparison: SWIM vs Magnitude vs Random vs In-situ on one chip.

Reproduces a single-sigma slice of the paper's Table 1 with an ASCII
accuracy-vs-NWC figure, using the paired Monte Carlo design (all methods
see the same programming-noise draws).

Run:  python examples/method_comparison.py [sigma]
"""

import sys

from repro.experiments.config import SMOKE
from repro.experiments.model_zoo import load_workload
from repro.experiments.sweeps import run_method_sweep
from repro.plan import PlanEngine, PlanRequest
from repro.utils.ascii_plot import line_plot
from repro.utils.rng import RngStream


def main(sigma=0.15):
    print(f"== accuracy vs NWC at sigma={sigma} (LeNet / synthetic digits) ==")
    zoo = load_workload(SMOKE.workload("lenet-digits"))
    print(f"model: {zoo.spec.arch}, {zoo.model.num_parameters()} parameters, "
          f"clean accuracy {100 * zoo.clean_accuracy:.2f}%")

    # One curvature pass ranks the weights for every Monte Carlo draw.
    plan = PlanEngine.from_zoo(zoo, sense_samples=256).plan(PlanRequest(
        methods=("swim", "magnitude", "random", "insitu"),
        nwc_targets=(0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0),
        sigma=sigma,
        weight_bits=zoo.spec.weight_bits,
    ))
    outcome = run_method_sweep(
        zoo, plan, mc_runs=3, rng=RngStream(7).child("compare"),
        eval_samples=200,
    )

    series = {
        method: (curve.achieved_nwc, 100.0 * curve.means())
        for method, curve in outcome.curves.items()
    }
    print(line_plot(
        series,
        title=f"accuracy vs NWC (sigma={sigma})",
        xlabel="Normalized Write Cycles",
        ylabel="accuracy %",
    ))

    print("\nmean accuracy at each NWC target:")
    header = "method     " + "".join(f"{t:>8.2f}" for t in outcome.nwc_targets)
    print(header)
    for method, curve in outcome.curves.items():
        row = f"{method:10s}" + "".join(f"{100 * m:8.2f}" for m in curve.means())
        print(row)

    swim = outcome.curve("swim").means()
    random = outcome.curve("random").means()
    print(f"\nat NWC=0.1: SWIM {100 * swim[2]:.2f}% vs Random "
          f"{100 * random[2]:.2f}%  (paper: SWIM needs ~9x fewer cycles "
          f"than random selection for equal accuracy)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.15)
