"""Benchmark: trial-batched Monte Carlo engine vs the scalar loop.

Three sections, each timing the batched path against the scalar
reference it is numerically equivalent to:

``write_verify``
    The masked pulse loop on an ``(n_trials, n_devices)`` stack vs one
    loop per trial.
``fig1``
    The Fig. 1 perturbation study (the paper's sensitivity-correlation
    Monte Carlo): trial-batched prefix-sharing evaluation vs one full
    forward pass per perturbation draw.  This is the headline number —
    the default scale matches the Fig. 1 default preset.
``sweep``
    The accuracy-vs-NWC sweep behind Table 1 / Fig. 2, batched engine vs
    scalar per-trial pipeline.

Results are printed and written as JSON under ``REPRO_RESULTS_DIR``
(default ``results/``).  Run ``--smoke`` for a seconds-scale sanity pass
(CI) or nothing for the Fig. 1 default scale::

    PYTHONPATH=src python benchmarks/bench_mc_engine.py          # default
    PYTHONPATH=src python benchmarks/bench_mc_engine.py --smoke  # quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


#: LeNet's mapped tensor sizes — the per-tensor workload the accelerator
#: actually feeds the verify loop (one call per tensor per slice).
_LENET_TENSOR_SIZES = (150, 2400, 48000, 10080, 840)


def bench_write_verify(n_trials, tensor_sizes=_LENET_TENSOR_SIZES, seed=0):
    """Masked pulse loop over a model's tensors: batched stack vs per-trial.

    Mirrors ``CimAccelerator``: the scalar path runs one masked loop per
    (trial, tensor); the batched path one per tensor with all trials
    stacked on the leading axis.
    """
    from repro.cim import DeviceConfig
    from repro.cim.write_verify import WriteVerifyConfig, write_verify_trials

    device = DeviceConfig(bits=4, sigma=0.1)
    config = WriteVerifyConfig()
    gen = np.random.default_rng(seed)
    targets = [gen.uniform(0, device.max_level, size=s) for s in tensor_sizes]
    initial = [
        np.stack([device.program(t, np.random.default_rng(seed + 1 + i))
                  for i in range(n_trials)])
        for t in targets
    ]

    def scalar():
        rngs = [np.random.default_rng(seed + 1000 + i) for i in range(n_trials)]
        return [
            write_verify_trials(t, init, device, config, trial_rngs=rngs,
                                batched=False)
            for t, init in zip(targets, initial)
        ]

    def batched():
        rng = np.random.default_rng(seed + 2)
        return [
            write_verify_trials(t, init, device, config, rng=rng)
            for t, init in zip(targets, initial)
        ]

    scalar_s, scalar_results = _time(scalar)
    batched_s, batched_results = _time(batched)
    mean = lambda results: float(np.mean([r.mean_cycles for r in results]))
    return {
        "n_trials": n_trials,
        "tensor_sizes": list(tensor_sizes),
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s,
        "scalar_mean_cycles": mean(scalar_results),
        "batched_mean_cycles": mean(batched_results),
    }


def bench_fig1(scale):
    """The Fig. 1 perturbation Monte Carlo, batched vs scalar."""
    from repro.experiments.fig1 import Fig1Config, run_fig1
    from repro.experiments.model_zoo import load_workload
    from repro.utils.rng import RngStream

    config = Fig1Config(
        n_weights=scale.fig1_weights,
        mc_runs=scale.fig1_mc_runs,
        eval_samples=scale.fig1_eval_samples,
    )
    # Fresh zoo per path: run_fig1 promotes parameters to float64 in place.
    zoo = load_workload(scale.workload("lenet-digits"))
    batched_s, batched = _time(
        lambda: run_fig1(zoo, config, RngStream(101).child("fig1"), batched=True)
    )
    zoo = load_workload(scale.workload("lenet-digits"))
    scalar_s, scalar = _time(
        lambda: run_fig1(zoo, config, RngStream(101).child("fig1"), batched=False)
    )
    return {
        "n_weights": config.n_weights,
        "mc_runs": config.mc_runs,
        "eval_samples": config.eval_samples,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s,
        "max_accuracy_drop_deviation": float(
            np.abs(batched.accuracy_drops - scalar.accuracy_drops).max()
        ),
        "max_loss_increase_deviation": float(
            np.abs(batched.loss_increases - scalar.loss_increases).max()
        ),
    }


def bench_sweep(scale, mc_runs, seed=7):
    """The Table 1 / Fig. 2 NWC sweep pipeline, batched vs scalar."""
    from repro.cim import CimAccelerator, DeviceConfig, MappingConfig
    from repro.core import MonteCarloEngine, SwimScorer, WeightSpace
    from repro.experiments.model_zoo import load_workload
    from repro.utils.rng import RngStream

    zoo = load_workload(scale.workload("lenet-digits"))
    mapping = MappingConfig(
        weight_bits=zoo.spec.weight_bits,
        device=DeviceConfig(bits=4, sigma=0.1),
    )
    accelerator = CimAccelerator(zoo.model, mapping_config=mapping)
    space = WeightSpace.from_model(zoo.model)
    eval_x = zoo.data.test_x[: scale.eval_samples]
    eval_y = zoo.data.test_y[: scale.eval_samples]
    order = SwimScorer(batch_size=128, max_batches=1).ranking(
        zoo.model, space, zoo.data.train_x[:128], zoo.data.train_y[:128]
    )
    targets = (0.0, 0.3, 0.7, 1.0)

    def run(batched):
        engine = MonteCarloEngine(mc_runs, RngStream(seed).child("bench"),
                                  batched=batched)
        return engine.sweep_nwc(
            zoo.model, accelerator, order, space, eval_x, eval_y, targets
        )

    batched_s, (acc_b, _) = _time(lambda: run(True))
    scalar_s, (acc_s, _) = _time(lambda: run(False))
    return {
        "mc_runs": mc_runs,
        "eval_samples": int(eval_x.shape[0]),
        "nwc_targets": list(targets),
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s,
        "mean_accuracy_gap": float(np.abs(acc_b.mean(0) - acc_s.mean(0)).max()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the trial-batched Monte Carlo engine."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sanity run (CI)")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: "
                             "$REPRO_RESULTS_DIR/bench_mc_engine.json)")
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.reporting import results_dir

    scale = get_scale("smoke" if args.smoke else "default")
    report = {"scale": scale.name}

    print(f"# bench_mc_engine — scale: {scale.name}")
    report["write_verify"] = bench_write_verify(8 if args.smoke else 64)
    print(
        "write_verify: {scalar_seconds:.3f}s scalar / "
        "{batched_seconds:.3f}s batched -> {speedup:.2f}x".format(
            **report["write_verify"]
        )
    )

    report["fig1"] = bench_fig1(scale)
    print(
        "fig1: {scalar_seconds:.2f}s scalar / {batched_seconds:.2f}s "
        "batched -> {speedup:.2f}x (max deviation "
        "{max_accuracy_drop_deviation:.2e})".format(**report["fig1"])
    )

    report["sweep"] = bench_sweep(scale, mc_runs=2 if args.smoke else 8)
    print(
        "sweep: {scalar_seconds:.2f}s scalar / {batched_seconds:.2f}s "
        "batched -> {speedup:.2f}x".format(**report["sweep"])
    )

    out_path = args.output or os.path.join(results_dir(), "bench_mc_engine.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[saved {out_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
