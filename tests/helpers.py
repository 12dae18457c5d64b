"""Helpers shared by the test suite: numerical oracles and the runner.

``fd_diagonal_hessian`` (the paper's Eq. 6) and ``MSELoss`` are the
oracles of the curvature recursion's exactness tests, and
``scalar_sweep``, the per-trial Monte Carlo loop, is the Monte Carlo
sweep's; no scenario runs any of them, so they live here rather than in
``repro``.  ``run_runner``
launches the experiment runner the way CI and users invoke it, and
``copy_cache`` and ``cache_keys`` handle its artifact store.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np

from repro.nn.losses import CrossEntropyLoss

#: The program's source root, put first on a runner subprocess's path.
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def to_float64(model):
    """Cast all parameters of a model to float64 in place (for FD checks)."""
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
        param.zero_grad()
        param.zero_curvature()
    return model


def loss_of(model, loss, x, y):
    """Scalar loss of ``model`` on one batch."""
    return loss(model(x), y)


def fd_gradient(model, loss, x, y, param, eps=1e-5):
    """Central-difference gradient of the loss w.r.t. one parameter tensor."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = loss_of(model, loss, x, y)
        flat[i] = orig - eps
        f_minus = loss_of(model, loss, x, y)
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def fd_diagonal_hessian(model, x, y, loss=None, eps=1e-4, param_names=None):
    """Central-difference diagonal Hessian (paper Eq. 6), exact to O(eps^2).

    ``d2F/dw_i^2 ~= (F(w_i + eps) - 2 F(w_i) + F(w_i - eps)) / eps^2``
    costs two forward passes per parameter plus one for ``F(w)``.
    Returns ``parameter name -> float64 array`` for ``param_names``
    (default: every parameter); ``loss`` defaults to cross-entropy.
    """
    loss = loss if loss is not None else CrossEntropyLoss()
    names = set(param_names) if param_names is not None else None
    f_zero = loss_of(model, loss, x, y)
    result = {}
    for name, param in model.named_parameters():
        if names is not None and name not in names:
            continue
        curv = np.zeros_like(param.data, dtype=np.float64)
        flat = param.data.reshape(-1)
        curv_flat = curv.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_of(model, loss, x, y)
            flat[i] = orig - eps
            f_minus = loss_of(model, loss, x, y)
            flat[i] = orig
            curv_flat[i] = (f_plus - 2.0 * f_zero + f_minus) / (eps * eps)
        result[name] = curv
    return result


class MSELoss:
    """Mean over the batch of the sum of squared errors per sample.

    Its curvature seed is the constant ``2 / N`` (paper Sec. 3.3), which
    makes the recursion exact on a two-layer network.
    """

    def __init__(self):
        self._cache = None

    def forward(self, outputs, targets):
        """Return ``mean_n sum_c (o - y)^2`` and cache derivative state."""
        outputs = np.asarray(outputs)
        targets = np.asarray(targets)
        if outputs.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: outputs {outputs.shape} vs targets "
                f"{targets.shape}"
            )
        diff = outputs - targets
        n = outputs.shape[0]
        self._cache = {"diff": diff, "n": n}
        return float(np.square(diff).sum() / n)

    def __call__(self, outputs, targets):
        return self.forward(outputs, targets)

    def backward(self):
        """Gradient: ``2 (o - y) / N``."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._cache["diff"] / self._cache["n"]

    def second(self):
        """Diagonal curvature: the constant ``2 / N``."""
        if self._cache is None:
            raise RuntimeError("second called before forward")
        diff = self._cache["diff"]
        return np.full_like(diff, 2.0 / self._cache["n"])


def analytic_grads(model, loss, x, y):
    """Run forward + backward; returns the scalar loss."""
    model.zero_grad()
    value = loss(model(x), y)
    model.backward(loss.backward())
    return value


def plan_for(zoo, sense_samples=512, **request):
    """One cell's ``SelectionPlan``, resolved as a scenario resolves it.

    A ``PlanEngine`` over ``zoo`` (sense set: its first
    ``sense_samples`` training examples) with an in-memory cache plans
    ``PlanRequest(**request)``; the workload's quantization bits are
    the default ``weight_bits``.
    """
    from repro.plan import PlanArtifactCache, PlanEngine, PlanRequest

    request.setdefault("weight_bits", zoo.spec.weight_bits)
    engine = PlanEngine.from_zoo(
        zoo, sense_samples, cache=PlanArtifactCache(disk=False)
    )
    return engine.plan(PlanRequest(**request))


def scalar_sweep(zoo, plan, mc_runs, rng, eval_samples=400, insitu_lr=0.03,
                 trial_range=None):
    """The per-trial Monte Carlo loop, the reference of the one sweep.

    Takes :func:`~repro.experiments.sweeps.run_method_sweep`'s
    arguments and returns its ``SweepOutcome`` (``wear`` included), but
    runs one trial at a time on the accelerator's one-trial protocol:
    trial ``i`` programs from ``rng.child("mc", i).child("program")``
    and verifies every device from its own ``.child("verify")`` stream;
    each (method, target) deploys through ``apply_selection`` and is
    scored by the untrialled ``evaluate_accuracy``; in-situ trains last
    in each trial, through the sweep's own ``_insitu_row``.  The sweep
    verifies a block of trials from one shared stream, so the two agree
    bitwise where nothing is verified (NWC = 0) and for in-situ, which
    programs and verifies its own draw, and statistically elsewhere.
    Any ``trial_range`` window is accepted.
    """
    from repro.cim import CimAccelerator
    from repro.core import RandomScorer, WeightSpace, evaluate_accuracy
    from repro.experiments.sweeps import MethodCurve, SweepOutcome, _insitu_row

    start, stop = (0, mc_runs) if trial_range is None else trial_range
    methods, targets, read_time = plan.methods, plan.nwc_targets, plan.read_time
    space = WeightSpace.from_model(zoo.model)
    tech, device, mapping, stack = plan.resolve()
    accelerator = CimAccelerator(zoo.model, mapping_config=mapping, stack=stack)
    eval_x = zoo.data.test_x[:eval_samples]
    eval_y = zoo.data.test_y[:eval_samples]
    shape = (stop - start, len(targets))
    accuracy = {method: np.empty(shape) for method in methods}
    nwc = {method: np.empty(shape) for method in methods}
    try:
        for row, trial in enumerate(range(start, stop)):
            run_rng = rng.child("mc", trial)
            accelerator.program(run_rng.child("program").generator)
            accelerator.write_verify_all(run_rng.child("verify").generator)
            for method in methods:
                if method == "insitu":
                    continue
                if method == "random":
                    order = RandomScorer().ranking(
                        zoo.model, space, None, None,
                        rng=run_rng.child("random-order"),
                    )
                else:
                    order = plan.order(method)
                for i, count in enumerate(plan.counts):
                    nwc[method][row, i] = accelerator.apply_selection(
                        space.masks_from_indices(order[:count]),
                        read_time=read_time, read_stream=run_rng,
                    )
                    accuracy[method][row, i] = evaluate_accuracy(
                        zoo.model, eval_x, eval_y)
            if "insitu" in methods:
                accuracy["insitu"][row], nwc["insitu"][row] = _insitu_row(
                    zoo, accelerator, targets, run_rng.child("insitu"),
                    eval_x, eval_y, insitu_lr,
                )
    finally:
        accelerator.clear()
    outcome = SweepOutcome(
        workload=zoo.spec.key,
        sigma=device.sigma,
        clean_accuracy=zoo.clean_accuracy,
        nwc_targets=tuple(targets),
        technology=tech.name if tech is not None else "",
        read_time=read_time,
        wear=accelerator.wear_summary(),
    )
    for method in methods:
        outcome.curves[method] = MethodCurve(
            method=method, nwc_targets=tuple(targets),
            accuracy_runs=accuracy[method], nwc_runs=nwc[method],
        )
    return outcome


def accelerator_on(model, technology):
    """A ``CimAccelerator`` on one registered technology, with the
    mapping and stack that ``resolve_physics`` derives for it."""
    from repro.cim import CimAccelerator
    from repro.plan import PlanRequest

    _, _, mapping, stack = PlanRequest(technology=technology).resolve()
    return CimAccelerator(model, mapping_config=mapping, stack=stack)


def deployed_weights(accelerator):
    """Each mapped layer's current weight override (None when the layer
    computes with its float weights)."""
    return {
        name: layer.weight_override
        for name, layer in accelerator._layers.items()
    }


def runner_env(results, **extra):
    """The environment of a smoke-scale runner subprocess that writes its
    CSVs to ``results``; each keyword adds one variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RESULTS_DIR"] = str(results)
    env["REPRO_SCALE"] = "smoke"
    env.update({key: str(value) for key, value in extra.items()})
    return env


def run_runner(results, *args, **extra):
    """``python -m repro.experiments.runner *args`` in a subprocess with
    :func:`runner_env`; returns the completed process."""
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *args],
        env=runner_env(results, **extra), capture_output=True, text=True,
        timeout=900,
    )


def cache_keys(cache_dir):
    """Every artifact path under ``cache_dir``, relative to it."""
    keys = set()
    for root, _, files in os.walk(cache_dir):
        for name in files:
            keys.add(os.path.relpath(os.path.join(root, name), cache_dir))
    return keys


def copy_cache(cache_dir, dest, keep=None, drop=None):
    """Copy an artifact store to ``dest``, then delete the artifacts whose
    file names do not start with ``keep`` or do start with ``drop``
    (string prefixes such as ``"eval-"``); returns ``dest``."""
    shutil.copytree(cache_dir, dest)
    for root, _, files in os.walk(dest):
        for name in files:
            if (keep is not None and not name.startswith(keep)) or (
                    drop is not None and name.startswith(drop)):
                os.unlink(os.path.join(root, name))
    return dest
