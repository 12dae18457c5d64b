"""In-situ (on-chip) training baseline — Yao et al. [13] style.

The strongest non-write-verify baseline in the paper: after mapping, the
network is fine-tuned *on the device*, with forward/backward running under
the programmed (noisy) weights and every weight update applied as a write
pulse without verification.  Consequences the experiments reproduce:

- every update pulse carries fresh programming noise, so accuracy
  plateaus above the noise floor unless many iterations are spent;
- each iteration writes every updated weight once, so NWC grows by
  ``n_weights / full-verify-cycles`` (~0.1 per iteration at the paper's
  10-cycle calibration) and can exceed 1.0 — the paper reports full
  recovery only at NWC 32-155 depending on the model.

Weight updates use plain SGD by default; the ``sign`` rule (fixed-size
conductance pulses in the gradient's direction, the Manhattan rule common
in memristor training) is available as a variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import evaluate_accuracy
from repro.nn.losses import CrossEntropyLoss

__all__ = ["InSituConfig", "InSituHistory", "InSituTrainer"]


@dataclass(frozen=True)
class InSituConfig:
    """On-chip fine-tuning hyper-parameters.

    Attributes
    ----------
    lr:
        SGD learning rate (in weight units).
    batch_size:
        On-chip mini-batch size.
    update_rule:
        ``"sgd"`` (update proportional to gradient) or ``"sign"``
        (fixed pulse in the gradient direction).
    sign_step_codes:
        Conductance step of one pulse in integer-code units (sign rule).
    update_noise_fs:
        Per-update write noise std as a fraction of device full-scale.
        Incremental update pulses are far better controlled than one-shot
        full-range programming (which has sigma ~ 0.1): the default 0.03
        matches the post-write-verify residual scale, making in-situ
        training plateau near — but below — the fully verified accuracy
        until it spends many iterations, as the paper observes.
    """

    lr: float = 0.05
    batch_size: int = 64
    update_rule: str = "sgd"
    sign_step_codes: float = 0.5
    update_noise_fs: float = 0.03

    def __post_init__(self):
        if self.update_rule not in ("sgd", "sign"):
            raise ValueError("update_rule must be 'sgd' or 'sign'")
        if self.lr <= 0 or self.batch_size < 1:
            raise ValueError("lr must be > 0 and batch_size >= 1")


@dataclass
class InSituHistory:
    """Recorded checkpoints of one in-situ run."""

    iterations: list = field(default_factory=list)
    nwc: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)


class InSituTrainer:
    """On-chip fine-tuning of a mapped model with write-cycle accounting."""

    def __init__(self, model, accelerator, config=None, loss=None):
        self.model = model
        self.accelerator = accelerator
        self.config = config if config is not None else InSituConfig()
        self.loss = loss if loss is not None else CrossEntropyLoss()
        self._writes = 0
        self._denominator = None

    def initialize(self, rng):
        """Map + program the model; measure the NWC denominator.

        A full write-verify simulation is run once (its outcome is *not*
        deployed) so that this run's NWC normalization matches the verify
        methods exactly, per the paper's metric definition.
        """
        self.accelerator.program(rng.child("program").generator)
        self.accelerator.write_verify_all(rng.child("denominator").generator)
        self._denominator = self.accelerator.total_cycles()
        self.accelerator.apply_none()
        self._writes = 0

    @property
    def nwc(self):
        """Write pulses so far / cycles to write-verify all weights."""
        if self._denominator is None:
            raise RuntimeError("initialize() must run first")
        return self._writes / self._denominator

    def iterations_for_nwc(self, target):
        """How many full-update iterations reach a given NWC."""
        if self._denominator is None:
            raise RuntimeError("initialize() must run first")
        per_iteration = self.accelerator.num_weights()
        return max(int(np.ceil(target * self._denominator / per_iteration)), 0)

    def _one_iteration(self, xb, yb, rng):
        """One on-chip SGD step; returns the batch loss."""
        config = self.config
        self.model.zero_grad()
        value = self.loss(self.model(xb), yb)
        self.model.backward(self.loss.backward(), input_grad=False)

        params = dict(self.model.named_parameters())
        mapping = self.accelerator.mapping_config
        noise_std_codes = mapping.code_noise_std(sigma_fs=config.update_noise_fs)
        for name, mapped in self.accelerator.map_model().items():
            layer = self.accelerator._layers[name]
            current = layer.weight_override.astype(np.float64)
            grad = params[name].grad.astype(np.float64)
            scale = mapped.scale
            if config.update_rule == "sgd":
                delta = -config.lr * grad
            else:
                delta = -config.sign_step_codes * scale * np.sign(grad)
            target = current + delta
            noise = (
                rng.normal(0.0, noise_std_codes * scale, size=target.shape)
                if noise_std_codes > 0
                else 0.0
            )
            updated = target + noise
            # Devices saturate at the representable range.
            bound = mapping.qmax * scale
            updated = np.clip(updated, -bound, bound)
            layer.set_weight_override(updated.astype(layer.weight.data.dtype))
            self._writes += int(grad.size)
        return value

    def run(self, train_x, train_y, iterations, rng, eval_x=None, eval_y=None,
            eval_at=None):
        """Fine-tune for ``iterations`` steps; record NWC/accuracy history.

        Parameters
        ----------
        train_x, train_y:
            On-chip training data; batches are drawn by random choice.
        iterations:
            Number of update iterations (each writes every weight once).
        rng:
            :class:`~repro.utils.rng.RngStream` for batches and noise.
        eval_x, eval_y:
            When given, accuracy is recorded after the last iteration.
        eval_at:
            Explicit set of 1-based iteration indices to evaluate at
            instead (used by the NWC sweeps to hit exact cycle budgets).

        Returns
        -------
        InSituHistory
            The model keeps no forward cache after the run.
        """
        if self._denominator is None:
            raise RuntimeError("initialize() must run first")
        history = InSituHistory()
        batch_rng = rng.child("batches").generator
        noise_rng = rng.child("updates").generator
        eval_at = set(int(i) for i in eval_at) if eval_at is not None else None
        n = train_x.shape[0]
        was_training = self.model.training
        self.model.eval()  # frozen BN statistics: on-chip inference mode
        for step in range(int(iterations)):
            idx = batch_rng.choice(n, size=min(self.config.batch_size, n),
                                   replace=False)
            self._one_iteration(train_x[idx], train_y[idx], noise_rng)
            if eval_x is not None and (
                step + 1 in eval_at if eval_at is not None
                else step == iterations - 1
            ):
                accuracy = evaluate_accuracy(self.model, eval_x, eval_y)
                history.iterations.append(step + 1)
                history.nwc.append(self.nwc)
                history.accuracy.append(accuracy)
        if was_training:
            self.model.train()
        self.model.drop_caches()
        return history
