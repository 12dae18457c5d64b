"""Exact trial-batched evaluation of single-weight perturbations.

The Fig. 1 study (and any diagonal-Hessian validation) evaluates the
network under many trials that each differ from the baseline in exactly
*one* weight.  Re-running a full forward pass per trial wastes almost all
of its work: a single-weight change leaves every activation before the
perturbed layer untouched, and — for convolution and linear layers —
perturbs only **one output channel / unit** of that layer.  The
nonlinearities between weighted layers act channel-by-channel (ReLU,
activation quantizers, max pooling, flatten), so the perturbation
stays confined to that channel until the *next* weighted layer mixes it.

:class:`PerturbationEvaluator` exploits all three structure levels, each
an exact rewrite (float rounding aside) of the full forward pass:

1. **prefix sharing** — activations before the perturbed layer are
   computed once and shared by every trial of that tensor;
2. **incremental channel propagation** — the perturbed layer's output is
   the cached baseline plus a one-channel correction; the channelwise
   stage after it is recomputed for that channel only, and the next
   weighted layer adds ``W_block @ delta`` to its cached baseline output;
3. **folded suffix** — only from that point on does the network run
   per-trial, on a trial-major folded batch.

When the model is not a :class:`~repro.nn.module.Sequential`, or the
layer pattern is not recognized, evaluation falls back to trial-batched
weight-override stacks (still exact, just less incremental).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d
from repro.nn.layers.activation import _Activation, Identity
from repro.nn.layers.base import WeightedLayer
from repro.nn.module import Sequential
from repro.nn.quant import ActQuant

__all__ = ["PerturbationEvaluator"]


def _is_channelwise(module):
    """Layers that process channels independently (exact slice-ability)."""
    return isinstance(
        module, (_Activation, Identity, ActQuant, MaxPool2d, Flatten)
    )


class PerturbationEvaluator:
    """Evaluates single-weight perturbation trials of one model.

    Parameters
    ----------
    model:
        The network, in eval mode, with its baseline weights deployed
        (parameters or weight overrides — whatever ``effective_weight``
        resolves to is treated as the baseline).
    eval_x:
        The shared evaluation inputs.
    max_fold_samples:
        Bound on ``trials_per_chunk * len(eval_x)`` for the folded
        suffix passes (keeps activation memory cache-friendly).
    """

    def __init__(self, model, eval_x, max_fold_samples=4096):
        self.model = model
        self.x = eval_x
        self.max_fold = int(max_fold_samples)
        self._chain = list(model) if isinstance(model, Sequential) else None
        self._prefix_cache = {}

    # ------------------------------------------------------------- helpers

    def _chunk(self, n_trials):
        per = max(1, self.max_fold // max(1, self.x.shape[0]))
        for start in range(0, n_trials, per):
            yield np.arange(start, min(start + per, n_trials))

    def _prefix_output(self, position):
        """Activations entering ``chain[position]`` (cached)."""
        if position not in self._prefix_cache:
            out = self.x
            for module in self._chain[:position]:
                out = module(out)
            self._prefix_cache[position] = out
        return self._prefix_cache[position]

    def _run_suffix(self, folded, position):
        """Run ``chain[position:]`` on a folded trial-major batch."""
        for module in self._chain[position:]:
            folded = module(folded)
        return folded

    @staticmethod
    def _fold(stacked):
        """``(T, N, ...) -> (T*N, ...)``."""
        return stacked.reshape((-1,) + stacked.shape[2:])

    # ------------------------------------------------------------ dispatch

    def evaluate(self, module, inner, signed):
        """Logits for trials perturbing one weight of ``module`` each.

        Trial ``t`` evaluates the model with
        ``module.weight.flat[inner[t]] += signed[t]`` around the current
        baseline.

        Returns
        -------
        numpy.ndarray
            Logits of shape ``(n_trials, len(eval_x), classes)``.

        The forwards run under ``model.inference()``: no layer caches.
        """
        inner = np.asarray(inner, dtype=np.int64)
        signed = np.asarray(signed, dtype=np.float64)
        with self.model.inference():
            if self._chain is None or module not in self._chain:
                return self._evaluate_override(module, inner, signed)
            position = self._chain.index(module)
            if isinstance(module, Linear):
                return self._evaluate_linear(module, position, inner, signed)
            if isinstance(module, Conv2d):
                out = self._evaluate_conv_incremental(
                    module, position, inner, signed
                )
                if out is not None:
                    return out
            return self._evaluate_override(module, inner, signed)

    # ----------------------------------------------- linear: rank-1 update

    def _evaluate_linear(self, module, position, inner, signed):
        """Perturbing ``W[j, k]`` shifts output unit ``j`` by ``d * x_k``."""
        shared = self._prefix_output(position)
        base_out = module(shared)
        units = inner // module.in_features
        taps = inner % module.in_features
        chunks = []
        for chunk in self._chunk(inner.size):
            out = np.broadcast_to(
                base_out, (len(chunk),) + base_out.shape
            ).copy()
            out[np.arange(len(chunk)), :, units[chunk]] += (
                signed[chunk, None] * shared[:, taps[chunk]].T
            )
            logits = self._run_suffix(self._fold(out), position + 1)
            chunks.append(logits.reshape(len(chunk), shared.shape[0], -1))
        return np.concatenate(chunks)

    # ------------------------------------- conv: channel-sparse propagation

    def _conv_pattern(self, position):
        """Find the channelwise stage and next weighted layer after a conv.

        Returns ``(mid_modules, weighted, weighted_position)`` or None if
        an unrecognized module interrupts the pattern (e.g. a norm layer,
        whose parameters are indexed by channel and cannot be sliced by
        calling the module on one channel).
        """
        mid = []
        for offset, module in enumerate(self._chain[position + 1:],
                                        position + 1):
            if isinstance(module, WeightedLayer):
                return mid, module, offset
            if not _is_channelwise(module):
                return None
            mid.append(module)
        return None  # perturbed conv is the last weighted layer

    def _evaluate_conv_incremental(self, module, position, inner, signed):
        pattern = self._conv_pattern(position)
        if pattern is None:
            return None
        mid, nxt, nxt_position = pattern
        if isinstance(nxt, Conv2d) and any(isinstance(m, Flatten) for m in mid):
            return None

        shared = self._prefix_output(position)
        base_out = module(shared)  # includes bias
        cols_in, out_h, out_w = F.im2col(
            shared, module.kernel_size, stride=module.stride,
            padding=module.padding,
        )
        ckk = module.in_channels * module.kernel_size[0] * module.kernel_size[1]
        channels = inner // ckk
        rows = inner % ckk

        # Baseline activations entering / leaving the next weighted layer.
        act = base_out
        for m in mid:
            act = m(act)
        if isinstance(nxt, Linear) and (
            act.ndim != 2 or act.shape[1] % module.out_channels
        ):
            return None
        base_next = nxt(act)
        n = shared.shape[0]

        if isinstance(nxt, Linear):
            per_channel = act.shape[1] // module.out_channels
            w_blocks_all = nxt.effective_weight().reshape(
                nxt.out_features, module.out_channels, per_channel
            )
        else:
            kh2, kw2 = nxt.kernel_size
            w_blocks_all = nxt.effective_weight().reshape(
                nxt.out_channels, nxt.in_channels, kh2 * kw2
            )

        chunks = []
        for chunk in self._chunk(inner.size):
            t = len(chunk)
            c_arr = channels[chunk]
            # One-channel correction at the conv output: d * input patch.
            delta = signed[chunk, None] * cols_in[rows[chunk]]
            chan = base_out[:, c_arr].transpose(1, 0, 2, 3) + delta.reshape(
                t, n, out_h, out_w
            )
            chan = chan.reshape(t * n, 1, out_h, out_w)
            for m in mid:
                chan = m(chan)

            if isinstance(nxt, Linear):
                base_blocks = act.reshape(
                    n, module.out_channels, per_channel
                )[:, c_arr].transpose(1, 0, 2)
                delta_next = chan.reshape(t, n, per_channel) - base_blocks
                w_blocks = w_blocks_all[:, c_arr].transpose(1, 0, 2)
                correction = np.matmul(
                    delta_next, w_blocks.transpose(0, 2, 1)
                )  # (T, N, out)
                out = base_next[None, ...] + correction
            else:
                base_blocks = act[:, c_arr].transpose(1, 0, 2, 3)
                delta_chan = chan.reshape(t, n, chan.shape[2], chan.shape[3])
                delta_chan = (delta_chan - base_blocks).reshape(
                    t * n, 1, chan.shape[2], chan.shape[3]
                )
                cols_d, oh2, ow2 = F.im2col(
                    delta_chan, nxt.kernel_size, stride=nxt.stride,
                    padding=nxt.padding,
                )
                cols_d = cols_d.reshape(cols_d.shape[0], t, -1).transpose(1, 0, 2)
                w_blocks = w_blocks_all[:, c_arr].transpose(1, 0, 2)
                correction = np.matmul(w_blocks, cols_d)  # (T, F, N*oh2*ow2)
                correction = correction.reshape(
                    t, nxt.out_channels, n, oh2, ow2
                ).transpose(0, 2, 1, 3, 4)
                out = base_next[None, ...] + correction

            logits = self._run_suffix(self._fold(out), nxt_position + 1)
            chunks.append(logits.reshape(t, n, -1))
        return np.concatenate(chunks)

    # ------------------------------------------ generic trial-batched path

    def _evaluate_override(self, module, inner, signed):
        """Whole-model fallback: weight-override stacks + tiled inputs.

        Trial-batched weights are inference-only, so this runs under
        ``model.inference()`` of its own.
        """
        base = module.effective_weight()
        saved = module.weight_override
        n = self.x.shape[0]
        chunks = []
        try:
            for chunk in self._chunk(inner.size):
                stack = np.broadcast_to(base, (len(chunk),) + base.shape).copy()
                stack.reshape(len(chunk), -1)[
                    np.arange(len(chunk)), inner[chunk]
                ] += signed[chunk]
                module.set_weight_override(stack)
                tiled = np.broadcast_to(
                    self.x, (len(chunk),) + self.x.shape
                ).reshape((len(chunk) * n,) + self.x.shape[1:])
                with self.model.inference():
                    logits = self.model(tiled)
                chunks.append(logits.reshape(len(chunk), n, -1))
        finally:
            module.set_weight_override(saved)
        return np.concatenate(chunks)
