"""Single-pass diagonal second-derivative computation (paper Sec. 3.3).

The paper's key efficiency contribution: instead of two million forward
passes of finite differencing (Eq. 6), all diagonal second derivatives are
obtained with *one* forward and one backward-style pass, seeded with the
loss curvature ``d2F/dO^2`` (Eq. 11) and propagated by each layer's
``backward_second`` (Eqs. 8 and 10).

:func:`accumulate_second_derivatives` orchestrates that pass over a model
and returns the curvature per parameter; :func:`compute_gradients` collects
first derivatives with the same interface for the gradient and Fisher
baselines.  The paper claims the second-derivative pass costs about as
much as a gradient pass; ``tests/test_second_derivative.py`` counts it:
one forward, backward and curvature pass per layer, against two forward
passes per parameter for finite differencing.
"""

from __future__ import annotations

from repro.nn.losses import CrossEntropyLoss
from repro.nn.trainer import iterate_batches

__all__ = ["compute_gradients", "accumulate_second_derivatives"]


def compute_gradients(model, x, y, loss=None):
    """First derivatives with the same interface (for baselines/timing)."""
    loss = loss if loss is not None else CrossEntropyLoss()
    model.zero_grad()
    loss(model(x), y)
    model.backward(loss.backward(), input_grad=False)
    model.drop_caches()
    return {name: p.grad.copy() for name, p in model.named_parameters()}


def accumulate_second_derivatives(
    model, x, y, loss=None, batch_size=256, max_batches=None
):
    """Average the curvature pass over mini-batches of a dataset.

    The paper computes sensitivities once on the training dataset (Alg. 1
    line 3).  Averaging over batches keeps memory bounded on large inputs;
    because each batch's loss carries a ``1/batch`` factor, summing batch
    curvatures and dividing by the number of batches estimates the
    full-dataset curvature.  Each batch runs one forward pass, one
    gradient backward pass (it supplies the first-order term of Eq. 9
    that smooth activations need) and one curvature backward pass; the
    model keeps no forward cache after the last.

    Returns
    -------
    dict
        ``parameter name -> averaged curvature array``.
    """
    loss = loss if loss is not None else CrossEntropyLoss()
    model.zero_grad()
    model.zero_curvature()
    n_batches = 0
    for xb, yb in iterate_batches(x, y, batch_size):
        loss(model(xb), yb)
        model.backward(loss.backward(), input_grad=False)
        model.backward_second(loss.second(), input_grad=False)
        n_batches += 1
        if max_batches is not None and n_batches >= max_batches:
            break
    model.drop_caches()
    if n_batches == 0:
        raise ValueError("dataset produced no batches")
    scale = 1.0 / n_batches
    result = {}
    for name, p in model.named_parameters():
        result[name] = p.curvature * scale
    return result
