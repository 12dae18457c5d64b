"""Numerical helpers shared by the test suite (finite differences etc.)."""

from __future__ import annotations

import numpy as np

from repro.nn.losses import CrossEntropyLoss


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


def fd_second_derivative(model, loss, x, y, param, eps=1e-4):
    """Central-difference diagonal second derivative (paper Eq. 6)."""
    curv = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    curv_flat = curv.reshape(-1)
    f_zero = loss_of(model, loss, x, y)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = loss_of(model, loss, x, y)
        flat[i] = orig - eps
        f_minus = loss_of(model, loss, x, y)
        flat[i] = orig
        curv_flat[i] = (f_plus - 2 * f_zero + f_minus) / (eps * eps)
    return curv


def analytic_grads(model, loss, x, y):
    """Run forward + backward; returns the scalar loss."""
    model.zero_grad()
    value = loss(model(x), y)
    model.backward(loss.backward())
    return value


def analytic_curvature(model, loss, x, y):
    """Run forward + backward + backward_second; returns the scalar loss."""
    model.zero_grad()
    model.zero_curvature()
    value = loss(model(x), y)
    model.backward(loss.backward())
    model.backward_second(loss.second())
    return value


def default_loss():
    """The loss used by most checks."""
    return CrossEntropyLoss()


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
