"""Closed-form gradients of the trace objective and the achievable rate, and
a finite-difference oracle that verifies them; each returns the kernel's
(N, 2) array and reads its deployment through ``channel._positions``."""

from __future__ import annotations

import numpy as np

from . import kernels
from .channel import _positions, checked_kernel, trace_objective
from .scenario import Scenario

__all__ = ["grad_trace", "grad_rate", "fd_gradient"]

FD_DEFAULT_STEP = 1e-6


def grad_trace(scenario: Scenario, deployment) -> np.ndarray:
    """Analytic gradient of tr(G^-1) with respect to every coordinate.

    Component n is ``-2 * wavenumber * sum_k b_k * Im([G^-2 H^H]_{k,n} *
    [H]_{n,k})``; the y components vanish identically in segment mode.
    """
    _, grad, _ = checked_kernel(kernels.trace_and_grad, scenario, deployment)
    return grad


def grad_rate(scenario: Scenario, deployment) -> np.ndarray:
    """Gradient of log2(1 + snr_scale / trace) via the chain rule.

    Always antiparallel to ``grad_trace`` since the rate decreases in the
    trace objective.
    """
    trace, grad, _ = checked_kernel(kernels.trace_and_grad, scenario, deployment)
    c = scenario.snr_scale
    scale = -c / (np.log(2.0) * trace * (trace + c))
    return scale * grad


def fd_gradient(
    scenario: Scenario,
    deployment,
    step: float = FD_DEFAULT_STEP,
    objective=None,
) -> np.ndarray:
    """Central finite differences of ``objective`` per coordinate.

    ``objective(scenario, deployment)`` defaults to the trace objective; any
    scalar function of a deployment can be injected for verification.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if objective is None:
        objective = trace_objective
    pos = _positions(scenario, deployment)
    grad = np.zeros_like(pos)
    for index in np.ndindex(pos.shape):
        plus, minus = pos.copy(), pos.copy()
        plus[index] += step
        minus[index] -= step
        grad[index] = (objective(scenario, plus) - objective(scenario, minus)) / (2.0 * step)
    return grad
