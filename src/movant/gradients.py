"""Closed-form gradients of the trace objective and the achievable rate,
plus a finite-difference oracle used to verify them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .channel import checked_kernel, trace_objective
from .scenario import Deployment, Scenario, as_positions

__all__ = ["GradientField", "grad_trace", "grad_rate", "fd_gradient"]

FD_DEFAULT_STEP = 1e-6


@dataclass(frozen=True)
class GradientField:
    """Per-antenna (d/dx, d/dy) components evaluated at a deployment."""

    components: np.ndarray
    deployment: Deployment

    def norm_sum(self) -> float:
        """Sum over antennas of the per-antenna gradient norms."""
        return float(np.linalg.norm(self.components, axis=1).sum())


def grad_trace(scenario: Scenario, deployment) -> GradientField:
    """Analytic gradient of tr(G^-1) with respect to every coordinate.

    Component n is ``-2 * wavenumber * sum_k b_k * Im([G^-2 H^H]_{k,n} *
    [H]_{n,k})``; the y components vanish identically in segment mode.
    """
    pos = as_positions(deployment)
    _, grad, _ = checked_kernel(kernels.trace_and_grad, scenario, pos)
    return GradientField(components=grad, deployment=Deployment(pos))


def grad_rate(scenario: Scenario, deployment) -> GradientField:
    """Gradient of log2(1 + snr_scale / trace) via the chain rule.

    Always antiparallel to ``grad_trace`` since the rate decreases in the
    trace objective.
    """
    pos = as_positions(deployment)
    trace, grad, _ = checked_kernel(kernels.trace_and_grad, scenario, pos)
    c = scenario.snr_scale
    scale = -c / (np.log(2.0) * trace * (trace + c))
    return GradientField(components=scale * grad, deployment=Deployment(pos))


def fd_gradient(
    scenario: Scenario,
    deployment,
    step: float = FD_DEFAULT_STEP,
    objective=None,
) -> GradientField:
    """Central finite differences of ``objective`` per coordinate.

    ``objective(scenario, deployment)`` defaults to the trace objective; any
    scalar function of a deployment can be injected for verification.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if objective is None:
        objective = trace_objective
    pos = as_positions(deployment)
    grad = np.zeros_like(pos)
    for n in range(pos.shape[0]):
        for d in range(2):
            plus = pos.copy()
            plus[n, d] += step
            minus = pos.copy()
            minus[n, d] -= step
            grad[n, d] = (objective(scenario, plus) - objective(scenario, minus)) / (
                2.0 * step
            )
    return GradientField(components=grad, deployment=Deployment(pos))
