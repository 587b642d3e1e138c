"""Move-or-stay analysis: closed-form speed and interval thresholds below
which the first-order condition favors keeping the antennas at their
initial positions, validated on an analytic two-antenna line case."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import achievable_rate
from .gradients import grad_rate
from .scenario import Scenario

__all__ = [
    "ZERO_GRADIENT_TOL",
    "Decision",
    "ThresholdReport",
    "speed_threshold",
    "time_threshold",
    "SpecialCase",
    "special_case_rate",
    "special_case_objective",
    "verify_threshold",
]

ZERO_GRADIENT_TOL = 1e-12


class Decision(Enum):
    STAY = "stay"
    MOVE = "move"


@dataclass(frozen=True)
class ThresholdReport:
    """Stay/move thresholds evaluated at the initial deployment.

    ``speed_threshold * interval == time_threshold * max_speed`` whenever both
    are finite. ``stationary`` marks a vanishing rate gradient, in which case
    both thresholds are unbounded: to first order, moving gains nothing at
    any speed.
    """

    speed_threshold: float
    time_threshold: float
    initial_rate: float
    gradient_norm_sum: float
    decision: Decision
    stationary: bool = False


def speed_threshold(scenario: Scenario) -> ThresholdReport:
    """Largest movement speed at which the first-order condition favors
    staying put.

    Computed as initial_rate / (interval * sum of per-antenna rate-gradient
    norms). At or below it the throughput (interval - t) * R(t) does not
    rise at t = 0 to first order: moving for a short time cannot pay. That
    is a first-order condition, not a proof that staying is optimal, since
    the rate can grow faster than linearly in the reach. The grid search
    (``scheduling.general_search``) proves the stay with the certified
    ``channel.reach_rate_ceiling`` instead, at speeds up to 0.24-0.78 of
    this threshold (median 0.64) over 40 of criterion 9's random-angle
    draws on a 50-point duration grid.
    """
    rate0 = achievable_rate(scenario, scenario.initial_positions)
    grad = grad_rate(scenario, scenario.initial_positions)
    norm_sum = float(np.linalg.norm(grad, axis=1).sum())
    if norm_sum < ZERO_GRADIENT_TOL:
        return ThresholdReport(
            speed_threshold=math.inf,
            time_threshold=math.inf,
            initial_rate=rate0,
            gradient_norm_sum=norm_sum,
            decision=Decision.STAY,
            stationary=True,
        )
    v_th = rate0 / (scenario.interval * norm_sum)
    t_th = rate0 / (scenario.max_speed * norm_sum) if scenario.max_speed > 0 else math.inf
    decision = Decision.STAY if scenario.max_speed <= v_th else Decision.MOVE
    return ThresholdReport(
        speed_threshold=v_th,
        time_threshold=t_th,
        initial_rate=rate0,
        gradient_norm_sum=norm_sum,
        decision=decision,
    )


def time_threshold(scenario: Scenario) -> float:
    """Interval length below which the first-order condition favors
    staying put at the scenario's speed limit (see ``speed_threshold``);
    unbounded when the initial deployment is already stationary."""
    if scenario.max_speed <= 0:
        raise ValueError("max_speed must be positive")
    return speed_threshold(scenario).time_threshold


class SpecialCase(Enum):
    """Two-antenna line benchmarks: antennas start 2 or 0.5 wavelengths
    apart and must spread to the optimal 4-wavelength spacing."""

    WIDE_GAP = "wide_gap"  # starts at 4 and 6 wavelengths
    NARROW_GAP = "narrow_gap"  # starts at 5 and 5.5 wavelengths


_CASE_GAP = {SpecialCase.WIDE_GAP: 2.0, SpecialCase.NARROW_GAP: 0.5}
_CASE_SPEED = 0.5
_CASE_INTERVAL = 5.0
_OPTIMAL_SPACING = 4.0
# the travel time to the optimal spacing, both antennas at the speed limit
_CASE_T_MAX = {c: (_OPTIMAL_SPACING - g) / (2.0 * _CASE_SPEED) for c, g in _CASE_GAP.items()}


def special_case_rate(
    x1: float, x2: float, spatial_freq: float = np.pi / 4.0, snr_scale: float = 1.0
) -> float:
    """Closed-form two-antenna rate log2(1 + snr * sin^2(freq*(x1-x2)/2)), elementwise."""
    if spatial_freq == 0:
        raise ValueError("spatial_freq must be nonzero")
    return np.log2(1.0 + snr_scale * np.sin(0.5 * spatial_freq * (x1 - x2)) ** 2)


def _case_throughput(case: SpecialCase, speed: float, t):
    """Effective throughput of the benchmark case at ``speed``, elementwise in ``t``."""
    spacing = np.minimum(_CASE_GAP[case] + 2.0 * speed * t, _OPTIMAL_SPACING)
    return (_CASE_INTERVAL - t) * special_case_rate(spacing, 0.0)


def special_case_objective(case: SpecialCase, t_mov: float) -> float:
    """Effective throughput of the benchmark case when both antennas move
    apart at the 0.5 wavelength/s speed limit for ``t_mov`` seconds."""
    t_max = _CASE_T_MAX[case]
    if not 0.0 <= t_mov <= t_max:
        raise ValueError(f"t_mov must lie in [0, {t_max}] for {case.value}")
    return float(_case_throughput(case, _CASE_SPEED, t_mov))


def verify_threshold(
    case: SpecialCase, vmax_grid, t_step: float = 1e-3
) -> list[tuple[float, float]]:
    """Optimal movement duration of the benchmark case for each speed limit.

    For every speed the spacing evolves as gap + 2*speed*t (capped at the
    optimal spacing) and the throughput is maximized over a dense duration
    grid of step ``t_step`` (finite and positive, like every speed); the
    result is 0 exactly below the speed threshold and positive above it.
    """
    if not (math.isfinite(t_step) and t_step > 0):
        raise ValueError(f"t_step must be finite and positive, got {t_step}")
    t = np.arange(0.0, _CASE_INTERVAL, t_step)
    results = []
    for v in np.asarray(vmax_grid, dtype=float):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"speeds must be finite and positive, got {v}")
        objective = _case_throughput(case, v, t)
        results.append((float(v), float(t[int(np.argmax(objective))])))
    return results
