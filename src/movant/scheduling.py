"""Choosing the movement duration: exhaustive grid search over durations and
the low-cost alternative that fits a growth model to a few sampled
rate-duration pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .channel import SINGULAR_COND_LIMIT, achievable_rate
from .errors import FitDiverged, MovantError
from .positioning import (
    OptimizeOutcome,
    PenaltyConfig,
    optimize_positions,
    unconstrained_deploy,
)
from .scenario import Deployment, Scenario

__all__ = [
    "FitKind",
    "FitModel",
    "SearchMethod",
    "CurvePoint",
    "TradeoffReport",
    "rate_at_duration",
    "general_search",
    "compute_t_mov_max",
    "fit_rate_model",
    "fitting_method",
]

DENSE_SEARCH_POINTS = 10_000
GAUSS_NEWTON_MAX_ITERS = 200
GAUSS_NEWTON_SSE_RTOL = 1e-10
DAMPING_INIT = 1e-3


class FitKind(Enum):
    QUADRATIC = "quadratic"
    SIGMOIDAL = "sigmoidal"


class SearchMethod(Enum):
    GENERAL_SEARCH = "general_search"
    FITTING = "fitting"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class FitModel:
    """Fitted rate-versus-duration model.

    Quadratic: g(t) = C1*(t - C2)^2 + C3 with C1 < 0, C2 > 0, C3 > 0.
    Sigmoidal: g(t) = C1 + C2 / (1 + exp(-(C3 + C4*t))) with C2 > 0, C4 > 0.
    """

    kind: FitKind
    coefficients: tuple
    residual_sse: float
    sample_count: int

    def predict(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c = self.coefficients
        if self.kind is FitKind.QUADRATIC:
            return c[0] * (t - c[1]) ** 2 + c[2]
        return c[0] + c[1] / (1.0 + np.exp(-(c[2] + c[3] * t)))


@dataclass(frozen=True)
class CurvePoint:
    t_mov: float
    rate: float
    throughput: float


@dataclass(frozen=True)
class TradeoffReport:
    """Outcome of a movement-duration optimization."""

    best_t_mov: float
    best_deployment: Deployment
    best_rate: float
    best_throughput: float
    curve: tuple
    method: SearchMethod
    t_mov_max: float
    fit: FitModel | None = None
    converged: bool = True
    failures: tuple = ()


def _solve_duration(
    scenario: Scenario,
    t_mov: float,
    config: PenaltyConfig | None,
    start=None,
) -> tuple[float, OptimizeOutcome]:
    outcome = optimize_positions(scenario, t_mov, config=config, start=start)
    rate = achievable_rate(scenario, outcome.deployment)
    return rate, outcome


def _pick_start(scenario: Scenario, t_mov: float, guide, previous):
    """Warm start for one duration solve: the previous grid solution or the
    speed-free optimum pulled into the reachable set, whichever has the lower
    objective. Both are cheap single evaluations, not optimizer runs."""
    candidates = []
    if previous is not None:
        candidates.append(previous.coords)
    if guide is not None:
        lo, hi = scenario.region_bounds()
        pulled = kernels.project_deployment(
            guide.coords, scenario.initial_positions.coords, scenario.max_speed * t_mov, lo, hi
        )
        candidates.append(pulled)
    if not candidates:
        return None
    best = None
    best_trace = math.inf
    directions = scenario.direction_vectors()
    amplitudes = scenario.amplitudes()
    for cand in candidates:
        trace, _ = kernels.trace_at(
            cand, directions, amplitudes, scenario.wavenumber, SINGULAR_COND_LIMIT
        )
        if not np.isnan(trace) and trace < best_trace:
            best_trace, best = float(trace), cand
    return best if best is not None else candidates[0]


def rate_at_duration(
    scenario: Scenario, t_mov: float, config: PenaltyConfig | None = None
) -> float:
    """Achievable common rate after optimizing positions for ``t_mov``."""
    if not 0.0 <= t_mov <= scenario.interval:
        raise ValueError(f"t_mov must lie in [0, {scenario.interval}]")
    rate, _ = _solve_duration(scenario, t_mov, config)
    return rate


def general_search(
    scenario: Scenario,
    grid_step: float | None = None,
    config: PenaltyConfig | None = None,
    guide_config: PenaltyConfig | None = None,
) -> TradeoffReport:
    """Evaluate the throughput on the duration grid {0, step, 2*step, ...}
    below the interval length and return the maximizer (ties break toward the
    smallest duration).

    Durations are processed in increasing order; each solve warm-starts from
    the previous solution or from the speed-free optimum pulled into the
    reachable set, whichever evaluates better (both remain feasible because
    the reachable disks only grow). A duration whose solve raises a
    ``MovantError`` or ``ValueError`` is recorded and skipped; other errors
    propagate. ``guide_config`` tunes the one-off speed-free solve.
    """
    step = scenario.interval / 400.0 if grid_step is None else float(grid_step)
    if step <= 0:
        raise ValueError("grid_step must be positive")
    durations = []
    t = 0.0
    index = 0
    while t < scenario.interval - 1e-12:
        durations.append(t)
        index += 1
        t = index * step

    guide = None
    if scenario.max_speed > 0:
        guide = unconstrained_deploy(scenario, config=guide_config or config).deployment

    curve = []
    failures = []
    best = None  # (throughput, t, rate, deployment, converged)
    warm = None
    for t in durations:
        try:
            start = _pick_start(scenario, t, guide, warm)
            rate, outcome = _solve_duration(scenario, t, config, start=start)
        except (MovantError, ValueError) as exc:
            failures.append((t, str(exc)))
            curve.append(CurvePoint(t, math.nan, math.nan))
            continue
        warm = outcome.deployment
        throughput = (scenario.interval - t) * rate
        curve.append(CurvePoint(t, rate, throughput))
        if best is None or throughput > best[0]:
            best = (throughput, t, rate, outcome.deployment, outcome.converged)
    if best is None:
        raise MovantError("every duration sample failed")
    return TradeoffReport(
        best_t_mov=best[1],
        best_deployment=best[3],
        best_rate=best[2],
        best_throughput=best[0],
        curve=tuple(curve),
        method=SearchMethod.GENERAL_SEARCH,
        t_mov_max=scenario.interval,
        converged=best[4],
        failures=tuple(failures),
    )


def compute_t_mov_max(
    scenario: Scenario,
    config: PenaltyConfig | None = None,
    guide_config: PenaltyConfig | None = None,
) -> tuple[float, Deployment]:
    """Longest movement duration worth considering, with the speed-free
    optimal deployment that defines it.

    The travel time is the largest per-antenna distance to the speed-free
    optimum divided by the speed limit; if it reaches the interval, the whole
    interval stays in play.
    """
    if scenario.max_speed <= 0:
        raise ValueError("max_speed must be positive")
    outcome = unconstrained_deploy(scenario, config=guide_config or config)
    a_star = outcome.deployment
    travel = a_star.max_shift_from(scenario.initial_positions) / scenario.max_speed
    t_max = scenario.interval if travel >= scenario.interval else travel
    return t_max, a_star


def fit_rate_model(samples, kind: FitKind) -> FitModel:
    """Least-squares fit of the rate-versus-duration samples.

    Quadratic fits are solved exactly on the monomial basis; sigmoidal fits
    use damped Gauss-Newton. A fit that cannot beat the best constant model
    or that violates the model's sign constraints raises FitDiverged.
    """
    pairs = np.asarray(list(samples), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("samples must be (t, rate) pairs")
    t, y = pairs[:, 0], pairs[:, 1]
    minimum = 3 if kind is FitKind.QUADRATIC else 4
    if len(t) < minimum:
        raise ValueError(f"{kind.value} fit needs at least {minimum} samples")
    if len(np.unique(t)) != len(t):
        raise ValueError("sample durations must be distinct")
    sse_const = float(((y - y.mean()) ** 2).sum())

    if kind is FitKind.QUADRATIC:
        coeffs, *_ = np.linalg.lstsq(np.vander(t, 3), y, rcond=None)
        a, b, c = coeffs
        if a >= 0:
            raise FitDiverged("quadratic fit is not concave")
        c1 = float(a)
        c2 = float(-b / (2.0 * a))
        c3 = float(c - b * b / (4.0 * a))
        if c2 <= 0 or c3 <= 0:
            raise FitDiverged("quadratic fit violates its sign constraints")
        resid = c1 * (t - c2) ** 2 + c3 - y
        sse = float((resid**2).sum())
        if sse > sse_const:
            raise FitDiverged("quadratic fit does not beat a constant model")
        return FitModel(FitKind.QUADRATIC, (c1, c2, c3), sse, len(t))

    params, sse = _fit_sigmoid(t, y)
    if not np.all(np.isfinite(params)) or params[1] <= 0 or params[3] <= 0:
        raise FitDiverged("sigmoidal fit violates its sign constraints")
    if sse > sse_const:
        raise FitDiverged("sigmoidal fit does not beat a constant model")
    return FitModel(FitKind.SIGMOIDAL, tuple(float(p) for p in params), float(sse), len(t))


def _sigmoid_eval(t, params):
    c1, c2, c3, c4 = params
    s = 1.0 / (1.0 + np.exp(-(c3 + c4 * t)))
    return c1 + c2 * s, s


def _fit_sigmoid(t, y):
    """Damped Gauss-Newton on the four sigmoid coefficients.

    Damping is multiplied by 10 whenever a step increases the squared
    residual and divided by 10 on success; iteration stops when the relative
    SSE change drops below GAUSS_NEWTON_SSE_RTOL.
    """
    span = float(y.max() - y.min())
    slopes = np.diff(y) / np.diff(t)
    steepest = int(np.argmax(slopes))
    t_inflect = 0.5 * (t[steepest] + t[steepest + 1])
    c2 = 1.1 * span if span > 0 else 1.0
    c4 = 4.0 * float(slopes.max()) / c2 if span > 0 else 1.0
    params = np.array([float(y.min()) - 0.05 * span, c2, -c4 * t_inflect, c4])

    pred, _ = _sigmoid_eval(t, params)
    sse = float(((pred - y) ** 2).sum())
    damping = DAMPING_INIT
    for _ in range(GAUSS_NEWTON_MAX_ITERS):
        pred, s = _sigmoid_eval(t, params)
        resid = pred - y
        jac = np.stack(
            [
                np.ones_like(t),
                s,
                params[1] * s * (1.0 - s),
                params[1] * t * s * (1.0 - s),
            ],
            axis=1,
        )
        jtj = jac.T @ jac
        rhs = -jac.T @ resid
        try:
            delta = np.linalg.solve(jtj + damping * np.eye(4), rhs)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        trial = params + delta
        pred_t, _ = _sigmoid_eval(t, trial)
        sse_t = float(((pred_t - y) ** 2).sum())
        if sse_t <= sse:
            improved = sse - sse_t
            params = trial
            damping = max(damping / 10.0, 1e-15)
            converged = improved <= GAUSS_NEWTON_SSE_RTOL * max(sse, 1e-30)
            sse = sse_t
            if converged:
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    return params, sse


def fitting_method(
    scenario: Scenario,
    samples: int = 5,
    config: PenaltyConfig | None = None,
    guide_config: PenaltyConfig | None = None,
) -> TradeoffReport:
    """Low-cost duration selection from a handful of sampled rates.

    Samples ``samples`` uniformly spaced durations on [0, t_mov_max], fits
    both model kinds, keeps the lower-SSE fit and maximizes
    (interval - t) * g(t) by a dense one-dimensional search. The chosen
    duration is then re-optimized for real, so the reported throughput is
    never a model extrapolation. If both fits diverge, the best of the
    sampled durations is returned instead. In total the position optimizer
    runs ``samples + 2`` times: the speed-free solve, one run per sample,
    and the final re-optimization.
    """
    if samples < 4:
        raise ValueError("need at least 4 samples")
    t_max, a_star = compute_t_mov_max(scenario, config=config, guide_config=guide_config)

    if t_max <= 1e-12:
        rate = achievable_rate(scenario, scenario.initial_positions)
        throughput = scenario.interval * rate
        return TradeoffReport(
            best_t_mov=0.0,
            best_deployment=scenario.initial_positions,
            best_rate=rate,
            best_throughput=throughput,
            curve=(CurvePoint(0.0, rate, throughput),),
            method=SearchMethod.STATIONARY,
            t_mov_max=t_max,
        )

    times = np.linspace(0.0, t_max, samples)
    curve = []
    solutions = []
    warm = None
    for t in times:
        start = _pick_start(scenario, float(t), a_star, warm)
        rate, outcome = _solve_duration(scenario, float(t), config, start=start)
        warm = outcome.deployment
        curve.append(CurvePoint(float(t), rate, (scenario.interval - t) * rate))
        solutions.append(outcome)

    pairs = [(p.t_mov, p.rate) for p in curve]
    fits = []
    for kind in (FitKind.QUADRATIC, FitKind.SIGMOIDAL):
        try:
            fits.append(fit_rate_model(pairs, kind))
        except FitDiverged:
            continue

    if not fits:
        # fall back to the best sampled duration
        best = max(curve, key=lambda p: (p.throughput, -p.t_mov))
        idx = curve.index(best)
        return TradeoffReport(
            best_t_mov=best.t_mov,
            best_deployment=solutions[idx].deployment,
            best_rate=best.rate,
            best_throughput=best.throughput,
            curve=tuple(curve),
            method=SearchMethod.FITTING,
            t_mov_max=t_max,
            converged=solutions[idx].converged,
        )

    fit = min(fits, key=lambda f: f.residual_sse)
    grid = np.linspace(0.0, t_max, DENSE_SEARCH_POINTS + 1)
    approx = (scenario.interval - grid) * fit.predict(grid)
    t_hat = float(grid[np.argmax(approx)])

    lower = times[times <= t_hat + 1e-12]
    nearest = int(np.argmin(np.abs(times - lower[-1]))) if len(lower) else 0
    start = _pick_start(scenario, t_hat, a_star, solutions[nearest].deployment)
    rate, outcome = _solve_duration(scenario, t_hat, config, start=start)
    throughput = (scenario.interval - t_hat) * rate
    curve.append(CurvePoint(t_hat, rate, throughput))
    return TradeoffReport(
        best_t_mov=t_hat,
        best_deployment=outcome.deployment,
        best_rate=rate,
        best_throughput=throughput,
        curve=tuple(curve),
        method=SearchMethod.FITTING,
        t_mov_max=t_max,
        fit=fit,
        converged=outcome.converged,
    )
