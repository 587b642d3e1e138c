"""Choosing the movement duration: exhaustive grid search over durations and
the low-cost alternative that fits a growth model to a few sampled
rate-duration pairs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import kernels
from .channel import _positions, achievable_rate, kernel_args, rate_of_trace, reach_rate_ceiling
from .errors import FitDiverged, MovantError
from .positioning import (
    FEASIBILITY_TOL,
    OptimizeOutcome,
    _lane_projection,
    _optimize_stack,
    optimize_positions,
    unconstrained_deploy,
)
from .scenario import Deployment, Scenario, min_pair_distance

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
# the most gradient steps of a guide-started duration solve that still
# counts toward the run that opens the chain's window: a solve the guide
# settles outright costs a stacked solve next to nothing, while a lane
# that iterates costs about what it would alone, and a discarded one is
# lost
SETTLED_ITERATIONS = 0


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
    ``converged`` is False where the sigmoid's Gauss-Newton iteration
    stopped at ``GAUSS_NEWTON_MAX_ITERS`` or at its damping cap rather than
    on a settled residual; a quadratic fit is exact, so always True.
    """

    kind: FitKind
    coefficients: tuple
    residual_sse: float
    sample_count: int
    converged: bool = True

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


def _solve_duration(scenario: Scenario, t_mov: float, start=None) -> tuple[float, OptimizeOutcome]:
    outcome = optimize_positions(scenario, t_mov, start=start)
    rate = achievable_rate(scenario, outcome.deployment)
    return rate, outcome


def _check_grid_step(step) -> None:
    # NaN would end the grid after t = 0, inf would solve t = 0 alone, and
    # True is no step
    if (
        isinstance(step, bool)
        or not isinstance(step, numbers.Real)
        or not (math.isfinite(step) and step > 0)
    ):
        raise ValueError(f"grid_step must be positive and finite, got {step!r}")


def _check_guide(scenario: Scenario, guide) -> None:
    # a guide of another size would fail every positive duration's solve
    if guide is not None:
        _positions(scenario, guide)


def _check_samples(samples) -> None:
    if not isinstance(samples, numbers.Integral) or samples < 4:
        raise ValueError(f"samples must be an integer >= 4, got {samples!r}")


def _fixed_duration_report(
    scenario: Scenario, t_mov: float, deployment: Deployment, converged: bool
) -> TradeoffReport:
    """Report of one deployment held for a fixed movement duration."""
    rate = achievable_rate(scenario, deployment)
    throughput = (scenario.interval - t_mov) * rate
    return TradeoffReport(
        best_t_mov=t_mov,
        best_deployment=deployment,
        best_rate=rate,
        best_throughput=throughput,
        curve=(CurvePoint(t_mov, rate, throughput),),
        method=SearchMethod.STATIONARY,
        t_mov_max=t_mov,
        converged=converged,
    )


def _solve_window(scenario: Scenario, durations: list, warm, guide: Deployment | None) -> list:
    """Solve the first of ``durations`` from the candidates ``warm`` and
    ``guide`` (None for none; with neither, from the initial deployment, as
    a chain without a guide solves t = 0), with guide-started lanes for the
    rest stacked beside it in one ``_optimize_stack`` call, which checks
    the guide they share once; a window of one duration is one
    ``optimize_positions`` call. Returns the (t, outcome,
    settled, (trace, cond)) of each duration the chain keeps, in order: settled
    means that the guide started the solve and it took at most
    ``SETTLED_ITERATIONS`` gradient steps, and (trace, cond) is
    ``kernels.trace_at`` at its deployment, from one stacked call over the
    lanes. After a miss they are fewer than ``durations``, and the duration
    after them starts from the last of them.

    A stacked lane is kept while the chain's own pick would start it from
    the guide: while the guide's start score is below the previous lane's
    trace, non-finite values counting as infinite and a tie going to the
    previous lane. A deployment lies in the box exactly and in its disks up
    to rounding, so the next reach leaves it as it is unless it grows by
    less; one that it moves is scored moved, in the same call. A kept lane
    thus equals the chain's own solve bit for bit. A stack raises what any
    of its lanes raises.
    """
    first = durations[0]
    starts = [d for d in (warm, guide) if d is not None]
    settles = lambda outcome: outcome.inner_iterations <= SETTLED_ITERATIONS
    if len(durations) > 1:
        found = _optimize_stack(scenario, [(first, starts)] + [(t, guide) for t in durations[1:]])
    else:
        found = [(optimize_positions(scenario, first, start=starts or None), None)]
    pts = np.array([outcome.deployment.coords for outcome, _ in found])
    moved, stack = [], pts
    if len(pts) > 1:
        # each lane's deployment projected into the next lane's reach
        reach = scenario.max_speed * np.array(durations[1:])
        initial = scenario.initial_positions.coords
        ahead = _lane_projection(initial, reach, *scenario.region_bounds())(pts[:-1], reach)
        moved = np.flatnonzero((ahead != pts[:-1]).any(axis=(1, 2))).tolist()
        stack = np.concatenate([pts, ahead[moved]])
    traces, conds = (x.tolist() for x in kernels.trace_at(stack, *kernel_args(scenario)))
    previous = dict(zip(moved, traces[len(pts) :]))
    finite = lambda x: x if math.isfinite(x) else math.inf
    outcome = found[0][0]
    kept = [(first, outcome, outcome.start == len(starts) - 1 and settles(outcome))]
    for i, (t, (lane, score)) in enumerate(zip(durations[1:], found[1:])):
        if not finite(score) < finite(previous.get(i, traces[i])):
            break
        kept.append((t, lane, settles(lane)))
    return [(*lane, (trace, cond)) for lane, trace, cond in zip(kept, traces, conds)]


def _guide_floor(scenario: Scenario, durations: list, guide) -> float:
    """The most throughput (interval - t) * rate that the guide gives at
    any of the positive ``durations``, projected into the reach of t,
    counting only the projections that keep the spacing (-inf if none
    does). A solve never ends worse than a spacing-feasible start, so a
    chain whose solves start from the guide finds at least this much, and
    its bound stop at this floor rules out no duration that the chain
    solves. One projection and one ``trace_at`` call over the durations."""
    grid = np.array(durations)
    reach = scenario.max_speed * grid
    proj = _lane_projection(scenario.initial_positions.coords, reach, *scenario.region_bounds())
    pts = proj(np.repeat(_positions(scenario, guide)[None], len(grid), axis=0), reach)
    traces, _ = kernels.trace_at(pts, *kernel_args(scenario))
    # a singular projection has a NaN trace, and so a NaN throughput
    gains = (scenario.interval - grid) * np.log2(1.0 + scenario.snr_scale / traces)
    spaced = min_pair_distance(pts) >= scenario.min_spacing - FEASIBILITY_TOL
    return float(gains.max(initial=-math.inf, where=spaced & np.isfinite(gains)))


def _duration_chain(
    scenario: Scenario,
    durations: list,
    guide: Deployment | None,
    method: SearchMethod,
    t_mov_max: float,
    stop_at_bound: bool = False,
) -> tuple[TradeoffReport, list]:
    """Solve the increasing ``durations`` in turn and report the throughput
    maximizer (the first duration on a tie), with the (t, deployment) pair of
    every solved duration.

    Each solve gets the previous solution (if any) and ``guide`` as candidate
    starts, and ``optimize_positions`` starts from the one that evaluates
    better once pulled into the reachable set; the previous solution stays
    feasible because the reachable disks only grow.
    A duration whose solve raises a ``MovantError`` or ``ValueError`` is
    recorded in ``failures`` with a NaN curve point and skipped; other errors
    propagate, and so does a chain in which every duration fails.

    A solve that starts from the guide does not depend on the chain before
    it, so the chain speculates on runs of them (``_solve_window``): the
    next duration rides as the first lane of one stacked solve, beside
    guide-started lanes for the durations after it. The window opens once
    the guide has settled two durations in a row (started them and ended
    them within ``SETTLED_ITERATIONS`` gradient steps) and drops back to
    one duration after a miss, a stack that raises or any other duration,
    so a chain the previous solution leads, that alternates between the two
    starts or whose solves iterate pays nothing extra. An open window takes
    every remaining duration that the bound stop leaves at the larger of
    the best throughput so far and the guide floor (``_guide_floor``, made
    once, when the first window opens): a settled run thus goes to the
    stop in one stacked solve. The floor only sizes the window, and the
    kept lanes still end at the stop that the best found sets, so every
    report is the one-duration-at-a-time chain's, bit for bit. The error
    of a stack that raises may be any lane's, so the chain goes on one
    duration at a time, from the window's first, until a duration fails
    alone or the chain passes the window: a failing duration costs at most
    one stacked solve.

    With ``stop_at_bound`` the chain ends before the first duration t at
    which every later duration t' (t included) has (interval - t') * R(t')
    at most the best throughput found, with R(t') the larger of the
    certified ``reach_rate_ceiling`` at the reach max_speed * t' and the
    best solved rate (above it only were rounding to put one there): no
    later duration can beat the best. Below the speed threshold the
    ceiling often proves the stay right after the solve at t = 0. The
    curve is then the full chain's prefix with the same best.

    ``guide`` None is solved here, single-start (``unconstrained_deploy``),
    once the chain first reaches a positive duration: a chain that the
    bound stops at t = 0 makes no placement solve.
    """
    curve = []
    failures = []
    solved = []
    best = None  # (throughput, t, rate, deployment, converged)
    warm = None
    # with the bound stop, the most throughput that each duration and the
    # durations after it could give at the reach ceiling (once the chain
    # has a best), and the best solved rate
    later, top_rate = None, -math.inf

    def stopped(j, level=-math.inf):
        """Whether the bound stop rules out ``durations[j]`` and every
        duration after it, at the best throughput found or at ``level`` if
        that is higher."""
        nonlocal later
        if not stop_at_bound or best is None:
            return False
        if later is None:
            # a best means that the initial channel is regular, as the
            # ceiling needs
            grid = np.array(durations)
            ceiling = reach_rate_ceiling(scenario, scenario.max_speed * grid)
            later = np.maximum.accumulate(((scenario.interval - grid) * ceiling)[::-1])
            later = later[::-1].tolist()
        t = durations[j]
        return max(later[j], (scenario.interval - t) * top_rate) <= max(best[0], level)

    # the index of the next duration, how many durations in a row before it
    # the guide settled, the guide floor once a window has opened, and the
    # index before which no window opens
    i, run, floor, fence = 0, 0, None, 0
    while i < len(durations) and not stopped(i):
        end = i + 1
        if run >= 2 and i >= fence:
            # the bound stop rules out the rest from the first duration on
            # that it rules out: its bound falls with the duration
            if floor is None:
                floor = _guide_floor(scenario, durations[i:], guide) if stop_at_bound else -math.inf
            end = next((j for j in range(end, len(durations)) if stopped(j, floor)), len(durations))
        window = durations[i:end]
        if guide is None and window[-1] > 0.0:
            guide = unconstrained_deploy(scenario).deployment
        try:
            kept = _solve_window(scenario, window, warm, guide)
        except (MovantError, ValueError) as exc:
            if len(window) > 1:
                # the error may be any lane's: one duration at a time until
                # one fails alone or the chain passes the window
                fence = end
            else:
                failures.append((durations[i], str(exc)))
                curve.append(CurvePoint(durations[i], math.nan, math.nan))
                i, run, fence = i + 1, 0, 0
            continue
        for t, outcome, settled, traced in kept:
            if stopped(i):
                break
            i += 1
            try:
                rate = rate_of_trace(scenario, *traced)
            except (MovantError, ValueError) as exc:
                # a failed duration like any other: the kept lanes after it
                # were picked against its outcome, so they go
                failures.append((t, str(exc)))
                curve.append(CurvePoint(t, math.nan, math.nan))
                run = 0
                break
            warm = outcome.deployment
            solved.append((t, warm))
            top_rate = max(top_rate, rate)
            throughput = (scenario.interval - t) * rate
            curve.append(CurvePoint(t, rate, throughput))
            if best is None or throughput > best[0]:
                best = (throughput, t, rate, warm, outcome.converged)
            run = run + 1 if settled else 0
        # a miss: the next duration starts from the previous solution
        if len(kept) < len(window):
            run = 0
    if best is None:
        raise MovantError("every duration sample failed")
    report = TradeoffReport(
        best_t_mov=best[1],
        best_deployment=best[3],
        best_rate=best[2],
        best_throughput=best[0],
        curve=tuple(curve),
        method=method,
        t_mov_max=t_mov_max,
        converged=best[4],
        failures=tuple(failures),
    )
    return report, solved


def rate_at_duration(scenario: Scenario, t_mov: float) -> float:
    """Achievable common rate after optimizing positions for ``t_mov``."""
    if not 0.0 <= t_mov <= scenario.interval:
        raise ValueError(f"t_mov must lie in [0, {scenario.interval}]")
    rate, _ = _solve_duration(scenario, t_mov)
    return rate


def general_search(
    scenario: Scenario, grid_step: float | None = None, guide: Deployment | None = None
) -> TradeoffReport:
    """Evaluate the throughput on the duration grid {0, step, 2*step, ...}
    below the interval length and return the maximizer (ties break toward the
    smallest duration).

    Durations are processed in increasing order; each solve gets the previous
    solution and the speed-free optimum as candidate starts, and
    ``optimize_positions`` starts from the one that evaluates better once
    pulled into the reachable set (the previous solution stays feasible
    because the reachable disks only grow). A duration whose solve raises a
    ``MovantError`` or ``ValueError`` is recorded in ``failures`` and
    skipped; other errors propagate. ``guide`` is the speed-free optimum
    (``unconstrained_deploy``); without one it is solved here, single-start,
    once the search first reaches a positive duration.

    The search stops before the first grid duration t from which on every
    grid duration t' has (interval - t') * R(t') at most the best
    throughput found so far, where R(t') is the certified
    ``reach_rate_ceiling`` at the reach max_speed * t', which no deployment
    within that reach beats (or a solved rate above it, were rounding to
    put one there); the curve ends there and the reported best is the one
    the whole grid gives. Below the speed threshold the ceiling often
    proves the stay at once: the curve is the point t = 0 and no placement
    solve runs, not even the guide's. Every duration solve is
    single-start, so the position optimizer runs once per curve point,
    plus once when no guide is given and the search moves past t = 0, and
    once per stacked lane the chain discards (``_duration_chain``). At zero
    speed the antennas cannot move: the initial deployment is reported at
    duration 0 without running the optimizer. A ``grid_step`` that is not a
    finite positive real number (a bool included) and a ``guide`` that
    ``channel._positions`` rejects raise ``ValueError`` before any solve.
    """
    if grid_step is not None:
        _check_grid_step(grid_step)
    _check_guide(scenario, guide)
    step = scenario.interval / 400.0 if grid_step is None else float(grid_step)
    if scenario.max_speed == 0:
        return _fixed_duration_report(scenario, 0.0, scenario.initial_positions, True)
    durations, index = [], 0
    while index * step < scenario.interval - 1e-12:
        durations.append(index * step)
        index += 1

    report, _ = _duration_chain(
        scenario,
        durations,
        guide,
        SearchMethod.GENERAL_SEARCH,
        scenario.interval,
        stop_at_bound=True,
    )
    return report


def compute_t_mov_max(
    scenario: Scenario, guide: Deployment | None = None
) -> tuple[float, Deployment]:
    """Longest movement duration worth considering, with the speed-free
    optimal deployment that defines it: ``guide`` as given (a
    ``Deployment`` or (N, 2) positions), else a single-start
    ``unconstrained_deploy`` solve.

    The travel time is the largest per-antenna distance to the speed-free
    optimum divided by the speed limit; if it reaches the interval, the whole
    interval stays in play. Zero speed and a ``guide`` that
    ``channel._positions`` rejects raise ``ValueError``."""
    if scenario.max_speed <= 0:
        raise ValueError("max_speed must be positive")
    _check_guide(scenario, guide)
    a_star = unconstrained_deploy(scenario).deployment if guide is None else guide
    shifts = _positions(scenario, a_star) - scenario.initial_positions.coords
    travel = float(np.linalg.norm(shifts, axis=1).max()) / scenario.max_speed
    t_max = scenario.interval if travel >= scenario.interval else travel
    return t_max, a_star


def fit_rate_model(samples, kind: FitKind) -> FitModel:
    """Least-squares fit of the rate-versus-duration samples.

    Quadratic fits are solved exactly on the monomial basis; sigmoidal fits
    use damped Gauss-Newton. A fit that cannot beat the best constant model
    or that violates the model's sign constraints raises FitDiverged; a
    sample with a non-finite duration or rate raises ``ValueError``.
    """
    pairs = np.asarray(list(samples), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("samples must be (t, rate) pairs")
    if not np.isfinite(pairs).all():
        bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))[0]
        raise ValueError(f"sample {bad} is not finite: {tuple(pairs[bad].tolist())}")
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

    params, sse, converged = _fit_sigmoid(t, y)
    if not np.all(np.isfinite(params)) or params[1] <= 0 or params[3] <= 0:
        raise FitDiverged("sigmoidal fit violates its sign constraints")
    if sse > sse_const:
        raise FitDiverged("sigmoidal fit does not beat a constant model")
    return FitModel(
        FitKind.SIGMOIDAL, tuple(float(p) for p in params), float(sse), len(t), converged
    )


def _sigmoid_eval(t, params):
    c1, c2, c3, c4 = params
    s = 1.0 / (1.0 + np.exp(-(c3 + c4 * t)))
    return c1 + c2 * s, s


def _fit_sigmoid(t, y):
    """Damped Gauss-Newton on the four sigmoid coefficients.

    Damping is multiplied by 10 whenever a step increases the squared
    residual and divided by 10 on success; iteration stops when the relative
    SSE change drops below GAUSS_NEWTON_SSE_RTOL. Returns (parameters, SSE,
    converged), converged being False where the iteration or damping cap
    ended the loop instead.
    """
    span = float(y.max() - y.min())
    slopes = np.diff(y) / np.diff(t)
    steepest = int(np.argmax(slopes))
    t_inflect = 0.5 * (t[steepest] + t[steepest + 1])
    c2 = 1.1 * span if span > 0 else 1.0
    c4 = 4.0 * float(slopes.max()) / c2 if span > 0 else 1.0
    params = np.array([float(y.min()) - 0.05 * span, c2, -c4 * t_inflect, c4])

    pred, s = _sigmoid_eval(t, params)
    sse = float(((pred - y) ** 2).sum())
    damping = DAMPING_INIT
    converged = False
    for _ in range(GAUSS_NEWTON_MAX_ITERS):
        resid = pred - y
        columns = [np.ones_like(t), s, params[1] * s * (1.0 - s), params[1] * t * s * (1.0 - s)]
        jac = np.stack(columns, axis=1)
        jtj = jac.T @ jac
        rhs = -jac.T @ resid
        try:
            delta = np.linalg.solve(jtj + damping * np.eye(4), rhs)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        trial = params + delta
        pred_t, s_t = _sigmoid_eval(t, trial)
        sse_t = float(((pred_t - y) ** 2).sum())
        if sse_t <= sse:
            improved = sse - sse_t
            params, pred, s = trial, pred_t, s_t
            damping = max(damping / 10.0, 1e-15)
            converged = improved <= GAUSS_NEWTON_SSE_RTOL * max(sse, 1e-30)
            sse = sse_t
            if converged:
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    return params, sse, converged


def fitting_method(
    scenario: Scenario, samples: int = 5, guide: Deployment | None = None
) -> TradeoffReport:
    """Low-cost duration selection from a handful of sampled rates.

    Runs the grid search's warm-started chain on ``samples`` uniformly spaced
    durations on [0, t_mov_max], with the same failure policy: a sample whose
    solve raises a ``MovantError`` or ``ValueError`` is recorded in
    ``failures`` with a NaN rate. Both model kinds are fitted to the samples
    that succeeded, the lower-SSE fit is kept and (interval - t) * g(t) is
    maximized by a dense one-dimensional search. The chosen duration is then
    re-optimized for real from the better of the nearest lower solved sample
    and the speed-free optimum, so the reported throughput is never a model
    extrapolation. If no fit survives, the best of the sampled durations is
    returned instead.
    ``guide`` is the speed-free optimum (``unconstrained_deploy``) that sets
    t_mov_max; without one it is solved here, single-start. Every duration
    solve is single-start, so the position optimizer runs at most
    ``samples + 1`` times given a guide (one run per sample and the final
    re-optimization) and ``samples + 2`` times without, plus once per
    stacked lane the chain discards. ``samples`` must be an integer of at
    least 4, and ``guide`` as ``general_search`` takes it, else
    ``ValueError`` before any solve. At zero speed, or when the initial
    deployment is already speed-free optimal, the initial deployment is
    reported at duration 0 after at most the speed-free solve.
    """
    _check_samples(samples)
    _check_guide(scenario, guide)
    t_max = 0.0
    if scenario.max_speed > 0:
        t_max, a_star = compute_t_mov_max(scenario, guide=guide)
    if t_max <= 1e-12:
        stay = _fixed_duration_report(scenario, 0.0, scenario.initial_positions, True)
        return replace(stay, t_mov_max=t_max)

    times = np.linspace(0.0, t_max, samples).tolist()
    sampled, solved = _duration_chain(scenario, times, a_star, SearchMethod.FITTING, t_max)
    pairs = [(p.t_mov, p.rate) for p in sampled.curve if not math.isnan(p.rate)]
    fits = []
    for kind in (FitKind.QUADRATIC, FitKind.SIGMOIDAL):
        try:
            fits.append(fit_rate_model(pairs, kind))
        except (FitDiverged, ValueError):  # ValueError: too few samples succeeded
            continue
    if not fits:
        return sampled

    fit = min(fits, key=lambda f: f.residual_sse)
    grid = np.linspace(0.0, t_max, DENSE_SEARCH_POINTS + 1)
    approx = (scenario.interval - grid) * fit.predict(grid)
    t_hat = float(grid[np.argmax(approx)])

    # the nearest lower solved sample, if any, and the speed-free optimum
    starts = [d for t, d in solved if t <= t_hat + 1e-12][-1:] + [a_star]
    rate, outcome = _solve_duration(scenario, t_hat, start=starts)
    throughput = (scenario.interval - t_hat) * rate
    return replace(
        sampled,
        best_t_mov=t_hat,
        best_deployment=outcome.deployment,
        best_rate=rate,
        best_throughput=throughput,
        curve=sampled.curve + (CurvePoint(t_hat, rate, throughput),),
        fit=fit,
        converged=outcome.converged,
    )
