"""Antenna placement under movement, spacing, and region constraints.

For a fixed movement duration the reachable set of each antenna is the
intersection of the region with a disk around its initial position. The
non-convex pairwise-spacing constraints are carried by auxiliary anchor
points: spectral projected gradient descent (Barzilai-Borwein steps and a
nonmonotone line search) lowers the trace objective plus a quadratic pull
toward the anchors, the anchors are re-separated to the minimum spacing,
and the pull strength grows geometrically until positions and anchors
agree.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .channel import SINGULAR_COND_LIMIT, trace_objective
from .errors import InfeasibleSpacing, SingularChannel
from .scenario import Deployment, Scenario, Topology, as_positions, min_pair_distance

__all__ = [
    "FEASIBILITY_TOL",
    "PenaltyConfig",
    "OptimizeOutcome",
    "project_box_disk",
    "separate_anchors",
    "optimize_positions",
    "unconstrained_deploy",
]

_MAX_HALVINGS = 60
# trials made one at a time before the rest of a backtracking search is
# scored in one stacked call: most steps accept on the first trial, and a
# stack costs more than one trial but far less than a long run of them
_SINGLE_HALVINGS = 3
# the nonmonotone line search compares against the largest of this many
# recent penalized values and asks for this fraction of the linear decrease
_NONMONOTONE_MEMORY = 10
_ARMIJO = 1e-4
# safeguards of the spectral step: the objective's scale spans many orders
# of magnitude, so the bounds only keep the step finite and positive
_STEP_MIN = 1e-30
_STEP_MAX = 1e30

# the solver's fixed tuning: the anchor pull of the second outer round and
# its growth per round, the step that seeds each loop's first spectral step,
# the loop and round caps, and the largest move (per antenna, wavelengths)
# at which a loop has converged
_RHO_INIT = 1.0
_RHO_GROWTH = 10.0
_PGD_STEP = 1e-3
_PGD_MAX_ITERS = 500
_AO_MAX_ITERS = 12
_GRAD_TOL = 1e-6
# spacing slack of a returned deployment; the outer loop ends once positions
# and anchors agree within half of it
FEASIBILITY_TOL = 1e-4

_STATUS_CONVERGED = 0
_STATUS_MAX_ITERS = 1
_STATUS_SINGULAR = 2
_STATUS_STALLED = 3


@dataclass(frozen=True)
class PenaltyConfig:
    """Starts per solve of the alternating penalty optimizer; the rest of
    its tuning is fixed in module constants."""

    restarts: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OptimizeOutcome:
    """Result of one placement optimization."""

    deployment: Deployment
    objective: float
    outer_iterations: int
    inner_iterations: int
    max_constraint_violation: float
    converged: bool
    gap_history: tuple = field(default=())


def project_box_disk(
    point,
    center,
    radius: float,
    region_side: float,
    topology: Topology = Topology.SQUARE_2D,
) -> np.ndarray:
    """Euclidean-nearest point of the region intersected with the closed disk
    of the given radius around ``center``.

    The intersection is never empty because the disk center is an (in-region)
    initial antenna position. Idempotent up to rounding only: where the
    disk and a region edge both bind, projecting the result again can move
    it by a few ulps (in 20,000 random cases with the center on the y = 0
    edge of a side-10 square, radius up to 3 and points up to 5 outside the
    square, 3,659 moved, by at most 4 ulps of their largest coordinate).
    """
    p = np.asarray(point, dtype=float).reshape(1, 2)
    c = np.asarray(center, dtype=float).reshape(1, 2)
    lo, hi = topology.bounds(region_side)
    return kernels.project_deployment(p, c, float(radius), lo, hi)[0]


def _clip_region(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    np.clip(points[:, 0], lo[0], hi[0], out=points[:, 0])
    np.clip(points[:, 1], lo[1], hi[1], out=points[:, 1])


def separate_anchors(
    deployment,
    min_spacing: float,
    region_side: float | None = None,
    topology: Topology = Topology.SQUARE_2D,
    max_sweeps: int = 100,
    history: list | None = None,
) -> np.ndarray:
    """Move points apart until every pair is at least ``min_spacing`` away,
    staying close to the input in the least-squares sense.

    Violated pairs are pushed apart symmetrically along their difference
    vector (ties broken along +x); once feasible, points are pulled back
    toward their originals as far as the spacing and region allow, one point
    at a time, which never increases the squared displacement. ``history``
    collects the squared-displacement value after each pull sweep.

    Raises
    ------
    InfeasibleSpacing
        If a square-grid packing bound shows the points cannot fit, or the
        repair sweeps fail to reach feasibility.
    """
    pts = as_positions(deployment).copy()
    n = pts.shape[0]
    if min_spacing <= 0 or n < 2:
        return pts
    if region_side is not None:
        per_side = int(math.floor(region_side / min_spacing + 1e-12)) + 1
        capacity = per_side if topology is Topology.SEGMENT_1D else per_side**2
        if n > capacity:
            raise InfeasibleSpacing(
                f"{n} points cannot keep spacing {min_spacing} inside a side-"
                f"{region_side} region (grid packing bound {capacity})"
            )
        lo, hi = topology.bounds(region_side)
    else:
        lo = np.array([-math.inf, -math.inf])
        hi = np.array([math.inf, math.inf])
        if topology is Topology.SEGMENT_1D:
            lo[1] = hi[1] = 0.0

    if min_pair_distance(pts) >= min_spacing - 1e-12:
        return pts

    original = pts.copy()
    for _ in range(max_sweeps):
        moved = False
        for i in range(n):
            for j in range(i + 1, n):
                delta = pts[j] - pts[i]
                dist = float(np.linalg.norm(delta))
                if dist >= min_spacing - 1e-12:
                    continue
                direction = np.array([1.0, 0.0]) if dist < 1e-12 else delta / dist
                shift = 0.5 * (min_spacing - dist)
                pts[i] -= shift * direction
                pts[j] += shift * direction
                moved = True
        _clip_region(pts, lo, hi)
        if not moved and min_pair_distance(pts) >= min_spacing - 1e-12:
            break
    if min_pair_distance(pts) < min_spacing - 1e-9:
        raise InfeasibleSpacing(
            f"failed to separate {n} points to spacing {min_spacing} "
            f"within {max_sweeps} sweeps"
        )

    # pull-back sweeps: slide each point toward its original position up to
    # the largest step that keeps all pairwise distances and region bounds
    prev = float(((pts - original) ** 2).sum())
    for _ in range(50):
        for i in range(n):
            move = original[i] - pts[i]
            if float(np.linalg.norm(move)) < 1e-14:
                continue
            alpha = _max_feasible_step(pts, i, move, min_spacing, lo, hi)
            if alpha > 0.0:
                pts[i] += alpha * move
        current = float(((pts - original) ** 2).sum())
        if history is not None:
            history.append(current)
        if prev - current < 1e-12:
            break
        prev = current
    return pts


def _max_feasible_step(points, i, move, min_spacing, lo, hi) -> float:
    """Largest alpha in [0, 1] so points[i] + alpha*move keeps every pairwise
    distance >= min_spacing and stays inside [lo, hi]."""
    alpha = 1.0
    p = points[i]
    for d in range(2):
        if move[d] > 0:
            alpha = min(alpha, (hi[d] - p[d]) / move[d])
        elif move[d] < 0:
            alpha = min(alpha, (lo[d] - p[d]) / move[d])
    mm = float(move @ move)
    for j in range(points.shape[0]):
        if j == i:
            continue
        rel = p - points[j]
        c0 = float(rel @ rel) - min_spacing**2
        c1 = float(move @ rel)
        # |rel + alpha*move|^2 >= min_spacing^2; roots bound the violation window
        disc = c1 * c1 - mm * c0
        if disc <= 0.0:
            continue
        root = (-c1 - math.sqrt(disc)) / mm
        if root < 0.0:
            # moving in immediately violates (touching pair): no step allowed
            if c0 <= 1e-15 and c1 < 0.0:
                return 0.0
            continue
        alpha = min(alpha, root)
    return max(alpha, 0.0)


def _pgd_loop(
    start: np.ndarray,
    anchors: np.ndarray,
    centers: np.ndarray,
    radius: float,
    lo: np.ndarray,
    hi: np.ndarray,
    directions: np.ndarray,
    amplitudes: np.ndarray,
    wavenumber: float,
    rho: float,
):
    """Spectral projected gradient on trace + rho * ||pos - anchors||^2
    (SPG2 of Birgin, Martinez and Raydan, 2000). Returns the best iterate
    seen as (positions, trace, iterations, status).

    Each iteration projects once, ``d = P(pos - eta g) - pos``, and tries
    ``pos + lam d`` for lam = 1, 1/2, 1/4, ...: lam = 1 is the projected
    point itself, and the shorter steps lie between two feasible points. So
    every iterate lies in the box [lo, hi] exactly and in its disk up to
    rounding, within 2 ulps of its largest coordinate. A trial is accepted by
    a nonmonotone Armijo test against the largest of the last
    ``_NONMONOTONE_MEMORY`` penalized values, less 1e-12 of its size so that
    a pass is a decrease beyond float noise; ``eta`` is the safeguarded
    Barzilai-Borwein step of the accepted move; ``_PGD_STEP`` seeds only
    the first one. The loop converges when ``d`` or an accepted move is at
    most ``_GRAD_TOL`` (largest row norm), stops after ``_PGD_MAX_ITERS``
    iterations and stalls when no lam passes.

    The first trial is scored with ``trace_and_grad``, whose gradient is
    kept if it is accepted. The next ``_SINGLE_HALVINGS - 1`` are scored one
    at a time with ``trace_at``; if none passes, the rest are scored as one
    stack and the first passing one is taken, which is the step the
    one-at-a-time search would take.
    """
    proj = lambda pts: kernels.project_deployment(pts, centers, radius, lo, hi)
    score = lambda pts: kernels.trace_at(
        pts, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
    )[0]
    score_and_grad = lambda pts: kernels.trace_and_grad(
        pts, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
    )[:2]
    pos = proj(start)
    trace, grad = score_and_grad(pos)
    if np.isnan(trace):
        return pos, math.nan, 0, _STATUS_SINGULAR
    penalized = trace + rho * float(((pos - anchors) ** 2).sum())
    g = grad + 2.0 * rho * (pos - anchors)
    recent = collections.deque([penalized], maxlen=_NONMONOTONE_MEMORY)
    best = (penalized, pos, trace)
    eta = _PGD_STEP
    # the step lengths of the stacked tail, exact powers of two as the
    # single trials' repeated halving gives them
    tail = 0.5 ** np.arange(_SINGLE_HALVINGS, _MAX_HALVINGS)
    status = _STATUS_MAX_ITERS
    iters = 0
    for _ in range(_PGD_MAX_ITERS):
        projected = proj(pos - eta * g)
        d = projected - pos
        if np.linalg.norm(d, axis=1).max() <= _GRAD_TOL:
            status = _STATUS_CONVERGED
            break
        # strict decrease beyond float noise, so iterates at the noise floor
        # stall out instead of bouncing at constant value
        ref = max(recent)
        ref -= 1e-12 * abs(ref)
        slope = float((g * d).sum())
        cand, lam = projected, 1.0
        trace_c, grad_c = score_and_grad(cand)
        for k in range(_SINGLE_HALVINGS):
            if k:
                lam *= 0.5
                cand = pos + lam * d
                trace_c, grad_c = score(cand), None
            if not np.isnan(trace_c):
                pen_c = trace_c + rho * float(((cand - anchors) ** 2).sum())
                if pen_c <= ref + _ARMIJO * lam * slope:
                    break
        else:
            # the remaining step lengths; a NaN trace fails the comparison
            cands = pos + tail[:, None, None] * d
            traces = score(cands)
            shifts = ((cands - anchors) ** 2).reshape(len(tail), -1).sum(axis=1)
            pens = traces + rho * shifts
            passed = pens <= ref + _ARMIJO * tail * slope
            if not passed.any():
                status = _STATUS_STALLED
                break
            j = int(np.argmax(passed))
            cand, trace_c, pen_c, grad_c = cands[j], traces[j], pens[j], None
        s = cand - pos
        pos, penalized, trace = cand, pen_c, trace_c
        recent.append(penalized)
        if penalized < best[0]:
            best = (penalized, pos, trace)
        iters += 1
        if np.linalg.norm(s, axis=1).max() <= _GRAD_TOL:
            status = _STATUS_CONVERGED
            break
        if grad_c is None:
            _, grad_c = score_and_grad(pos)
        g_new = grad_c + 2.0 * rho * (pos - anchors)
        sy = float((s * (g_new - g)).sum())
        # a nonpositive curvature along the move gives no spectral step
        eta = float((s * s).sum()) / sy if sy > 0.0 else 2.0 * eta
        eta = min(max(eta, _STEP_MIN), _STEP_MAX)
        g = g_new
    return best[1], best[2], iters, status


def optimize_positions(
    scenario: Scenario,
    t_mov: float,
    config: PenaltyConfig | None = None,
    start=None,
    radius_override: float | None = None,
) -> OptimizeOutcome:
    """Best-found deployment for a fixed movement duration.

    Alternates projected gradient descent with anchor re-separation under a
    growing penalty until positions and anchors agree within half of
    ``FEASIBILITY_TOL``. The returned deployment lies in the region
    exactly, in the disks up to rounding (within 2 ulps of its largest
    coordinate) and keeps the pairwise spacing within ``FEASIBILITY_TOL``;
    its objective never exceeds the objective of the initial
    deployment. Optional multi-starts jitter the starting point
    deterministically; the best feasible result wins (ties keep the earliest
    restart).
    """
    if t_mov < 0:
        raise ValueError("t_mov must be nonnegative")
    restarts = (config or PenaltyConfig()).restarts
    radius = scenario.max_speed * t_mov if radius_override is None else float(radius_override)
    initial = scenario.initial_positions.coords
    f_initial = trace_objective(scenario, initial)
    if radius <= 0.0:
        # zero reach pins every antenna at its start regardless of warm start
        return OptimizeOutcome(
            deployment=scenario.initial_positions,
            objective=f_initial,
            outer_iterations=0,
            inner_iterations=0,
            max_constraint_violation=0.0,
            converged=True,
        )

    lo, hi = scenario.region_bounds()
    directions = scenario.direction_vectors()
    amplitudes = scenario.amplitudes()
    d_min = scenario.min_spacing
    spacing_ok = lambda pts: min_pair_distance(pts) >= d_min - FEASIBILITY_TOL

    # the initial deployment is feasible for every duration: never do worse
    best_obj = f_initial
    best_pts = initial
    best_run = (0, 0, True, ())
    rng = np.random.default_rng(0)
    jitter_scale = min(radius, scenario.region_side / 4.0)

    for restart in range(restarts):
        if restart == 0:
            pts = initial if start is None else as_positions(start)
        else:
            pts = initial + rng.uniform(-jitter_scale, jitter_scale, initial.shape)
        pts = kernels.project_deployment(pts, initial, radius, lo, hi)
        run_obj = math.inf
        run_pts = None
        if spacing_ok(pts):
            trace, _ = kernels.trace_at(
                pts, directions, amplitudes, scenario.wavenumber, SINGULAR_COND_LIMIT
            )
            if not np.isnan(trace):
                run_obj, run_pts = float(trace), pts.copy()

        anchors = separate_anchors(
            pts, d_min, region_side=scenario.region_side, topology=scenario.topology
        )
        # first round descends the raw objective; the anchor pull only kicks
        # in once re-separation shows which spacing constraints bind
        rho = 0.0
        gaps = []
        inner_total = 0
        converged = False
        outer = 0
        for outer in range(1, _AO_MAX_ITERS + 1):
            pts, trace, inner, status = _pgd_loop(
                pts,
                anchors,
                initial,
                radius,
                lo,
                hi,
                directions,
                amplitudes,
                scenario.wavenumber,
                rho,
            )
            if status == _STATUS_SINGULAR:
                raise SingularChannel("channel is singular at the starting deployment")
            inner_total += inner
            anchors = separate_anchors(
                pts, d_min, region_side=scenario.region_side, topology=scenario.topology
            )
            gap = float(np.linalg.norm(pts - anchors, axis=1).max())
            gaps.append(gap)
            if spacing_ok(pts) and trace < run_obj:
                run_obj, run_pts = float(trace), pts.copy()
            if gap <= FEASIBILITY_TOL / 2.0:
                converged = True
                break
            rho = _RHO_INIT if rho == 0.0 else rho * _RHO_GROWTH
        if run_pts is not None and run_obj < best_obj:
            best_obj, best_pts = run_obj, run_pts
            best_run = (outer, inner_total, converged, tuple(gaps))
        elif restart == 0 and best_pts is initial:
            best_run = (outer, inner_total, converged, tuple(gaps))

    violation = max(0.0, d_min - min_pair_distance(best_pts))
    return OptimizeOutcome(
        deployment=Deployment(best_pts),
        objective=best_obj,
        outer_iterations=best_run[0],
        inner_iterations=best_run[1],
        max_constraint_violation=violation,
        converged=best_run[2],
        gap_history=best_run[3],
    )


def unconstrained_deploy(
    scenario: Scenario, config: PenaltyConfig | None = None, start=None
) -> OptimizeOutcome:
    """Placement optimization with the movement-speed limit inactive: the
    per-antenna disks are widened to cover the whole region."""
    if scenario.topology is Topology.SEGMENT_1D:
        reach = scenario.region_side
    else:
        reach = scenario.region_side * math.sqrt(2.0)
    return optimize_positions(scenario, 0.0, config=config, start=start, radius_override=reach)
