"""Antenna placement under movement, spacing, and region constraints.

For a fixed movement duration the reachable set of each antenna is the
intersection of the region with a disk around its initial position. The
non-convex pairwise-spacing constraints are carried by auxiliary anchor
points: projected gradient descent lowers the trace objective plus a
quadratic pull toward the anchors, the anchors are re-separated to the
minimum spacing, and the pull strength grows geometrically until positions
and anchors agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .channel import SINGULAR_COND_LIMIT, trace_objective
from .errors import InfeasibleSpacing, SingularChannel
from .scenario import Deployment, Scenario, Topology, as_positions, min_pair_distance

__all__ = [
    "PenaltyConfig",
    "OptimizeOutcome",
    "project_box_disk",
    "pgd_optimize",
    "separate_anchors",
    "optimize_positions",
    "unconstrained_deploy",
]

_MAX_HALVINGS = 60
# halvings tried one at a time before the rest of a backtracking search is
# scored in one stacked call: most steps accept within three halvings, and a
# stack costs more than one trial but far less than a long run of them
_SINGLE_HALVINGS = 3

_STATUS_CONVERGED = 0
_STATUS_MAX_ITERS = 1
_STATUS_SINGULAR = 2
_STATUS_STALLED = 3


@dataclass(frozen=True)
class PenaltyConfig:
    """Tuning knobs for the alternating penalty optimizer."""

    rho_init: float = 1.0
    rho_growth: float = 10.0
    pgd_step: float = 1e-3
    pgd_max_iters: int = 500
    ao_max_iters: int = 12
    feasibility_tol: float = 1e-4
    grad_tol: float = 1e-6
    restarts: int = 1
    restart_seed: int = 0

    def __post_init__(self):
        if self.rho_growth <= 1.0:
            raise ValueError("rho_growth must exceed 1")
        for name in ("rho_init", "pgd_step", "feasibility_tol", "grad_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pgd_max_iters < 1 or self.ao_max_iters < 1 or self.restarts < 1:
            raise ValueError("iteration and restart counts must be >= 1")


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
    cfg: PenaltyConfig,
):
    """Projected gradient descent on trace + rho * ||pos - anchors||^2 with
    backtracking halving; every iterate satisfies the disk and region
    constraints exactly. Returns (positions, trace, iterations, status).

    A backtracking search tries up to ``_MAX_HALVINGS`` step lengths and
    takes the first that lowers the penalized objective. The first
    ``_SINGLE_HALVINGS`` are tried one at a time; if none passes, the rest
    are projected and scored as one stack and the first passing one is
    taken, which is the step the one-at-a-time search would take. If none
    of them passes the search stalls.
    """
    proj = lambda pts: kernels.project_deployment(pts, centers, radius, lo, hi)
    pos = proj(start)
    trace, grad, _ = kernels.trace_and_grad(
        pos, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
    )
    if np.isnan(trace):
        return pos, math.nan, 0, _STATUS_SINGULAR
    penalized = trace + rho * float(((pos - anchors) ** 2).sum())
    # the nominal step only seeds the adaptive scheme: the objective scale
    # varies over many orders of magnitude with the fading coefficients, so
    # the step doubles on accepted moves and halves on backtracks
    eta = cfg.pgd_step
    eta_cap = cfg.pgd_step * 1e9
    status = _STATUS_MAX_ITERS
    iters = 0
    for _ in range(cfg.pgd_max_iters):
        g = grad + 2.0 * rho * (pos - anchors)
        # strict decrease beyond float noise, so boundary-pinned iterates
        # stall out instead of bouncing at constant value
        target = penalized - 1e-12 * abs(penalized)
        accepted = False
        for _ in range(_SINGLE_HALVINGS):
            cand = proj(pos - eta * g)
            trace_c, _ = kernels.trace_at(
                cand, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
            )
            if not np.isnan(trace_c):
                pen_c = trace_c + rho * float(((cand - anchors) ** 2).sum())
                if pen_c <= target:
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            # the remaining step lengths, halved one after another as the
            # single trials do; a NaN trace fails the comparison
            etas = np.full(_MAX_HALVINGS - _SINGLE_HALVINGS, 0.5)
            etas[0] = eta
            np.multiply.accumulate(etas, out=etas)
            cands = proj(pos - etas[:, None, None] * g)
            traces, _ = kernels.trace_at(
                cands, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
            )
            shifts = ((cands - anchors) ** 2).reshape(len(etas), -1).sum(axis=1)
            pens = traces + rho * shifts
            passed = pens <= target
            if not passed.any():
                status = _STATUS_STALLED
                break
            j = int(np.argmax(passed))
            eta, cand, trace_c, pen_c = etas[j], cands[j], traces[j], pens[j]
        move = float(np.linalg.norm(cand - pos, axis=1).max())
        pos, penalized, trace = cand, pen_c, trace_c
        iters += 1
        if move <= cfg.grad_tol:
            status = _STATUS_CONVERGED
            break
        _, grad, _ = kernels.trace_and_grad(
            pos, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
        )
        eta = min(eta * 2.0, eta_cap)
    return pos, trace, iters, status


def pgd_optimize(
    scenario: Scenario,
    t_mov: float,
    anchors,
    rho: float,
    config: PenaltyConfig | None = None,
    start=None,
    radius: float | None = None,
) -> Deployment:
    """One inner position update: minimize trace + rho * distance-to-anchors
    over the per-antenna disk/region sets for the given movement duration."""
    if t_mov < 0:
        raise ValueError("t_mov must be nonnegative")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    cfg = config or PenaltyConfig()
    anchors = as_positions(anchors)
    if anchors.shape[0] != scenario.num_antennas:
        raise ValueError("anchor count does not match the scenario")
    centers = scenario.initial_positions.coords
    lo, hi = scenario.region_bounds()
    r = scenario.max_speed * t_mov if radius is None else float(radius)
    start_pts = centers if start is None else as_positions(start)
    pos, _, _, status = _pgd_loop(
        start_pts,
        anchors,
        centers,
        r,
        lo,
        hi,
        scenario.direction_vectors(),
        scenario.amplitudes(),
        scenario.wavenumber,
        rho,
        cfg,
    )
    if status == _STATUS_SINGULAR:
        raise SingularChannel("channel is singular at the starting deployment")
    return Deployment(pos)


def optimize_positions(
    scenario: Scenario,
    t_mov: float,
    config: PenaltyConfig | None = None,
    start=None,
    radius_override: float | None = None,
) -> OptimizeOutcome:
    """Best-found deployment for a fixed movement duration.

    Alternates projected gradient descent with anchor re-separation under a
    growing penalty until positions and anchors agree within half the
    feasibility tolerance. The returned deployment satisfies the disk and
    region constraints exactly and the pairwise spacing within the
    feasibility tolerance, and its objective never exceeds the objective of
    the initial deployment. Optional multi-starts jitter the starting point
    deterministically; the best feasible result wins (ties keep the earliest
    restart).
    """
    if t_mov < 0:
        raise ValueError("t_mov must be nonnegative")
    cfg = config or PenaltyConfig()
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
    spacing_ok = lambda pts: min_pair_distance(pts) >= d_min - cfg.feasibility_tol

    # the initial deployment is feasible for every duration: never do worse
    best_obj = f_initial
    best_pts = initial
    best_run = (0, 0, True, ())
    rng = np.random.default_rng(cfg.restart_seed)
    jitter_scale = min(radius, scenario.region_side / 4.0)

    for restart in range(cfg.restarts):
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
        for outer in range(1, cfg.ao_max_iters + 1):
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
                cfg,
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
            if gap <= cfg.feasibility_tol / 2.0:
                converged = True
                break
            rho = cfg.rho_init if rho == 0.0 else rho * cfg.rho_growth
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
