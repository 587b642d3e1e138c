"""Antenna placement under movement, spacing, and region constraints.

For a fixed movement duration the reachable set of each antenna is the
intersection of the region with a disk around its initial position. The
non-convex pairwise-spacing constraints are carried by auxiliary anchor
points: spectral projected gradient descent (Barzilai-Borwein steps and a
nonmonotone line search) lowers log tr(G^-1) plus a quadratic pull toward
the anchors, the anchors are re-separated to the minimum spacing, and the
pull strength grows geometrically until positions and anchors agree. The
first round runs without the pull, so the first anchors are separated from
its result. The log makes the descent independent of the channel's scale:
tr(G^-1) spans more than ten orders of magnitude across scenarios and
layouts, while the solver's step seed, pull schedule and tolerances are
fixed numbers.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .channel import kernel_args, trace_objective
from .errors import InfeasibleSpacing, SingularChannel
from .scenario import Deployment, Scenario, Topology, as_positions, min_pair_distance

__all__ = [
    "FEASIBILITY_TOL",
    "PenaltyConfig",
    "OptimizeOutcome",
    "separate_anchors",
    "optimize_positions",
    "unconstrained_deploy",
]

# the nonmonotone line search compares against the largest of this many
# recent penalized values and asks for this fraction of the linear decrease
_NONMONOTONE_MEMORY = 10
_ARMIJO = 1e-4
# cap of the spectral step: the anchor pull's strength spans ten orders of
# magnitude over the outer rounds, so the cap only keeps the step finite
_STEP_MAX = 1e30

# the solver's fixed tuning: the anchor pull of the second outer round and
# its growth per round, the step that seeds each loop's first spectral step,
# the loop and round caps, the largest move (per antenna, wavelengths) at
# which a loop has converged, and the least fall of a loop's best penalized
# value (log units) across its last 2 * _NONMONOTONE_MEMORY iterates that
# keeps it running
_RHO_INIT = 1.0
_RHO_GROWTH = 10.0
_PGD_STEP = 1e-3
_PGD_MAX_ITERS = 500
_AO_MAX_ITERS = 12
_GRAD_TOL = 1e-6
_PROGRESS_TOL = 1e-5
# push sweeps of the anchor separation before it gives up, and the
# fraction beyond the minimum spacing that a push aims for, so that a pair
# lands clear of the spacing in one push rather than geometrically
_SEPARATION_SWEEPS = 1000
_SEPARATION_MARGIN = 1e-6
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
        # a float count would fail later, inside the solve; True is no count
        count = self.restarts
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"restarts must be an integer >= 1, got {count!r}")


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


@functools.cache
def _split_directions(n: int, topology: Topology) -> np.ndarray:
    """The (n, n, 2) unit vectors along which coincident points i and j
    split, entry [i, j] pointing from i to j: +x on a segment; in a square,
    pair k of the P pairs i < j (row-major) at angle pi k / P. Read-only,
    since every call with the same arguments shares it."""
    i, j = np.triu_indices(n, 1)
    if topology is Topology.SEGMENT_1D:
        angle = np.zeros(i.size)
    else:
        angle = np.pi * np.arange(i.size) / i.size
    tie = np.zeros((n, n, 2))
    tie[i, j] = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    tie[j, i] = -tie[i, j]
    tie.flags.writeable = False
    return tie


def separate_anchors(
    deployment,
    min_spacing: float,
    region_side: float,
    topology: Topology = Topology.SQUARE_2D,
) -> np.ndarray:
    """Move points apart until every pair is at least ``min_spacing`` away.

    Takes an (N, 2) deployment or an (L, N, 2) stack of lanes. Each sweep
    pushes every pair closer than ``min_spacing`` apart at once: both points
    move along the pair's difference vector by half of the shortfall to
    ``min_spacing * (1 + _SEPARATION_MARGIN)``, the pushes on a point add
    up, and the points are clipped to the region: projected gradient descent
    on the spacing violation. Coincident points split along a fixed
    direction per pair (``_split_directions``), different for each pair in
    a square, so that a crowd on a corner has pushes that point into the
    region. Input that is already spaced comes back unchanged. A lane whose
    spacing holds gets no push and the clip leaves points in the region
    alone, so a stack of in-region lanes comes out bit for bit as its lanes
    would alone.

    Raises
    ------
    InfeasibleSpacing
        If a square-grid packing bound shows the points cannot fit, or a
        pair is still short after ``_SEPARATION_SWEEPS`` sweeps.
    """
    pts = np.array(
        deployment if np.ndim(deployment) == 3 else as_positions(deployment), dtype=float
    )
    n = pts.shape[-2]
    if min_spacing <= 0 or n < 2:
        return pts
    per_side = int(math.floor(region_side / min_spacing + 1e-12)) + 1
    capacity = per_side if topology is Topology.SEGMENT_1D else per_side**2
    if n > capacity:
        raise InfeasibleSpacing(
            f"{n} points cannot keep spacing {min_spacing} inside a side-"
            f"{region_side} region (grid packing bound {capacity})"
        )
    lo, hi = topology.bounds(region_side)

    diagonal = np.arange(n)
    target = min_spacing * (1.0 + _SEPARATION_MARGIN)
    for _ in range(_SEPARATION_SWEEPS):
        delta = pts[..., None, :, :] - pts[..., :, None, :]  # [i, j] = p_j - p_i
        dist = np.sqrt((delta * delta).sum(axis=-1))
        dist[..., diagonal, diagonal] = np.inf
        short = dist < min_spacing - 1e-12
        if not short.any():
            return pts
        tied = dist < 1e-12
        tie = _split_directions(n, topology)
        unit = np.where(tied[..., None], tie, delta) / np.where(tied, 1.0, dist)[..., None]
        shift = np.where(short, 0.5 * (target - dist), 0.0)
        np.clip(pts - (shift[..., None] * unit).sum(axis=-2), lo, hi, out=pts)
    raise InfeasibleSpacing(
        f"failed to separate {n} points to spacing {min_spacing} "
        f"within {_SEPARATION_SWEEPS} sweeps"
    )


def _lane_sums(x: np.ndarray) -> list:
    """The sum of each lane of a C-contiguous (L, N, 2) stack: NumPy adds
    the two reduced axes as one run, so each lane sums bit for bit as a
    flat (N, 2) ``sum`` would."""
    return np.add.reduce(x, axis=(1, 2)).tolist()


def _max_row_norms(x: np.ndarray) -> list:
    """The largest row norm of each lane of an (L, N, 2) stack; sqrt is
    monotone, so this is bit for bit the largest of the row norms."""
    return np.sqrt(np.maximum.reduce(np.add.reduce(x * x, axis=-1), axis=-1)).tolist()


def _lane_projection(centers, lanes, radius, lo, hi):
    """Projection of (k, N, 2) stacks, k <= ``lanes``, onto the box [lo,
    hi] intersected with the disks of ``radius`` around the rows of
    ``centers``, equal bit for bit to ``kernels.project_deployment``.

    Where every disk holds the whole box, it is the box clip alone: the
    kernel returns the clip when no clipped row lies outside its disk. Else
    the lanes project as rows against the centers repeated once per lane,
    k lanes against the first k repeats (one entry of the projection's memo
    per lane count): broadcasting the (N, 2) centers over a lane axis would
    cost the projection a few microseconds a call.
    """
    # a clipped row's gap to its center rounds to no more, per axis, than
    # the gap of the box corner farthest from it; the margin covers the
    # last bit of hypot, so the test errs only toward the kernel
    far = np.maximum(np.abs(lo - centers), np.abs(hi - centers))
    if np.all(np.hypot(far[:, 0], far[:, 1]) * (1.0 + 1e-12) <= radius):
        return lambda pts: kernels.clip_box(pts, lo, hi)
    center_rows = np.concatenate([centers] * lanes)
    return lambda pts: kernels.project_deployment(
        pts.reshape(-1, 2), center_rows[: pts.size // 2], radius, lo, hi
    ).reshape(pts.shape)


def _pgd_loop(
    start: np.ndarray,
    anchors: np.ndarray,
    centers: np.ndarray,
    radius: float,
    lo: np.ndarray,
    hi: np.ndarray,
    channel: tuple,
    rho: float,
):
    """Spectral projected gradient on log tr(G^-1) + rho * ||pos -
    anchors||^2 (SPG2 of Birgin, Martinez and Raydan, 2000), run on
    (L, N, 2) stacks ``start`` and ``anchors`` of lanes that share
    everything else; ``channel`` is the trace kernels' arguments after the
    positions, ``channel.kernel_args``. Returns the best iterate seen by
    each lane, as a list of one (positions, trace, iterations, status)
    tuple per lane; the trace is the kernel's tr(G^-1) itself, not the
    exponential of its log. The log and its gradient, the kernel's gradient
    over the trace, are taken here from the trace kernels' outputs.

    Each iteration projects once, ``d = P(pos - eta g) - pos``, and tries
    ``pos + lam d`` for lam = 1, 1/2, 1/4, ...: lam = 1 is the projected
    point itself, and the shorter steps lie between two feasible points. So
    every iterate lies in the box [lo, hi] exactly and in its disk up to
    rounding, within 2 ulps of its largest coordinate. A trial is accepted by
    a nonmonotone Armijo test against the largest of the last
    ``_NONMONOTONE_MEMORY`` penalized values; ``eta`` is the Barzilai-Borwein
    step of the accepted move, capped at ``_STEP_MAX``; ``_PGD_STEP`` seeds
    only the first one. The loop converges when ``d`` is at most
    ``_GRAD_TOL`` (largest row norm), or when its best penalized value has
    fallen by at most ``_PROGRESS_TOL`` across its last
    2 * ``_NONMONOTONE_MEMORY`` iterates (the start counting as the first):
    a lane crawling along a narrow valley gains less than that. It stops
    after ``_PGD_MAX_ITERS`` iterations and stalls when no trial passes
    before ``lam`` times the largest row norm of ``d`` is at most
    ``_GRAD_TOL``: a move that short would end the loop as converged, so a
    stall costs about log2(max |d| / ``_GRAD_TOL``) trials. An accepted
    move is thus longer than ``_GRAD_TOL`` up to rounding, and a step that
    shrinks toward zero ends the loop through the stop on ``d``.

    Each lane keeps its own step, memory, line search, best iterate,
    iteration count and status, and the lanes run in lockstep: the first
    trials of all lanes are scored in one ``trace_and_grad`` call, a lane
    whose first trial fails halves on its own, one ``trace_at`` call per
    halving, and the lanes that accepted a halved step get their gradient
    in one more ``trace_and_grad`` call. A lane that ends leaves the stack,
    and each lane comes out bit for bit as it would alone.

    Work that cannot change an iterate is skipped. At rho = 0, the first
    outer round of every solve, the pull's value and gradient terms are
    not computed, since log t + 0 * q is exactly log t. Where every reach
    disk holds the whole box, the projection is the box clip alone, which
    is what ``kernels.project_deployment`` returns there; that covers
    ``unconstrained_deploy``'s radius unless a center sits on a corner.
    The move of a lane whose first trial passed is ``d`` itself.
    """
    proj = _lane_projection(centers, len(start), radius, lo, hi)

    def penalized(traces, pts):
        """log tr(G^-1) plus the pull of each lane of ``pts``; at rho = 0
        the pull is an exact zero, so it is not computed."""
        logs = [math.log(t) for t in traces]
        if not rho:
            return logs
        return [x + rho * q for x, q in zip(logs, _lane_sums((pts - anchors) ** 2))]

    # per lane, (positions, trace, iterations, status) once it has ended
    result = [None] * len(start)

    pos = proj(start)
    trace, grad, _ = kernels.trace_and_grad(pos, *channel)
    # the gradient of log tr(G^-1) is the trace's gradient over the trace
    g = grad / trace[:, None, None]
    if rho:
        g = g + 2.0 * rho * (pos - anchors)
    # the lanes still in the stack, in the order of its rows: their index,
    # recent penalized values, best (penalized, positions, trace), best
    # penalized value as of each of the last 2 * _NONMONOTONE_MEMORY
    # iterates (the start counts as one) and step
    lanes, recent, best, progress, singular = [], [], [], [], []
    trace = trace.tolist()
    for i, (t, pen) in enumerate(zip(trace, penalized(trace, pos))):
        lanes.append(i)
        recent.append(collections.deque([pen], maxlen=_NONMONOTONE_MEMORY))
        best.append((pen, pos[i], t))
        progress.append(collections.deque([pen], maxlen=2 * _NONMONOTONE_MEMORY))
        singular.append(math.isnan(t))
    eta = [_PGD_STEP] * len(start)

    def leave(ended, status, iters):
        """Record the lanes flagged in ``ended`` and drop them from the
        stack; returns the rows of the lanes that stay."""
        nonlocal lanes, recent, best, progress, eta, pos, g, anchors
        keep = []
        for i, lane in enumerate(lanes):
            if ended[i]:
                result[lane] = (best[i][1], best[i][2], iters, status)
            else:
                keep.append(i)
        if not keep:
            lanes = []
            return keep
        lanes, recent, best, progress, eta = (
            [x[i] for i in keep] for x in (lanes, recent, best, progress, eta)
        )
        pos, g, anchors = pos[keep], g[keep], anchors[keep]
        return keep

    if any(singular):
        leave(singular, _STATUS_SINGULAR, 0)
    for it in range(_PGD_MAX_ITERS):
        if not lanes:
            break
        # the first trial of each lane is the projected point itself
        cand = proj(pos - np.array(eta)[:, None, None] * g)
        d = cand - pos
        reach = _max_row_norms(d)
        if min(reach) <= _GRAD_TOL:
            keep = leave([r <= _GRAD_TOL for r in reach], _STATUS_CONVERGED, it)
            if not keep:
                break
            cand, d, reach = cand[keep], d[keep], [reach[i] for i in keep]
        slope = _lane_sums(g * d)
        trace_c, grad_c, _ = kernels.trace_and_grad(cand, *channel)
        grad_c = grad_c / trace_c[:, None, None]
        trace_c = trace_c.tolist()
        pen_c = penalized(trace_c, cand)
        # lanes that accept a halved step need the gradient there
        halved = [False] * len(lanes)
        stalled = [False] * len(lanes)
        for i in range(len(lanes)):
            ref = max(recent[i])
            # a NaN trace fails the comparison
            if pen_c[i] <= ref + _ARMIJO * slope[i]:
                continue
            halved[i] = True
            lam = 0.5
            while lam * reach[i] > _GRAD_TOL:
                trial = pos[i] + lam * d[i]
                trace_t = float(kernels.trace_at(trial, *channel)[0])
                pen = math.log(trace_t)
                if rho:
                    pen += rho * float(((trial - anchors[i]) ** 2).sum())
                if pen <= ref + _ARMIJO * lam * slope[i]:
                    cand[i], trace_c[i], pen_c[i] = trial, trace_t, pen
                    break
                lam *= 0.5
            else:
                stalled[i] = True
        if any(stalled):
            keep = leave(stalled, _STATUS_STALLED, it)
            if not keep:
                break
            cand, d, grad_c = cand[keep], d[keep], grad_c[keep]
            pen_c, trace_c, halved = ([x[i] for i in keep] for x in (pen_c, trace_c, halved))
        # the move is d itself where the first trial passed
        rows = [i for i, h in enumerate(halved) if h]
        if rows:
            d[rows] = cand[rows] - pos[rows]
        s, pos = d, cand
        for i, p in enumerate(pen_c):
            recent[i].append(p)
            if p < best[i][0]:
                best[i] = (p, pos[i], trace_c[i])
            progress[i].append(best[i][0])
        done = [len(h) == h.maxlen and h[0] - h[-1] <= _PROGRESS_TOL for h in progress]
        if any(done):
            keep = leave(done, _STATUS_CONVERGED, it + 1)
            if not keep:
                break
            s, grad_c, halved = s[keep], grad_c[keep], [halved[i] for i in keep]
        if any(halved):
            rows = [i for i, h in enumerate(halved) if h]
            trace_h, grad_h, _ = kernels.trace_and_grad(pos[rows], *channel)
            grad_c[rows] = grad_h / trace_h[:, None, None]
        g_new = grad_c + 2.0 * rho * (pos - anchors) if rho else grad_c
        # a nonpositive curvature along the move gives no spectral step
        eta = [
            min(a / b if b > 0.0 else 2.0 * e, _STEP_MAX)
            for a, b, e in zip(_lane_sums(s * s), _lane_sums(s * (g_new - g)), eta)
        ]
        g = g_new
    else:
        leave([True] * len(lanes), _STATUS_MAX_ITERS, _PGD_MAX_ITERS)
    return result


def optimize_positions(
    scenario: Scenario,
    t_mov: float,
    config: PenaltyConfig | None = None,
    start=None,
) -> OptimizeOutcome:
    """Best-found deployment for a fixed movement duration.

    Alternates projected gradient descent with anchor re-separation under a
    growing penalty until positions and anchors agree within half of
    ``FEASIBILITY_TOL``; the first round descends the objective alone, so
    each round separates once, after its descent, and an over-packed region
    raises ``InfeasibleSpacing`` after the first round. The returned
    deployment lies in the region exactly, in the disks up to rounding
    (within 2 ulps of its largest coordinate) and keeps the pairwise
    spacing within ``FEASIBILITY_TOL``; its objective never exceeds the
    objective of the initial deployment. A solve has converged only if the
    winning restart closed that gap and none of its gradient loops hit the
    iteration cap. ``start`` (the initial deployment by default) is one
    ``Deployment`` or (N, 2) positions, or a sequence or (L, N, 2) stack of
    candidates of which the first restart takes the one with the lowest
    finite tr(G^-1) once projected into reach (the first on a tie or when
    none is finite); further restarts jitter the initial deployment
    deterministically. The best feasible result wins (ties keep the earliest
    restart). The restarts run as lanes of one lockstep solve, each outer
    round one stacked ``_pgd_loop`` then one stacked ``separate_anchors``
    over the lanes still running, and every lane ends as the same restart
    run alone would, bit for bit; with several failing lanes, the first
    error in lockstep order is the one raised. A negative or non-finite
    ``t_mov`` and an empty candidate list raise ``ValueError``.
    """
    # NaN would give a NaN radius, which the projection ignores
    if not (math.isfinite(t_mov) and t_mov >= 0):
        raise ValueError(f"t_mov must be finite and nonnegative, got {t_mov!r}")
    initial = scenario.initial_positions.coords
    if start is None or isinstance(start, Deployment):
        start = [initial if start is None else start]
    elif len(start) == 0:
        raise ValueError("start is an empty list of candidate starts")
    elif np.ndim(start[0]) == 1:
        start = [start]
    restarts = (config or PenaltyConfig()).restarts
    radius = scenario.max_speed * t_mov
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
    channel = kernel_args(scenario)
    d_min = scenario.min_spacing
    spacing_ok = lambda pts: min_pair_distance(pts) >= d_min - FEASIBILITY_TOL

    # the jitters are drawn in restart order
    rng = np.random.default_rng(0)
    jitter_scale = min(radius, scenario.region_side / 4.0)
    starts = [as_positions(s) for s in start] + [
        initial + rng.uniform(-jitter_scale, jitter_scale, initial.shape)
        for _ in range(1, restarts)
    ]
    pts = _lane_projection(initial, len(starts), radius, lo, hi)(np.array(starts))
    traces, _ = kernels.trace_at(pts, *channel)
    # the first lane starts at the best candidate, the jitter lanes follow
    scores = [t if math.isfinite(t) else math.inf for t in traces[: len(start)].tolist()]
    lanes = [scores.index(min(scores)), *range(len(start), len(starts))]
    pts, traces = pts[lanes], traces[lanes]
    # per lane: its best spacing-feasible objective and deployment, its
    # gap history and its inner iterations, outer rounds and convergence
    run_obj = [math.inf] * restarts
    run_pts = [None] * restarts
    for lane, trace in enumerate(traces.tolist()):
        if spacing_ok(pts[lane]) and not math.isnan(trace):
            run_obj[lane], run_pts[lane] = trace, pts[lane].copy()
    gaps = [[] for _ in range(restarts)]
    inner_total = [0] * restarts
    outers = [0] * restarts
    converged = [False] * restarts
    capped = [False] * restarts

    separate = lambda p: separate_anchors(
        p, d_min, region_side=scenario.region_side, topology=scenario.topology
    )
    # the first round descends the raw objective, so it needs no anchors;
    # the pull kicks in once re-separation shows which spacing constraints
    # bind; every lane still running is in the same round, so the lanes
    # share rho
    anchors, rho = pts, 0.0
    # the lanes still running, in the order of the rows of pts and anchors
    live = list(range(restarts))
    for outer in range(1, _AO_MAX_ITERS + 1):
        found = _pgd_loop(pts, anchors, initial, radius, lo, hi, channel, rho)
        if any(status == _STATUS_SINGULAR for *_, status in found):
            raise SingularChannel("channel is singular at the starting deployment")
        pts = np.array([p for p, *_ in found])
        anchors = separate(pts)
        # the rows of the lanes that keep running
        running = []
        for row, (lane, (p, trace, steps, status), gap) in enumerate(
            zip(live, found, _max_row_norms(pts - anchors))
        ):
            inner_total[lane] += steps
            outers[lane] = outer
            capped[lane] |= status == _STATUS_MAX_ITERS
            gaps[lane].append(gap)
            if trace < run_obj[lane] and spacing_ok(p):
                run_obj[lane], run_pts[lane] = trace, p.copy()
            if gap <= FEASIBILITY_TOL / 2.0:
                converged[lane] = not capped[lane]
            else:
                running.append(row)
        if not running:
            break
        live = [live[row] for row in running]
        pts, anchors = pts[running], anchors[running]
        rho = _RHO_INIT if rho == 0.0 else rho * _RHO_GROWTH

    # the initial deployment is feasible for every duration: never do
    # worse; ties keep the earliest restart
    best_obj = f_initial
    best_pts = initial
    best_run = (0, 0, True, ())
    for lane in range(restarts):
        run = (outers[lane], inner_total[lane], converged[lane], tuple(gaps[lane]))
        if run_pts[lane] is not None and run_obj[lane] < best_obj:
            best_obj, best_pts, best_run = run_obj[lane], run_pts[lane], run
        elif lane == 0:
            best_run = run

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
    scenario: Scenario, config: PenaltyConfig | None = None
) -> OptimizeOutcome:
    """Placement optimization with the movement-speed limit inactive: a
    one-second solve at the speed whose disks just cover the whole region
    (its side on a segment, its diagonal in a square)."""
    diagonal = 1.0 if scenario.topology is Topology.SEGMENT_1D else math.sqrt(2.0)
    speed_free = scenario.with_(max_speed=scenario.region_side * diagonal)
    return optimize_positions(speed_free, 1.0, config)
