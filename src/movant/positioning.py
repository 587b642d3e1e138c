"""Antenna placement under movement, spacing, and region constraints.

For a fixed movement duration the reachable set of each antenna is the
intersection of the region with a disk around its initial position. The
non-convex pairwise-spacing constraints are carried by auxiliary anchor
points: spectral projected gradient descent (Barzilai-Borwein steps and a
nonmonotone line search) lowers log tr(G^-1) plus a quadratic pull toward
the anchors, the anchors are re-separated to the minimum spacing, and the
pull strength is raised until positions and anchors agree. The first round
runs without the pull, so the first anchors are separated from its result.
Each later pull is aimed at the spacing tolerance by the quadratic-penalty
estimate: the gap between positions and anchors is about the log-gradient
over twice the pull, so the log-gradient after the first round and the gap
after each pulled one set the next pull, and a solve at small reach closes
its gap in one pulled round rather than several; a gap that a pulled
round no longer halves ends the start's rounds. The log makes the descent
independent of the channel's scale: tr(G^-1) spans more than ten orders of
magnitude across scenarios and layouts, while the solver's step seed, pull
floor and growth and tolerances are fixed numbers. Single-start solves of
one scenario run as lanes of one lockstep solve (``_optimize_stack``), each
lane with its own reach: the durations of a chain's window, or the starts
of one multi-start solve. The starts race: they end once one comes within
a relative ``_CERTIFIED_MARGIN`` of the floor that no layout beats,
``channel.trace_floor``.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .channel import _check_singular, kernel_args, trace_floor, trace_objective
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
# cap of the spectral step: the anchor pull's strength spans ten or more
# orders of magnitude over the outer rounds, so the cap only keeps the step
# finite
_STEP_MAX = 1e30

# the solver's fixed tuning: the floors of the aimed anchor pull
# (_next_pull), its least value after the first round and its least growth
# per round; the step that seeds each loop's first spectral step, the loop
# and round caps, the largest move (per antenna, wavelengths) at which a
# loop has converged, and the least fall of a loop's best penalized value
# (log units) across its last 2 * _NONMONOTONE_MEMORY iterates that keeps
# it running
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
_STATUS_BOUND = 4
_STATUS_CERTIFIED = 5

# relative margin above the trace floor (``channel.trace_floor``) within
# which a lane certifies its race: no layout beats the floor, so the race's
# other lanes could lower tr(G^-1) by at most this fraction
_CERTIFIED_MARGIN = 1e-5


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
    """Result of one placement optimization; ``certified`` where a start
    reached the trace floor and cut the race of the solve's other starts,
    ``start`` the index of the candidate its first start took (None at
    zero reach)."""

    deployment: Deployment
    objective: float
    outer_iterations: int
    inner_iterations: int
    max_constraint_violation: float
    converged: bool
    gap_history: tuple = field(default=())
    certified: bool = False
    start: int | None = None


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
        if not np.count_nonzero(short):
            return pts
        tied = dist < 1e-12
        # with no pair tied, the tie-direction wheres would divide delta by
        # dist as it is (the diagonal's 0 / inf is 0 either way)
        if np.count_nonzero(tied):
            tie = _split_directions(n, topology)
            unit = np.where(tied[..., None], tie, delta) / np.where(tied, 1.0, dist)[..., None]
        else:
            unit = delta / dist[..., None]
        shift = np.where(short, 0.5 * (target - dist), 0.0)
        kernels.clip_box(pts - (shift[..., None] * unit).sum(axis=-2), lo, hi, out=pts)
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


def _lane_projection(centers, reach, lo, hi):
    """Projection of (k, N, 2) stacks of lanes onto the box [lo, hi]
    intersected with each lane's disks around the rows of ``centers``,
    equal bit for bit to ``kernels.project_deployment`` lane by lane.
    ``reach`` holds the radius of each of the L lanes a solve starts with;
    the projection is called as ``proj(pts, reach)`` with the radii of the
    k <= L lanes it projects, so a lane that leaves the stack takes its
    reach with it. A solve builds one and projects its starts and every
    loop of every outer round with it, however many lanes are left.

    Where every disk of every lane holds the whole box, it is the box clip
    alone: the kernel returns the clip when no clipped row lies outside its
    disk. Else the lanes project as rows against the centers repeated once
    per lane, k lanes against the first k repeats, each row with its lane's
    radius: broadcasting the (N, 2) centers over a lane axis would cost the
    projection a microsecond or more a call.
    """
    # a clipped row's gap to its center rounds to no more, per axis, than
    # the gap of the box corner farthest from it; the margin covers the
    # last bit of hypot, so the test errs only toward the kernel
    far = np.maximum(np.abs(lo - centers), np.abs(hi - centers))
    if np.all(np.hypot(far[:, 0], far[:, 1]) * (1.0 + 1e-12) <= np.min(reach)):
        return lambda pts, reach: kernels.clip_box(pts, lo, hi)
    n = len(centers)
    center_rows = np.concatenate([centers] * len(reach))
    return lambda pts, reach: kernels.project_deployment(
        pts.reshape(-1, 2), center_rows[: pts.size // 2], reach.repeat(n), lo, hi
    ).reshape(pts.shape)


def _pgd_loop(
    start: np.ndarray,
    anchors: np.ndarray,
    proj,
    channel: tuple,
    rho: np.ndarray,
    radius: np.ndarray,
    cut: tuple | None = None,
):
    """Spectral projected gradient on log tr(G^-1) + rho * ||pos -
    anchors||^2 (SPG2 of Birgin, Martinez and Raydan, 2000), run on
    (L, N, 2) stacks ``start`` and ``anchors`` of lanes with (L,) arrays
    ``rho`` of pulls and ``radius`` of disk radii, one per lane, that share
    everything else: ``proj`` is a ``_lane_projection`` onto the reachable
    sets for at least L lanes, and
    ``channel`` the trace kernels' arguments after the positions,
    ``channel.kernel_args``. Returns the best iterate seen by each lane, as
    a list of one (positions, trace, iterations, status, log-gradient)
    tuple per lane; the trace is the kernel's tr(G^-1) itself, not the
    exponential of its log, and the log-gradient is the gradient of log
    tr(G^-1) alone at the positions, without the pull, as a
    ``trace_and_grad`` call there would give it. The log and its gradient,
    the kernel's gradient over the trace, are taken here from the trace
    kernels' outputs.

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
    in one more ``trace_and_grad`` call, made before the progress stop so
    that every best iterate has its gradient. A lane that ends leaves the
    stack, and each lane comes out bit for bit as it would alone.

    ``cut``, (a tr(G^-1) level, a least pair spacing), makes the stack a
    race that ends once a lane certifies it: the lane ends converged with a
    best iterate at or below the level and no pair closer than the spacing,
    and leaves with ``_STATUS_CERTIFIED``. The other lanes leave at the next
    convergence test, after their own, with their best iterate, the
    certifying lane's iteration count and ``_STATUS_BOUND``; a lane cut at
    the iteration cap leaves that way too.

    Work that cannot change an iterate is skipped. Where every pull is 0,
    as in the first outer round of every solve, the pull's value and
    gradient terms are not computed, since log t + 0 * q is exactly log t.
    Where every reach disk holds the whole box, ``proj`` is the box clip
    alone, which is what ``kernels.project_deployment`` returns there; that
    covers ``unconstrained_deploy``'s radius unless a center sits on a
    corner. The move of a lane whose first trial passed is ``d`` itself.
    """
    pulled = bool(np.any(rho))

    def penalized(traces, pts):
        """log tr(G^-1) plus the pull of each lane of ``pts``; where every
        pull is 0 it is an exact zero, so it is not computed."""
        logs = [math.log(t) for t in traces]
        if not pulled:
            return logs
        squares = _lane_sums((pts - anchors) ** 2)
        return [x + r * q for x, r, q in zip(logs, rho.tolist(), squares)]

    def pull_gradient(pts):
        """The gradient of each lane's pull at ``pts``."""
        return 2.0 * rho[:, None, None] * (pts - anchors)

    # per lane, (positions, trace, iterations, status, log-gradient) once it
    # has ended
    result = [None] * len(start)

    pos = proj(start, radius)
    trace, grad, _ = kernels.trace_and_grad(pos, *channel)
    # the gradient of log tr(G^-1) is the trace's gradient over the trace
    log_g = grad / trace[:, None, None]
    g = log_g + pull_gradient(pos) if pulled else log_g
    # the lanes still in the stack, in the order of its rows: their index,
    # recent penalized values, best (penalized, positions, trace,
    # log-gradient), best penalized value as of each of the last
    # 2 * _NONMONOTONE_MEMORY iterates (the start counts as one) and step
    lanes, recent, best, progress, singular = [], [], [], [], []
    trace = trace.tolist()
    for i, (t, pen) in enumerate(zip(trace, penalized(trace, pos))):
        lanes.append(i)
        recent.append(collections.deque([pen], maxlen=_NONMONOTONE_MEMORY))
        best.append((pen, pos[i], t, log_g[i]))
        progress.append(collections.deque([pen], maxlen=2 * _NONMONOTONE_MEMORY))
        singular.append(math.isnan(t))
    eta = [_PGD_STEP] * len(start)
    # whether a lane has certified the race, whose other lanes are to cut
    bound = False

    def converged(ended):
        """Per lane, ``_STATUS_CERTIFIED`` where ``ended`` flags it and its
        best iterate certifies the race, ``_STATUS_CONVERGED`` where it
        flags it otherwise, else None."""
        nonlocal bound
        statuses = [_STATUS_CONVERGED if e else None for e in ended]
        # the spacing is worth computing only at the level
        rows = [i for i, e in enumerate(ended) if e and cut and best[i][2] <= cut[0]]
        if rows:
            spacings = min_pair_distance(np.array([best[i][1] for i in rows])).tolist()
            for i, spacing in zip(rows, spacings):
                if spacing >= cut[1]:
                    statuses[i], bound = _STATUS_CERTIFIED, True
        return statuses

    def leave(statuses, iters):
        """Record the lanes whose entry of ``statuses`` is a status, not
        None, and drop them from the stack; returns the rows of the lanes
        that stay."""
        nonlocal lanes, recent, best, progress, eta, pos, g, anchors, rho, radius
        keep = []
        for i, (lane, status) in enumerate(zip(lanes, statuses)):
            if status is None:
                keep.append(i)
            else:
                _, p, t, lg = best[i]
                result[lane] = (p, t, iters, status, lg)
        if not keep:
            lanes = []
            return keep
        lanes, recent, best, progress, eta = (
            [x[i] for i in keep] for x in (lanes, recent, best, progress, eta)
        )
        pos, g, anchors, rho, radius = pos[keep], g[keep], anchors[keep], rho[keep], radius[keep]
        return keep

    if any(singular):
        leave([_STATUS_SINGULAR if s else None for s in singular], 0)
    for it in range(_PGD_MAX_ITERS):
        if not lanes:
            break
        # the first trial of each lane is the projected point itself
        cand = proj(pos - np.array(eta)[:, None, None] * g, radius)
        d = cand - pos
        reach = _max_row_norms(d)
        if min(reach) <= _GRAD_TOL or bound:
            statuses = converged([r <= _GRAD_TOL for r in reach])
            # once the race is certified, every lane leaves
            keep = leave([_STATUS_BOUND if bound and s is None else s for s in statuses], it)
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
                if pulled:
                    pen += float(rho[i]) * float(((trial - anchors[i]) ** 2).sum())
                if pen <= ref + _ARMIJO * lam * slope[i]:
                    cand[i], trace_c[i], pen_c[i] = trial, trace_t, pen
                    break
                lam *= 0.5
            else:
                stalled[i] = True
        if any(stalled):
            keep = leave([_STATUS_STALLED if s else None for s in stalled], it)
            if not keep:
                break
            cand, d, grad_c = cand[keep], d[keep], grad_c[keep]
            pen_c, trace_c, halved = ([x[i] for i in keep] for x in (pen_c, trace_c, halved))
        # the move is d itself where the first trial passed
        rows = [i for i, h in enumerate(halved) if h]
        if rows:
            d[rows] = cand[rows] - pos[rows]
            trace_h, grad_h, _ = kernels.trace_and_grad(cand[rows], *channel)
            grad_c[rows] = grad_h / trace_h[:, None, None]
        s, pos = d, cand
        for i, p in enumerate(pen_c):
            recent[i].append(p)
            if p < best[i][0]:
                best[i] = (p, pos[i], trace_c[i], grad_c[i])
            progress[i].append(best[i][0])
        done = [len(h) == h.maxlen and h[0] - h[-1] <= _PROGRESS_TOL for h in progress]
        if any(done):
            # the lanes of a race certified here leave at the next
            # convergence test, after their own
            keep = leave(converged(done), it + 1)
            if not keep:
                break
            s, grad_c = s[keep], grad_c[keep]
        g_new = grad_c + pull_gradient(pos) if pulled else grad_c
        # a nonpositive curvature along the move gives no spectral step
        eta = [
            min(a / b if b > 0.0 else 2.0 * e, _STEP_MAX)
            for a, b, e in zip(_lane_sums(s * s), _lane_sums(s * (g_new - g)), eta)
        ]
        g = g_new
    else:
        leave([_STATUS_BOUND if bound else _STATUS_MAX_ITERS] * len(lanes), _PGD_MAX_ITERS)
    return result


def _next_pull(rho: float, gap: float, log_grad: np.ndarray) -> float:
    """The anchor pull of a lane's next outer round, aimed on the log scale
    at a gap of ``FEASIBILITY_TOL / 2`` between positions and anchors.

    At a stationary point of log f + rho * ||x - a||^2, x - a is about
    -grad log f / (2 rho): the quadratic-penalty estimate (Nocedal and
    Wright, Numerical Optimization, 17.1). After the pull-free first round
    (``rho`` = 0) the pull is the largest row norm of ``log_grad``, the
    gradient of log tr(G^-1) at the lane's result, over
    ``FEASIBILITY_TOL``. After a pulled round with gap ``gap`` it is rho *
    gap / (``FEASIBILITY_TOL`` / 2), since the gap falls as 1 / rho. The
    pull grows at least ``_RHO_GROWTH``-fold per round and is at least
    ``_RHO_INIT`` after the first, which also stands in for an aim that is
    no finite number: a zero, NaN or overflowing gradient.
    """
    if rho == 0.0:
        # a gradient too large to square gives an infinite norm
        with np.errstate(over="ignore"):
            aim = _max_row_norms(log_grad[None])[0] / FEASIBILITY_TOL
    else:
        aim = rho * gap / (FEASIBILITY_TOL / 2.0)
    least = rho * _RHO_GROWTH if rho else _RHO_INIT
    # NaN fails both comparisons
    return aim if least < aim < math.inf else least


def optimize_positions(
    scenario: Scenario,
    t_mov: float,
    config: PenaltyConfig | None = None,
    start=None,
) -> OptimizeOutcome:
    """Best-found deployment for a fixed movement duration.

    Alternates projected gradient descent with anchor re-separation under a
    growing penalty until positions and anchors agree within half of
    ``FEASIBILITY_TOL``; the first round descends the objective alone, and
    each start aims the pull of its next round at that gap
    (``_next_pull``). So each round separates once, after its descent, and
    an over-packed region raises ``InfeasibleSpacing`` after the first
    round. A start ends unconverged where a pulled round leaves its gap
    above half of the gap of the pulled round before: a stronger pull does
    not close a gap that stopped falling (anchors that the separation puts
    out of reach). The returned deployment lies in the region exactly, in
    the disks up to rounding (within 2 ulps of its largest coordinate) and
    keeps the pairwise spacing within ``FEASIBILITY_TOL``; its objective
    never exceeds the objective of the initial deployment. A solve has
    converged only if the winning start closed that gap and none of its
    gradient loops hit the iteration cap. ``start`` (the initial deployment
    by default) is one ``Deployment`` or (N, 2) positions, or a sequence or
    (L, N, 2) stack of candidates of which the first start takes the one
    with the lowest finite tr(G^-1) once projected into reach (the first on
    a tie or when none is finite).

    With ``config.restarts`` = R > 1 the solve is R single-start solves of
    the duration: its own, then R - 1 from jitters of the initial
    deployment, drawn deterministically. They run as the lanes of one
    lockstep race (``_optimize_stack``), each outer round one stacked
    ``_pgd_loop`` then one stacked ``separate_anchors`` over the lanes
    still running, and each lane ends as its solve run alone would, bit for
    bit, but for one cut: once a lane's loop ends converged with tr(G^-1)
    within a relative ``_CERTIFIED_MARGIN`` of ``channel.trace_floor`` and
    its spacing within ``FEASIBILITY_TOL``, the other lanes stop at that
    iteration with their best iterate and take no further round, and the
    outcome is ``certified``. No layout beats the floor, so the cut costs at
    most that fraction of tr(G^-1); a lane it stopped has not converged.
    The lane with the lowest objective wins (the earliest on a tie), and
    ``start`` is the first lane's. With several failing lanes, the first
    error in lockstep order is the one raised. A negative or non-finite
    ``t_mov``, an empty candidate list and a candidate of another size or
    with a non-finite coordinate raise ``ValueError``; a singular channel at
    the initial deployment raises ``SingularChannel``.
    """
    restarts = (config or PenaltyConfig()).restarts
    solves = [(t_mov, start)]
    if restarts > 1:
        # the duration is checked before it scales the jitters
        scale = min(_checked_reach(scenario, t_mov), scenario.region_side / 4.0)
        initial = scenario.initial_positions.coords
        draws = np.random.default_rng(0).uniform(-scale, scale, (restarts - 1, *initial.shape))
        solves += [(t_mov, initial + draw) for draw in draws]
    lanes = [outcome for outcome, _ in _optimize_stack(scenario, solves, race=restarts > 1)]
    best = min(lanes, key=lambda outcome: outcome.objective)
    certified = any(outcome.certified for outcome in lanes)
    return replace(best, certified=certified, start=lanes[0].start)


def _checked_reach(scenario: Scenario, t_mov: float) -> float:
    """The reach of one solve, after ``optimize_positions``' check of its
    duration."""
    # NaN would give a NaN radius, which the projection ignores
    if not (math.isfinite(t_mov) and t_mov >= 0):
        raise ValueError(f"t_mov must be finite and nonnegative, got {t_mov!r}")
    return scenario.max_speed * t_mov


def _checked_starts(scenario: Scenario, start) -> np.ndarray:
    """The (C, N, 2) candidate starts of one solve, after
    ``optimize_positions``' checks of its starts."""
    if start is None or isinstance(start, Deployment):
        start = [scenario.initial_positions if start is None else start]
    elif len(start) == 0:
        raise ValueError("start is an empty list of candidate starts")
    elif not isinstance(start[0], Deployment) and np.ndim(start[0]) == 1:
        start = [start]
    candidates = [as_positions(s) for s in start]
    n = scenario.num_antennas
    for index, candidate in enumerate(candidates):
        if len(candidate) != n:
            raise ValueError(f"candidate start {index} has {len(candidate)} antennas, not {n}")
        # a NaN coordinate would reach LAPACK, which warns, and then pass
        # for a singular channel
        if not np.isfinite(candidate).all():
            raise ValueError(f"candidate start {index} has a non-finite coordinate")
    return np.array(candidates)


def _set_up(scenario: Scenario, solves: list) -> tuple:
    """The set-up of a stacked solve of ``solves``, (radius, candidates)
    pairs of positive reach, one lane each: (the projection, each lane's
    start, its reach and its tr(G^-1), the trace at the initial deployment,
    the candidate each lane starts from). A lane starts at its solve's best
    candidate once projected into reach (the first on a tie or when none is
    finite). One projection serves the starts and every outer round, and
    one ``trace_at`` call scores every candidate and, as the last slice,
    the initial deployment; each slice equals its own (N, 2) call bit for
    bit.
    """
    initial = scenario.initial_positions.coords
    reach = np.repeat([radius for radius, _ in solves], [len(c) for _, c in solves])
    proj = _lane_projection(initial, reach, *scenario.region_bounds())
    pts = proj(np.concatenate([candidates for _, candidates in solves]), reach)
    traces, conds = kernels.trace_at(np.concatenate([pts, initial[None]]), *kernel_args(scenario))
    _check_singular(traces[-1], conds[-1])
    traces = traces.tolist()
    f_initial = traces.pop()
    lanes, picks, first = [], [], 0
    for _, candidates in solves:
        scored = traces[first : first + len(candidates)]
        scores = [t if math.isfinite(t) else math.inf for t in scored]
        picks.append(scores.index(min(scores)))
        lanes.append(first + picks[-1])
        first += len(candidates)
    return proj, pts[lanes], reach[lanes], [traces[i] for i in lanes], f_initial, picks


def _optimize_stack(scenario: Scenario, solves: list, race: bool = False) -> list:
    """Single-start placement solves of one scenario as lanes of one
    lockstep solve: ``solves`` is a list of (t_mov, start) pairs as
    ``optimize_positions`` takes them, one lane each, and every lane keeps
    its own reach. Returns one (``OptimizeOutcome``, start score) pair per
    solve, the score being the tr(G^-1) of its lane's start once projected
    into reach (None at zero reach, where no lane runs). Each outcome is
    floored at the initial deployment on its own and equals the
    single-start ``optimize_positions`` call of its solve alone, bit for
    bit, unless ``race``: the lanes are then the starts of one multi-start
    solve, and once one of them certifies the race at the trace floor
    (``_pgd_loop``'s cut) the others take no further round, while the
    certifying lanes run on as they would alone and report ``certified``.
    Every solve is checked before any runs, a start that several lanes
    share (one object) once, and an error of any lane raises for the whole
    stack.
    """
    starts, checked = {}, []
    for t, start in solves:
        reach = _checked_reach(scenario, t)
        if id(start) not in starts:
            starts[id(start)] = _checked_starts(scenario, start)
        checked.append((reach, starts[id(start)]))
    initial = scenario.initial_positions.coords
    out = [None] * len(solves)
    moving = []
    for k, (radius, _) in enumerate(checked):
        if radius > 0.0:
            moving.append(k)
        else:
            # zero reach pins every antenna at its start regardless of warm start
            fixed = OptimizeOutcome(
                deployment=scenario.initial_positions,
                objective=trace_objective(scenario, initial),
                outer_iterations=0,
                inner_iterations=0,
                max_constraint_violation=0.0,
                converged=True,
            )
            out[k] = (fixed, None)
    if not moving:
        return out

    proj, pts, reach, traces, f_initial, picks = _set_up(scenario, [checked[k] for k in moving])
    channel = kernel_args(scenario)
    d_min = scenario.min_spacing
    # per lane: its best spacing-feasible objective and deployment, its
    # gap history and its inner iterations, outer rounds and convergence
    count = len(pts)
    run_obj = [math.inf] * count
    run_pts = [None] * count
    for lane, (trace, spacing) in enumerate(zip(traces, min_pair_distance(pts).tolist())):
        if spacing >= d_min - FEASIBILITY_TOL and not math.isnan(trace):
            run_obj[lane], run_pts[lane] = trace, pts[lane].copy()
    gaps = [[] for _ in range(count)]
    inner_total = [0] * count
    outers = [0] * count
    converged = [False] * count
    capped = [False] * count
    cut = None
    if race:
        cut = (trace_floor(scenario) * (1.0 + _CERTIFIED_MARGIN), d_min - FEASIBILITY_TOL)
    certifiers = set()

    separate = lambda p: separate_anchors(
        p, d_min, region_side=scenario.region_side, topology=scenario.topology
    )
    # the first round descends the raw objective, so it needs no anchors;
    # the pull kicks in once re-separation shows which spacing constraints
    # bind; each lane aims its own pull, so that it ends as it would alone
    anchors, rho = pts, np.zeros(count)
    # the lanes still running, in the order of the rows of pts and anchors
    live = list(range(count))
    for outer in range(1, _AO_MAX_ITERS + 1):
        found = _pgd_loop(pts, anchors, proj, channel, rho, reach, cut)
        if any(status == _STATUS_SINGULAR for *_, status, _ in found):
            raise SingularChannel("channel is singular at the starting deployment")
        pts = np.array([p for p, *_ in found])
        anchors = separate(pts)
        spacings = min_pair_distance(pts).tolist()
        certifiers.update(
            lane for lane, (*_, status, _) in zip(live, found) if status == _STATUS_CERTIFIED
        )
        # the rows of the lanes that keep running, and their next pulls
        running, pulls = [], []
        rows = zip(live, found, _max_row_norms(pts - anchors), spacings)
        for row, (lane, (p, trace, steps, status, log_grad), gap, spacing) in enumerate(rows):
            inner_total[lane] += steps
            outers[lane] = outer
            capped[lane] |= status == _STATUS_MAX_ITERS
            gaps[lane].append(gap)
            if trace < run_obj[lane] and spacing >= d_min - FEASIBILITY_TOL:
                run_obj[lane], run_pts[lane] = trace, p.copy()
            if gap <= FEASIBILITY_TOL / 2.0:
                converged[lane] = not capped[lane] and status != _STATUS_BOUND
            elif certifiers and lane not in certifiers:
                continue  # another lane certified the race
            elif outer < 3 or gap <= gaps[lane][-2] / 2.0:
                running.append(row)
                pulls.append(_next_pull(float(rho[row]), gap, log_grad))
        if not running:
            break
        live = [live[row] for row in running]
        pts, anchors, rho, reach = pts[running], anchors[running], np.array(pulls), reach[running]

    # the initial deployment is feasible for every duration: never do worse
    best = [
        (run_obj[lane], run_pts[lane])
        if run_pts[lane] is not None and run_obj[lane] < f_initial
        else (f_initial, initial)
        for lane in range(count)
    ]
    spacings = min_pair_distance(np.array([best_pts for _, best_pts in best])).tolist()
    for lane, (k, (best_obj, best_pts), spacing) in enumerate(zip(moving, best, spacings)):
        outcome = OptimizeOutcome(
            deployment=Deployment(best_pts),
            objective=best_obj,
            outer_iterations=outers[lane],
            inner_iterations=inner_total[lane],
            max_constraint_violation=max(0.0, d_min - spacing),
            converged=converged[lane],
            gap_history=tuple(gaps[lane]),
            certified=lane in certifiers,
            start=picks[lane],
        )
        out[k] = (outcome, traces[lane])
    return out


def unconstrained_deploy(
    scenario: Scenario, config: PenaltyConfig | None = None
) -> OptimizeOutcome:
    """Placement optimization with the movement-speed limit inactive: a
    one-second solve at the speed whose disks just cover the whole region
    (its side on a segment, its diagonal in a square)."""
    diagonal = 1.0 if scenario.topology is Topology.SEGMENT_1D else math.sqrt(2.0)
    speed_free = scenario.with_(max_speed=scenario.region_side * diagonal)
    return optimize_positions(speed_free, 1.0, config)
