import collections
import functools
import hashlib
import itertools
import math

import numpy as np
import pytest

from movant import harness, kernels, positioning
from movant.channel import (
    SINGULAR_COND_LIMIT,
    achievable_rate,
    kernel_args,
    trace_floor,
    trace_objective,
)
from movant.errors import InfeasibleSpacing, SingularChannel
from movant.harness import SweepParameter, default_scenario, scenario_variant
from movant.positioning import (
    FEASIBILITY_TOL,
    OptimizeOutcome,
    PenaltyConfig,
    optimize_positions,
    separate_anchors,
    unconstrained_deploy,
)
from movant.scenario import (
    Deployment,
    Scenario,
    Topology,
    as_positions,
    min_pair_distance,
    two_antenna_line_scenario,
)

from conftest import random_instance, record_loop_statuses, reference_pick_start, slow_scenarios


def min_pair(points):
    n = len(points)
    return min(
        np.linalg.norm(points[i] - points[j]) for i in range(n) for j in range(i + 1, n)
    )


def project_one(point, center, radius, topology=Topology.SQUARE_2D):
    """``kernels.project_deployment`` of one point onto the side-10 region
    intersected with the disk of ``radius`` around ``center``."""
    lo, hi = topology.bounds(10.0)
    return kernels.project_deployment(
        np.reshape(point, (1, 2)), np.reshape(center, (1, 2)), radius, lo, hi
    )[0]


class TestProjection:
    def test_feasible_point_unchanged(self):
        p = np.array([3.0, 4.0])
        out = project_one(p, np.array([3.5, 4.5]), 1.0)
        assert np.array_equal(out, p)

    def test_zero_radius_returns_center(self):
        center = np.array([2.0, 7.0])
        out = project_one(np.array([9.0, 9.0]), center, 0.0)
        assert np.array_equal(out, center)

    def test_pure_disk_projection_formula(self):
        center = np.array([5.0, 5.0])
        p = np.array([7.0, 8.0])
        out = project_one(p, center, 1.0)
        expected = center + (p - center) / np.linalg.norm(p - center)
        assert np.allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("topology", [Topology.SQUARE_2D, Topology.SEGMENT_1D])
    def test_corner_active_matches_grid_search(self, topology):
        # disk pokes out of the region corner so both constraints bind
        center = np.array([0.4, 0.3 if topology is Topology.SQUARE_2D else 0.0])
        radius = 0.9
        point = np.array([-1.0, -1.2])
        out = project_one(point, center, radius, topology)

        def refine(x_lo, x_hi, y_lo, y_hi, step):
            xs = np.arange(x_lo, x_hi + step / 2, step)
            ys = (
                np.arange(y_lo, y_hi + step / 2, step)
                if topology is Topology.SQUARE_2D
                else np.array([0.0])
            )
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            ok = (X - center[0]) ** 2 + (Y - center[1]) ** 2 <= radius**2
            ok &= (X >= 0) & (Y >= 0)
            dist = (X - point[0]) ** 2 + (Y - point[1]) ** 2
            dist[~ok] = np.inf
            idx = np.unravel_index(np.argmin(dist), dist.shape)
            return np.array([X[idx], Y[idx]])

        coarse = refine(0.0, 1.5, 0.0, 1.5, 1e-2)
        best = refine(
            max(coarse[0] - 2e-2, 0.0),
            coarse[0] + 2e-2,
            max(coarse[1] - 2e-2, 0.0),
            coarse[1] + 2e-2,
            1e-4,
        )
        assert np.linalg.norm(out - best) <= 2e-4

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for on_edge in (False, True):
            for _ in range(100):
                center = rng.uniform(0, 10, 2)
                if on_edge:
                    # the default layout: every antenna on the y = 0 edge
                    center[1] = 0.0
                radius = rng.uniform(0, 3)
                p = rng.uniform(-5, 15, 2)
                once = project_one(p, center, radius)
                twice = project_one(once, center, radius)
                assert np.linalg.norm(twice - once) <= 1e-9

    def test_feasibility_over_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            center = rng.uniform(0, 10, 2)
            radius = rng.uniform(0, 5)
            p = rng.uniform(-10, 20, 2)
            out = project_one(p, center, radius)
            assert np.all(out >= -1e-10) and np.all(out <= 10.0 + 1e-10)
            assert np.linalg.norm(out - center) <= radius + 1e-10


class TestSeparateAnchors:
    def test_feasible_input_unchanged(self):
        pts = np.array([[1.0, 1.0], [3.0, 1.0], [5.0, 5.0]])
        out = separate_anchors(pts, 0.5, region_side=10.0)
        assert np.array_equal(out, pts)

    def test_coincident_pair_splits_along_x(self):
        pts = np.array([[3.0, 2.0], [3.0, 2.0]])
        out = separate_anchors(pts, 0.5, region_side=10.0)
        assert np.allclose(out, [[2.75, 2.0], [3.25, 2.0]], atol=1e-12)

    def test_spacing_satisfied_on_random_clusters(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            cluster = rng.uniform(4.0, 4.7, (5, 2))
            out = separate_anchors(cluster, 0.5, region_side=10.0)
            assert min_pair(out) >= 0.5 - 1e-9

    @pytest.mark.parametrize("count", [4, 8])
    @pytest.mark.parametrize("corner", [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)])
    def test_crowd_on_a_square_corner_separates(self, corner, count):
        out = separate_anchors(np.tile(corner, (count, 1)), 0.5, region_side=10.0)
        assert min_pair(out) >= 0.5 - 1e-9
        assert np.all((out >= 0.0) & (out <= 10.0))

    @pytest.mark.parametrize("end", [0.0, 10.0])
    def test_crowd_on_a_segment_end_separates(self, end):
        crowd = np.tile([end, 0.0], (10, 1))
        out = separate_anchors(crowd, 0.5, region_side=10.0, topology=Topology.SEGMENT_1D)
        assert min_pair(out) >= 0.5 - 1e-9
        assert np.all((out[:, 0] >= 0.0) & (out[:, 0] <= 10.0) & (out[:, 1] == 0.0))

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("n", [2, 5, 8, 10])
    def test_stack_matches_lanes_separated_alone(self, topology, n):
        rng = np.random.default_rng(n)
        side = topology.bounds(10.0)[1]
        stack = rng.uniform(0.3, 0.6, (6, n, 2)) * side
        # lanes that start spaced and on a corner, beside the random crowds
        stack[1] = np.linspace([0.0, 0.0], side, n)
        stack[2] = side
        out = separate_anchors(stack, 0.5, region_side=10.0, topology=topology)
        assert out.shape == stack.shape
        for lane in range(len(stack)):
            alone = separate_anchors(stack[lane], 0.5, region_side=10.0, topology=topology)
            assert np.array_equal(out[lane], alone)
        assert np.array_equal(out[1], stack[1])

    def test_near_optimal_against_random_perturbations(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            cluster = rng.uniform(4.0, 4.8, (5, 2))
            out = separate_anchors(cluster, 0.5, region_side=10.0)
            ours = ((out - cluster) ** 2).sum()
            best = np.inf
            for _ in range(10_000):
                cand = np.clip(cluster + rng.normal(0, 0.4, cluster.shape), 0, 10)
                if min_pair(cand) >= 0.5:
                    best = min(best, ((cand - cluster) ** 2).sum())
            assert ours <= best * 1.05

    def test_packing_bound_raises(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InfeasibleSpacing):
            separate_anchors(rng.uniform(0, 1, (50, 2)), 2.0, region_side=10.0)

    def test_gives_up_after_its_sweeps(self, monkeypatch):
        # four coincident points need more than one sweep to separate
        crowd = np.full((4, 2), 5.0)
        assert min_pair(separate_anchors(crowd, 0.5, region_side=10.0)) >= 0.5
        monkeypatch.setattr(positioning, "_SEPARATION_SWEEPS", 1)
        with pytest.raises(InfeasibleSpacing, match="within 1 sweeps"):
            separate_anchors(crowd, 0.5, region_side=10.0)

    def test_segment_mode_stays_on_axis(self):
        pts = np.array([[4.0, 0.0], [4.1, 0.0], [4.2, 0.0]])
        out = separate_anchors(
            pts, 0.5, region_side=10.0, topology=Topology.SEGMENT_1D
        )
        assert np.all(out[:, 1] == 0.0)
        assert min_pair(out) >= 0.5 - 1e-9


def pgd_loop(starts, anchors, centers, radius, lo, hi, channel, rho):
    """``_pgd_loop`` on an (L, N, 2) stack of lanes, projecting onto the
    disks of ``radius`` around ``centers`` within the box [lo, hi], under
    the pull ``rho`` (one for all lanes, or one per lane): each lane's
    (positions, trace, iterations, status)."""
    reach = np.full(len(starts), float(radius))
    proj = positioning._lane_projection(centers, reach, lo, hi)
    pulls = np.broadcast_to(np.asarray(rho, dtype=float), (len(starts),))
    return [
        lane[:4] for lane in positioning._pgd_loop(starts, anchors, proj, channel, pulls, reach)
    ]


def pgd_loop_alone(start, anchors, *shared):
    """``pgd_loop`` on one (N, 2) lane: its (positions, trace, iterations,
    status)."""
    return pgd_loop(start[None], anchors[None], *shared)[0]


def pgd_loop_from_start(scenario, t_mov, anchors, rho):
    """``_pgd_loop`` from the initial deployment over the disks of radius
    ``max_speed * t_mov``: the positions it returns."""
    centers = scenario.initial_positions.coords
    lo, hi = scenario.region_bounds()
    pos, _, _, status = pgd_loop_alone(
        centers,
        np.asarray(anchors, dtype=float),
        centers,
        scenario.max_speed * t_mov,
        lo,
        hi,
        kernel_args(scenario),
        rho,
    )
    assert status != positioning._STATUS_SINGULAR
    return pos


class TestPgdOptimize:
    """One inner position update, ``positioning._pgd_loop``."""

    def test_zero_duration_returns_initial(self, case_wide):
        out = pgd_loop_from_start(case_wide, 0.0, case_wide.initial_positions.coords, 1.0)
        assert np.allclose(out, case_wide.initial_positions.coords, atol=1e-12)

    def test_large_penalty_pins_to_anchors(self, case_wide):
        anchors = np.array([[3.6, 0.0], [6.4, 0.0]])
        out = pgd_loop_from_start(case_wide, 1.0, anchors, 1e6)
        assert np.max(np.linalg.norm(out - anchors, axis=1)) <= 1e-3

    def test_penalized_objective_never_increases(self, case_wide):
        anchors = case_wide.initial_positions.coords
        for rho in [0.0, 0.5, 10.0]:
            out = pgd_loop_from_start(case_wide, 1.5, anchors, rho)
            start_val = trace_objective(case_wide, anchors)
            end_val = trace_objective(case_wide, out) + rho * float(((out - anchors) ** 2).sum())
            assert end_val <= start_val + 1e-12

    def test_reaches_optimal_spacing_with_room(self, case_wide):
        out = pgd_loop_from_start(case_wide, 4.0, case_wide.initial_positions.coords, 0.0)
        assert trace_objective(case_wide, out) == pytest.approx(1.0, abs=1e-9)


class TestOptimizePositions:
    def test_zero_duration_trivial(self, case_wide):
        # a race of zero-reach starts, its jitters drawn at zero scale, is
        # the single start's outcome
        for restarts in (1, 4):
            out = optimize_positions(case_wide, 0.0, PenaltyConfig(restarts))
            assert np.array_equal(out.deployment.coords, case_wide.initial_positions.coords)
            assert out.objective == trace_objective(case_wide, case_wide.initial_positions)
            assert out.converged
            assert (out.certified, out.start) == (False, None)

    def test_wide_gap_reaches_best_spacing_at_two_seconds(self, case_wide):
        out = optimize_positions(case_wide, 2.0)
        xs = np.sort(out.deployment.coords[:, 0])
        assert xs[1] - xs[0] == pytest.approx(4.0, abs=1e-6)
        assert achievable_rate(case_wide, out.deployment) == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(77)
        cfg = PenaltyConfig(restarts=8)
        for _ in range(5):
            freq = rng.uniform(np.pi / 6, np.pi / 2)
            x1 = rng.uniform(1, 7)
            x2 = x1 + rng.uniform(0.6, 2.5)
            vmax = rng.uniform(0.2, 0.6)
            t = float(rng.choice([0.5, 1.0, 2.0]))
            s = two_antenna_line_scenario(x1, x2, spatial_freq=freq, max_speed=vmax)
            out = optimize_positions(s, t, config=cfg)
            r = vmax * t
            g1 = np.arange(max(0, x1 - r), min(10, x1 + r) + 1e-12, 0.01)
            g2 = np.arange(max(0, x2 - r), min(10, x2 + r) + 1e-12, 0.01)
            A, B = np.meshgrid(g1, g2, indexing="ij")
            tr = 1.0 / np.sin(freq * (A - B) / 2) ** 2
            tr[np.abs(A - B) < 0.5] = np.inf
            assert out.objective <= tr.min() * 1.01

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            s = random_instance(rng, n_max=5, k_max=3)
            if s.initial_positions.min_pair_distance() < 0.4:
                continue
            s = s.with_(min_spacing=0.4)
            t = float(rng.uniform(0.2, 2.0))
            out = optimize_positions(s, t)
            coords = out.deployment.coords
            tol = FEASIBILITY_TOL
            shift = np.linalg.norm(coords - s.initial_positions.coords, axis=1).max()
            assert shift <= s.max_speed * t + tol
            assert out.deployment.min_pair_distance() >= s.min_spacing - tol
            assert np.all(coords >= -1e-9) and np.all(coords <= s.region_side + 1e-9)
            assert out.max_constraint_violation <= tol

    def test_never_worse_than_initial(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            s = random_instance(rng, n_max=4, k_max=3)
            t = float(rng.uniform(0.0, 2.0))
            out = optimize_positions(s, t)
            assert out.objective <= trace_objective(s, s.initial_positions) + 1e-9

    def test_monotone_gap_history_when_spacing_binds(self):
        s = two_antenna_line_scenario(
            4.4, 5.6, spatial_freq=np.pi, min_spacing=1.2, max_speed=0.5
        )
        out = optimize_positions(s, 1.0)
        gaps = out.gap_history
        assert len(gaps) >= 2
        assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))
        assert out.converged

    def test_radius_monotone_with_warm_start(self, case_wide):
        prev = None
        prev_obj = np.inf
        for t in [0.25, 0.5, 1.0, 1.5, 2.0]:
            out = optimize_positions(case_wide, t, start=prev)
            assert out.objective <= prev_obj + 1e-6
            prev, prev_obj = out.deployment, out.objective

    def test_segment_topology_keeps_axis(self, case_narrow):
        out = optimize_positions(case_narrow, 1.5)
        assert np.all(out.deployment.coords[:, 1] == 0.0)


class TestUnconstrainedDeploy:
    def test_two_antenna_line_reaches_best_spacing(self, case_wide):
        out = unconstrained_deploy(case_wide)
        xs = np.sort(out.deployment.coords[:, 0])
        assert xs[1] - xs[0] == pytest.approx(4.0, abs=1e-5)
        assert out.objective == pytest.approx(1.0, abs=1e-9)

    def test_single_user_objective_is_position_free(self):
        s = Scenario(
            num_antennas=3,
            num_users=1,
            elevation_angles=np.array([0.4]),
            azimuth_angles=np.array([0.2]),
            fading_coeffs=np.array([2.0]),
            noise_power=1.0,
            total_power=1.0,
            interval=5.0,
            region_side=10.0,
            min_spacing=0.5,
            max_speed=1.0,
            initial_positions=Deployment.from_x([1.0, 2.0, 3.0]),
        )
        out = unconstrained_deploy(s)
        assert out.objective == pytest.approx(1.0 / (3 * 2.0), rel=1e-9)
        assert out.deployment.min_pair_distance() >= 0.5 - FEASIBILITY_TOL

    def test_beats_random_sampling_oracle(self):
        rng = np.random.default_rng(123)
        s = random_instance(rng, n_max=3, k_max=2)
        while s.num_antennas != 3 or s.num_users != 2:
            s = random_instance(rng, n_max=3, k_max=2)
        out = unconstrained_deploy(s, config=PenaltyConfig(restarts=4))
        best = np.inf
        for _ in range(10_000):
            cand = rng.uniform(0, s.region_side, (3, 2))
            try:
                best = min(best, trace_objective(s, cand))
            except Exception:
                continue
        assert out.objective <= best


def sequential_pgd_loop(start, anchors, centers, radius, lo, hi, channel, rho, accepts):
    """Reference spectral projected gradient on log tr(G^-1) + rho *
    ||pos - anchors||^2: ``_pgd_loop`` with the gradient always taken from
    a separate ``trace_and_grad`` call at the accepted point, the halvings
    counted up front (lam = 2^-h for the h with 2^-h * max |d| >
    ``_GRAD_TOL``) and the best penalized value kept as of every iterate,
    so that the progress stop compares the last entry with the one
    2 * ``_NONMONOTONE_MEMORY`` - 1 before it. ``accepts`` collects the
    number of halvings before each accepted step, and None for a stall."""
    proj = lambda pts: kernels.project_deployment(pts, centers, radius, lo, hi)

    def log_trace_and_grad(pts):
        trace, grad, _ = kernels.trace_and_grad(pts, *channel)
        return trace, math.log(trace), grad / trace

    pull = lambda pts: rho * float(((pts - anchors) ** 2).sum())
    window = 2 * positioning._NONMONOTONE_MEMORY
    pos = proj(start)
    trace, log_trace, grad = log_trace_and_grad(pos)
    if np.isnan(trace):
        return pos, math.nan, 0, positioning._STATUS_SINGULAR
    penalized = log_trace + pull(pos)
    g = grad + 2.0 * rho * (pos - anchors)
    recent = [penalized]
    best = (penalized, pos, trace)
    bests = [penalized]
    eta = positioning._PGD_STEP
    status = positioning._STATUS_MAX_ITERS
    iters = 0
    for _ in range(positioning._PGD_MAX_ITERS):
        projected = proj(pos - eta * g)
        d = projected - pos
        reach = np.linalg.norm(d, axis=1).max()
        if reach <= positioning._GRAD_TOL:
            status = positioning._STATUS_CONVERGED
            break
        ref = max(recent[-positioning._NONMONOTONE_MEMORY:])
        slope = float((g * d).sum())
        trials = 1
        while 0.5**trials * reach > positioning._GRAD_TOL:
            trials += 1
        for halvings in range(trials):
            lam = 0.5**halvings
            cand = projected if halvings == 0 else pos + lam * d
            if halvings == 0:
                trace_c = log_trace_and_grad(cand)[0]
            else:
                trace_c, _ = kernels.trace_at(cand, *channel)
            if not np.isnan(trace_c):
                pen_c = math.log(trace_c) + pull(cand)
                if pen_c <= ref + positioning._ARMIJO * lam * slope:
                    break
        else:
            accepts.append(None)
            status = positioning._STATUS_STALLED
            break
        accepts.append(halvings)
        s = cand - pos
        pos, penalized, trace = cand, pen_c, trace_c
        recent.append(penalized)
        if penalized < best[0]:
            best = (penalized, pos, trace)
        bests.append(best[0])
        iters += 1
        if len(bests) >= window and bests[-window] - bests[-1] <= positioning._PROGRESS_TOL:
            status = positioning._STATUS_CONVERGED
            break
        g_new = log_trace_and_grad(pos)[2] + 2.0 * rho * (pos - anchors)
        sy = float((s * (g_new - g)).sum())
        eta = min(float((s * s).sum()) / sy if sy > 0.0 else 2.0 * eta, positioning._STEP_MAX)
        g = g_new
    return best[1], best[2], iters, status


def line_search_cases(seed, count):
    """Random ``_pgd_loop`` arguments on both topologies: 2 to 6 antennas,
    channel amplitudes from 1e-4 to 1 (tr(G^-1) up to about 1e8, as in the
    default scenario), radii from 1e-6 to 10 and rho in {0, 1, 1e3}; every
    fourth case instead takes the speed-free radius of ``unconstrained_deploy``
    (the side on a segment, the diagonal in a square), whose disks cover the
    whole region."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        side = rng.uniform(2.0, 12.0)
        lo = np.zeros(2)
        hi = np.array([side, 0.0 if case % 2 else side])
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 4) + 1))
        centers = rng.uniform(lo, hi, (n, 2))
        anchors = np.clip(centers + rng.normal(0.0, 0.5, (n, 2)), lo, hi)
        radius = 10.0 ** rng.uniform(-6.0, 1.0)
        if case % 4 == 3:
            radius = side * (1.0 if case % 2 else math.sqrt(2.0))
        directions = rng.uniform(-1.0, 1.0, (k, 2))
        amplitudes = 10.0 ** rng.uniform(-4.0, 0.0, k)
        rho = (0.0, 1.0, 1e3)[case % 3]
        channel = (directions, amplitudes, 2 * np.pi, SINGULAR_COND_LIMIT)
        yield centers, anchors, centers, radius, lo, hi, channel, rho


def pinned_cases(seed, count):
    """``line_search_cases`` at rho = 1e9 with the anchors on the start: a
    move beyond ``_GRAD_TOL`` costs more pull than the trace gains, so the
    search stalls wherever its first trial moves that far."""
    for start, _, *shared in line_search_cases(seed, count):
        yield (start, start, *shared[:-1], 1e9)


def all_line_search_cases():
    return itertools.chain(line_search_cases(31, 120), pinned_cases(31, 12))


def test_line_search_matches_sequential_reference(monkeypatch):
    monkeypatch.setattr(positioning, "_PGD_MAX_ITERS", 60)
    projections = []
    project = kernels.project_deployment
    monkeypatch.setattr(
        kernels, "project_deployment", lambda *args: projections.append(1) or project(*args)
    )
    accepts, clip_only_rhos = [], set()
    for args in all_line_search_cases():
        before = len(projections)
        pos, trace, iters, status = pgd_loop_alone(*args)
        if len(projections) == before:
            clip_only_rhos.add(args[-1] > 0.0)
        # the reference always projects with the kernel and adds the pull
        ref_pos, ref_trace, ref_iters, ref_status = sequential_pgd_loop(*args, accepts)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(trace, ref_trace, equal_nan=True)
        assert (iters, status) == (ref_iters, ref_status)
    # the cases reach every branch of the search: a step accepted at the
    # first trial, one accepted after halving, and a stall
    assert 0 in accepts
    assert any(a is not None and a > 0 for a in accepts)
    assert None in accepts
    # loops under covering disks project with the box clip alone, both
    # without the pull (rho = 0) and with it
    assert clip_only_rhos == {False, True}


def lane_stacks(seed, cases):
    """Three lanes per ``_pgd_loop`` case, sharing its centers, radius,
    box and channel: the case's own start, anchors and rho, and two starts
    jittered by about the radius, each with anchors of its own and a pull
    of its own, 4 and 1/4 times the case's rho. Yields the stacked starts
    and anchors, the per-lane pulls and the shared arguments."""
    rng = np.random.default_rng(seed)
    for start, anchors, *shared, rho in cases:
        radius, lo, hi = shared[1:4]
        starts = [start] + [
            np.clip(start + rng.normal(0.0, radius, start.shape), lo, hi) for _ in range(2)
        ]
        anchor_sets = [anchors] + [
            np.clip(anchors + rng.normal(0.0, 0.5, anchors.shape), lo, hi) for _ in range(2)
        ]
        yield np.stack(starts), np.stack(anchor_sets), [rho, 4.0 * rho, rho / 4.0], shared


def test_lanes_match_single_lane_loops(monkeypatch):
    monkeypatch.setattr(positioning, "_PGD_MAX_ITERS", 60)
    accepts, ends = [], []
    for starts, anchors, pulls, shared in lane_stacks(31, all_line_search_cases()):
        lanes = pgd_loop(starts, anchors, *shared, pulls)
        assert len(lanes) == len(starts)
        for (pos, trace, iters, status), start, anchor, rho in zip(lanes, starts, anchors, pulls):
            alone = pgd_loop_alone(start, anchor, *shared, rho)
            assert np.array_equal(pos, alone[0])
            assert np.array_equal(trace, alone[1], equal_nan=True)
            assert (iters, status) == alone[2:]
            sequential_pgd_loop(start, anchor, *shared, rho, accepts)
        ends.append([(iters, status) for *_, iters, status in lanes])
    # the lanes accept first trials and halved steps, stall and hit the cap,
    # and end at different steps of one stack
    assert 0 in accepts and any(a is not None and a > 0 for a in accepts)
    statuses = {status for lanes in ends for _, status in lanes}
    assert {
        positioning._STATUS_CONVERGED,
        positioning._STATUS_STALLED,
        positioning._STATUS_MAX_ITERS,
    } <= statuses
    assert any(len(set(lanes)) == len(lanes) for lanes in ends)


def test_loop_returns_the_log_gradient_at_each_best_iterate(monkeypatch):
    # the gradient each lane carries out equals, bit for bit, a fresh
    # trace_and_grad call at its best iterate, whichever way it ended
    monkeypatch.setattr(positioning, "_PGD_MAX_ITERS", 60)
    statuses = set()
    for starts, anchors, pulls, (centers, radius, lo, hi, channel) in lane_stacks(
        31, all_line_search_cases()
    ):
        reach = np.full(len(starts), float(radius))
        proj = positioning._lane_projection(centers, reach, lo, hi)
        found = positioning._pgd_loop(starts, anchors, proj, channel, np.array(pulls), reach)
        for pos, _, _, status, log_grad in found:
            trace, grad, _ = kernels.trace_and_grad(pos, *channel)
            assert np.array_equal(log_grad, grad / trace, equal_nan=True)
            statuses.add(status)
    assert statuses == {
        positioning._STATUS_CONVERGED,
        positioning._STATUS_MAX_ITERS,
        positioning._STATUS_SINGULAR,
        positioning._STATUS_STALLED,
    }


@pytest.mark.parametrize(
    "rho, gap, log_grad, expected",
    [
        # after the pull-free first round the gradient sets the pull, and a
        # zero, NaN or overflowing one gives the floor of 1
        (0.0, 1.0, np.full((4, 2), 3.0), math.sqrt(18.0) / FEASIBILITY_TOL),
        (0.0, 1.0, np.zeros((4, 2)), 1.0),
        (0.0, 1.0, np.full((4, 2), math.nan), 1.0),
        (0.0, 1.0, np.full((4, 2), 1e300), 1.0),
        # after a pulled round the gap sets it, never below 10 times the last
        (1e3, 10.0, np.full((4, 2), math.nan), 1e3 * 10.0 / (FEASIBILITY_TOL / 2.0)),
        (1e3, FEASIBILITY_TOL / 8.0, np.full((4, 2), math.nan), 1e4),
    ],
    ids=["gradient", "zero-gradient", "nan-gradient", "huge-gradient", "large-gap", "small-gap"],
)
def test_next_pull_is_finite_and_grows(rho, gap, log_grad, expected):
    # a pull stuck at 0 or gone NaN would run a solve through all its rounds
    pull = positioning._next_pull(rho, gap, log_grad)
    assert math.isfinite(pull) and pull > rho
    assert pull == expected


def test_singular_lane_leaves_the_others_running():
    scenario = default_scenario()
    centers = scenario.initial_positions.coords
    lo, hi = scenario.region_bounds()
    # every antenna at one point makes the Gram matrix singular
    starts = np.stack([centers, np.full_like(centers, 5.0), centers + [0.0, 1.0]])
    shared = (
        centers,
        20.0,
        lo,
        hi,
        kernel_args(scenario),
        0.0,
    )
    lanes = pgd_loop(starts, starts, *shared)
    for lane, start in zip(lanes, starts):
        alone = pgd_loop_alone(start, start, *shared)
        assert np.array_equal(lane[0], alone[0])
        assert np.array_equal(lane[1], alone[1], equal_nan=True)
        assert lane[2:] == alone[2:]
    assert [status for *_, status in lanes] == [
        positioning._STATUS_CONVERGED,
        positioning._STATUS_SINGULAR,
        positioning._STATUS_CONVERGED,
    ]


def sequential_optimize_positions(scenario, t_mov, restarts, start=None):
    """Reference ``optimize_positions``: the first restart begins at the
    candidate of the list ``start`` that ``reference_pick_start`` picks, and
    the restarts run one after another, each a one-lane ``_pgd_loop`` per
    outer round with a projection built for that loop alone, with the
    jitters drawn one restart at a time; a restart has converged if its gap
    closed and none of its loops hit the iteration cap, and it ends
    unconverged after a pulled round that leaves its gap above half of the
    pulled round's before; the best feasible
    result wins, ties keep the earliest restart and the initial deployment
    is the floor. Each restart aims its own pull: after the first round at
    the largest row norm of the log-gradient at its result (from a fresh
    ``trace_and_grad`` call) over ``FEASIBILITY_TOL``, after a later one at
    rho * gap / (``FEASIBILITY_TOL`` / 2); at least 1 after the first round
    and 10 times the last pull after a later one, which also stand in for
    an aim that is no finite number.

    With several restarts, a restart certifies the solve at the first loop
    that ends converged with its trace at or below ``trace_floor`` times
    1 + ``_CERTIFIED_MARGIN`` and its spacing within ``FEASIBILITY_TOL``.
    The restarts that certify first, in (round, loop iterations), run on
    as alone; every other restart is run again and stops there: in that
    round its loop keeps its own end if it came within that many
    iterations (a converged end at exactly that many included), and is
    otherwise the loop under an iteration cap of that many, cut and so not
    converged; it takes no further round."""
    radius = scenario.max_speed * t_mov
    initial = scenario.initial_positions.coords
    f_initial = trace_objective(scenario, initial)
    lo, hi = scenario.region_bounds()
    channel = kernel_args(scenario)
    d_min = scenario.min_spacing
    level = trace_floor(scenario) * (1.0 + positioning._CERTIFIED_MARGIN)
    spacing_ok = lambda pts: min_pair_distance(pts) >= d_min - FEASIBILITY_TOL
    separate = lambda pts: separate_anchors(
        pts, d_min, region_side=scenario.region_side, topology=scenario.topology
    )
    rng = np.random.default_rng(0)
    jitter_scale = min(radius, scenario.region_side / 4.0)
    starts = []
    for restart in range(restarts):
        if restart == 0:
            pts = initial if start is None else reference_pick_start(scenario, t_mov, start)
            pts = as_positions(pts)
        else:
            pts = initial + rng.uniform(-jitter_scale, jitter_scale, initial.shape)
        starts.append(kernels.project_deployment(pts, initial, radius, lo, hi))

    def run_restart(pts, stop=None):
        """One restart from ``pts``, stopped at ``stop`` = (round, loop
        iterations) if given: (best trace, its positions, (rounds, inner
        iterations, converged, gap history), the (round, loop iterations)
        at which it first certified, or None)."""
        run_obj, run_pts, certified_at = math.inf, None, None
        if spacing_ok(pts):
            trace, _ = kernels.trace_at(pts, *channel)
            if not np.isnan(trace):
                run_obj, run_pts = float(trace), pts.copy()
        # the first round runs at rho = 0, where the anchors are not read
        anchors = pts
        rho, gaps, inner_total, converged, capped = 0.0, [], 0, False, False
        for outer in range(1, positioning._AO_MAX_ITERS + 1):
            shared = (initial, radius, lo, hi, channel, rho)
            found = pgd_loop_alone(pts, anchors, *shared)
            cut = stop is not None and outer == stop[0]
            if cut:
                inner, status = found[2:]
                if inner > stop[1] or (inner == stop[1] and status != positioning._STATUS_CONVERGED):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(positioning, "_PGD_MAX_ITERS", stop[1])
                        found = pgd_loop_alone(pts, anchors, *shared)[:3]
                    found = (*found, positioning._STATUS_BOUND)
            pts, trace, inner, status = found
            if status == positioning._STATUS_SINGULAR:
                raise SingularChannel("channel is singular at the starting deployment")
            inner_total += inner
            capped |= status == positioning._STATUS_MAX_ITERS
            anchors = separate(pts)
            gap = float(np.linalg.norm(pts - anchors, axis=1).max())
            gaps.append(gap)
            if spacing_ok(pts) and trace < run_obj:
                run_obj, run_pts = float(trace), pts.copy()
            if (
                certified_at is None
                and status == positioning._STATUS_CONVERGED
                and trace <= level
                and spacing_ok(pts)
            ):
                certified_at = (outer, inner)
            if gap <= FEASIBILITY_TOL / 2.0:
                converged = not capped and status != positioning._STATUS_BOUND
                break
            # a pulled round that leaves the gap above half of the pulled
            # round before ends the restart unconverged
            if cut or (outer > 2 and gap > gaps[-2] / 2.0):
                break
            if outer == 1:
                trace_g, grad, _ = kernels.trace_and_grad(pts, *channel)
                steepest = np.linalg.norm(grad / trace_g, axis=1).max()
                aim, least = float(steepest) / FEASIBILITY_TOL, 1.0
            else:
                aim, least = rho * gap / (FEASIBILITY_TOL / 2.0), 10.0 * rho
            rho = aim if math.isfinite(aim) and aim > least else least
        return run_obj, run_pts, (outer, inner_total, converged, tuple(gaps)), certified_at

    runs = [run_restart(pts) for pts in starts]
    certified_at = [run[3] for run in runs if run[3] is not None] if restarts > 1 else []
    if certified_at:
        first = min(certified_at)
        runs = [
            run if run[3] == first else run_restart(pts, stop=first)
            for pts, run in zip(starts, runs)
        ]
    best_obj, best_pts, best_run = f_initial, initial, (0, 0, True, ())
    for restart, (run_obj, run_pts, run, _) in enumerate(runs):
        if run_pts is not None and run_obj < best_obj:
            best_obj, best_pts, best_run = run_obj, run_pts, run
        elif restart == 0:
            best_run = run
    return OptimizeOutcome(
        deployment=Deployment(best_pts),
        objective=best_obj,
        outer_iterations=best_run[0],
        inner_iterations=best_run[1],
        max_constraint_violation=max(0.0, d_min - min_pair_distance(best_pts)),
        converged=best_run[2],
        gap_history=best_run[3],
        certified=bool(certified_at),
    )


def restart_cases():
    """(scenario, t_mov, restarts, candidate starts) for the lane
    comparison: the default scenario at three speeds, its speed-free solve
    (disks that cover the region), a warm start alone and with the
    speed-free optimum, eight antennas (several outer rounds), the segment
    topology with binding spacing, a slow scenario of criterion 9, and
    random instances."""
    base = default_scenario(max_speed_wl_s=6)
    warm = optimize_positions(base, 0.4).deployment
    guide = unconstrained_deploy(base).deployment
    eight = scenario_variant(base, SweepParameter.NUM_ANTENNAS, 8)
    speed_free = lambda s: s.with_(max_speed=s.region_side * math.sqrt(2.0))
    yield default_scenario(max_speed_wl_s=2), 0.8, 4, None
    yield base, 0.56, 4, None
    yield default_scenario(max_speed_wl_s=18), 0.4, 3, None
    yield speed_free(base), 1.0, 4, None
    yield base, 0.48, 4, [warm]
    yield base, 0.48, 4, [warm, guide]
    yield eight, 0.4, 4, None
    yield speed_free(eight), 1.0, 2, None
    line = two_antenna_line_scenario(4.4, 5.6, spatial_freq=np.pi, min_spacing=1.2, max_speed=0.5)
    yield line, 1.0, 5, None
    # reach of a thousandth of a wavelength: each lane aims its own pulls
    yield slow_scenarios()[1], 5.6, 3, None
    rng = np.random.default_rng(71)
    for _ in range(6):
        s = random_instance(rng, n_max=5, k_max=3)
        yield s.with_(min_spacing=0.3), float(rng.uniform(0.2, 2.0)), 3, None
    # a lane cut when a sibling reached the trace floor wins this one
    rng = np.random.default_rng(590)
    s = random_instance(rng, n_max=6, k_max=3)
    yield s.with_(min_spacing=0.3), float(rng.uniform(0.2, 2.0)), 3, None


def test_restart_lanes_match_sequential_restarts():
    rounds, certified = [], []
    for scenario, t_mov, restarts, start in restart_cases():
        config = PenaltyConfig(restarts=restarts)
        try:
            expected = sequential_optimize_positions(scenario, t_mov, restarts, start)
        except InfeasibleSpacing:
            with pytest.raises(InfeasibleSpacing):
                optimize_positions(scenario, t_mov, config, start=start)
            continue
        got = optimize_positions(scenario, t_mov, config, start=start)
        assert np.array_equal(got.deployment.coords, expected.deployment.coords)
        for name in (
            "objective",
            "outer_iterations",
            "inner_iterations",
            "max_constraint_violation",
            "converged",
            "gap_history",
            "certified",
        ):
            assert getattr(got, name) == getattr(expected, name), name
        rounds.append(got.outer_iterations)
        certified.append((got.certified, got.converged))
    # some winning restarts need several outer rounds
    assert max(rounds) > 1
    # some solves end at the trace floor, one won by a lane cut there
    assert (True, True) in certified and (True, False) in certified


def test_stacked_solves_match_solves_alone():
    # solves of one scenario at different durations, each with its own
    # reach and starts, run as lanes of one stack: each equals its
    # optimize_positions call, and reports the candidate it started from
    base = default_scenario(max_speed_wl_s=6)
    guide = unconstrained_deploy(base).deployment
    warm = optimize_positions(base, 0.16).deployment
    slow = slow_scenarios()[1]
    # the first solve here ends at the trace floor, and in a stack that is
    # no race the solve beside it runs on as alone
    eight = scenario_variant(base, SweepParameter.NUM_ANTENNAS, 8)
    eight = eight.with_(max_speed=eight.region_side * math.sqrt(2.0))
    cases = [
        (base, [(0.24, [warm, guide]), (0.0, None), (0.4, [guide]), (0.08, None), (0.56, guide)]),
        (slow, [(5.6, None), (0.8, None), (2.4, None)]),
        (eight, [(1.0, None), (0.2, None)]),
    ]
    rounds, certified = [], []
    for scenario, solves in cases:
        found = positioning._optimize_stack(scenario, solves)
        assert len(found) == len(solves)
        for (t_mov, start), (outcome, score) in zip(solves, found):
            alone = optimize_positions(scenario, t_mov, start=start)
            assert np.array_equal(outcome.deployment.coords, alone.deployment.coords)
            for name in ("objective", "outer_iterations", "inner_iterations", "converged"):
                assert getattr(outcome, name) == getattr(alone, name), name
            assert outcome.gap_history == alone.gap_history
            assert outcome.certified == alone.certified
            assert outcome.start == alone.start
            certified.append(outcome.certified)
            rounds.append(outcome.outer_iterations)
            pick = outcome.start
            if t_mov == 0.0:
                assert pick is None and score is None
                continue
            elif isinstance(start, list):
                winner = reference_pick_start(scenario, t_mov, start)
                assert start[pick] is winner
            else:
                winner = scenario.initial_positions if start is None else start
                assert pick == 0
            # the start score is the picked candidate's trace once in reach
            pts = kernels.project_deployment(
                as_positions(winner),
                scenario.initial_positions.coords,
                scenario.max_speed * t_mov,
                *scenario.region_bounds(),
            )
            assert score == kernels.trace_at(pts, *kernel_args(scenario))[0]
    # the lanes of a stack end after different numbers of rounds
    assert len(set(rounds)) > 2
    assert certified.count(True) == 0
    assert found[0][0].objective <= floor_level(eight) < found[1][0].objective


@pytest.mark.parametrize("restarts", [1, 4])
def test_one_separation_per_outer_round(monkeypatch, restarts):
    # the first round runs at rho = 0 and reads no anchors, so the solve
    # separates once after each round's loop and never before the first;
    # its one projection serves the starts and every round
    calls = collections.Counter()

    def counting(name):
        function = getattr(positioning, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(positioning, name, wrapped)

    counting("separate_anchors")
    counting("_pgd_loop")
    counting("_lane_projection")
    out = optimize_positions(default_scenario(max_speed_wl_s=2), 0.4, PenaltyConfig(restarts))
    # each round is one stacked loop over the lanes still running
    assert out.outer_iterations > 1
    assert calls["_lane_projection"] == 1
    assert calls["separate_anchors"] == calls["_pgd_loop"] >= out.outer_iterations
    if restarts == 1:
        assert calls["_pgd_loop"] == out.outer_iterations


def test_singular_restart_lane_raises():
    scenario = default_scenario()
    # every antenna at one point makes the first lane's channel singular
    start = np.full_like(scenario.initial_positions.coords, 5.0)
    config = PenaltyConfig(restarts=3)
    for solve in (
        lambda: optimize_positions(scenario, 10.0, config, start=start),
        lambda: sequential_optimize_positions(scenario, 10.0, 3, [start]),
    ):
        with pytest.raises(SingularChannel):
            solve()


def test_stall_scores_only_moves_beyond_tolerance(monkeypatch):
    # the solution of a shorter move, held on its own anchors at rho = 1e9
    # (a pull the outer rounds reach): every move beyond the convergence
    # tolerance costs more pull than the trace gains, so the search stalls
    # before its first step, and every candidate it scores on the way moves
    # some antenna by more than that tolerance
    scenario = default_scenario(max_speed_wl_s=18)
    start = optimize_positions(scenario, 0.16).deployment.coords
    lo, hi = scenario.region_bounds()
    scored = []
    trace_at, trace_and_grad = kernels.trace_at, kernels.trace_and_grad

    def recording(kernel, name):
        # the loop scores stacks of lanes: record each (N, 2) slice
        def wrapped(positions, *args):
            scored.extend((name, p.copy()) for p in positions.reshape(-1, *start.shape))
            return kernel(positions, *args)

        return wrapped

    monkeypatch.setattr(kernels, "trace_at", recording(trace_at, "trace_at"))
    monkeypatch.setattr(kernels, "trace_and_grad", recording(trace_and_grad, "grad"))
    _, _, iters, status = pgd_loop_alone(
        start,
        start,
        scenario.initial_positions.coords,
        scenario.max_speed * 0.88,
        lo,
        hi,
        kernel_args(scenario),
        1e9,
    )
    assert (iters, status) == (0, positioning._STATUS_STALLED)
    # the first call scores the start itself; the rest are candidates
    assert scored[0][0] == "grad" and np.array_equal(scored[0][1], start)
    candidates = [positions for _, positions in scored[1:]]
    assert sum(name == "trace_at" for name, _ in scored) >= 1
    for positions in candidates:
        assert positions.shape == start.shape
        assert np.linalg.norm(positions - start, axis=1).max() > positioning._GRAD_TOL


def test_pgd_loop_output_is_feasible(monkeypatch):
    # in the box exactly; in the disk within 2 ulps of the largest coordinate
    # (the projection's radial points and the norm itself are rounded)
    monkeypatch.setattr(positioning, "_PGD_MAX_ITERS", 60)
    for args in line_search_cases(31, 120):
        centers, _, _, radius, lo, hi = args[:6]
        pos = pgd_loop_alone(*args)[0]
        assert np.all(pos >= lo) and np.all(pos <= hi)
        ulp = np.spacing(max(np.abs(pos).max(), np.abs(centers).max()))
        assert np.all(np.linalg.norm(pos - centers, axis=1) <= radius + 2.0 * ulp)


def assert_no_loop_capped(monkeypatch, scenario, t_mov):
    """No PGD loop of the solve at ``t_mov`` ends at the iteration cap;
    None is UpperBound's speed-free solve with its boosted restarts, whose
    loops run as lanes of one stack."""
    statuses = record_loop_statuses(monkeypatch)
    if t_mov is None:
        config = PenaltyConfig(restarts=harness._UNCONSTRAINED_RESTARTS)
        unconstrained_deploy(scenario, config=config)
    else:
        optimize_positions(scenario, t_mov)
    assert statuses and positioning._STATUS_MAX_ITERS not in statuses


@pytest.mark.parametrize(
    "speed, t_mov",
    [
        (2.0, 0.8),
        (2.0, 1.52),
        (6.0, 0.56),
        (6.0, 1.2),
        (18.0, 0.4),
        (18.0, 0.64),
        (6.0, None),
        (2.0, 0.4),
        (6.0, 0.72),
        (18.0, 0.24),
        (6.0, 0.08),
    ],
)
def test_solves_end_below_iteration_cap(monkeypatch, speed, t_mov):
    # each of the first seven solves ran a PGD loop into the 500-iteration
    # cap under the former double-or-halve step rule; the cold solves after
    # them did on the raw trace, whose narrow valleys a loop crawled along,
    # or, at the smallest reach, returned the start
    assert_no_loop_capped(monkeypatch, default_scenario(max_speed_wl_s=speed), t_mov)


@pytest.mark.parametrize("t_mov", [None, 1.6])
def test_eight_antenna_solves_end_below_iteration_cap(monkeypatch, t_mov):
    # on the raw trace both ran loops into the cap: the speed-free solve of
    # an eight-antenna sweep cell and its FMDOAD solve (t = 1.6 s)
    base = default_scenario(max_speed_wl_s=6)
    scenario = scenario_variant(base, SweepParameter.NUM_ANTENNAS, 8)
    assert_no_loop_capped(monkeypatch, scenario, t_mov)


def test_capped_loop_is_not_converged(monkeypatch):
    # a cap below the loops' own ends: a PGD loop of this cold solve runs
    # into it, and its outer rounds still close the spacing gap
    monkeypatch.setattr(positioning, "_PGD_MAX_ITERS", 50)
    statuses = record_loop_statuses(monkeypatch)
    out = optimize_positions(default_scenario(max_speed_wl_s=18), 0.24)
    assert positioning._STATUS_MAX_ITERS in statuses
    assert out.gap_history[-1] <= FEASIBILITY_TOL / 2.0
    assert out.converged is False


def test_small_reach_solve_leaves_the_start():
    # the raw trace (2.85e12 at the initial layout) outweighed any anchor
    # pull the outer rounds reached, so this solve returned the initial
    # deployment (0.0016 b/s/Hz) after 12 rounds, unconverged
    scenario = default_scenario(max_speed_wl_s=6)
    out = optimize_positions(scenario, 0.16)
    assert out.deployment.min_pair_distance() >= scenario.min_spacing - FEASIBILITY_TOL
    assert out.converged
    assert achievable_rate(scenario, out.deployment) > 1.0


@functools.cache
@pytest.mark.parametrize("t_mov", [0.8, 5.6])
@pytest.mark.parametrize("draw", [0, 1])
def test_slow_solve_closes_its_gap_in_three_rounds(draw, t_mov):
    # the pull aimed at the spacing tolerance closes a gap of 1e-4 to 1e-2
    # wavelengths in one or two pulled rounds; the schedule 1, 10, 100, ...
    # took 6 to 8 rounds here
    scenario = slow_scenarios()[draw]
    out = optimize_positions(scenario, t_mov)
    assert out.converged and out.outer_iterations <= 3
    assert out.objective <= trace_objective(scenario, scenario.initial_positions.coords)
    assert out.deployment.min_pair_distance() >= scenario.min_spacing - FEASIBILITY_TOL


def test_penalty_config_needs_a_start():
    with pytest.raises(ValueError):
        PenaltyConfig(restarts=0)


@pytest.mark.parametrize("restarts", [2.5, 2.0, True, "2"])
def test_penalty_config_needs_an_integer_count(restarts):
    # 2.5 once failed later inside optimize_positions, and True ran one start
    with pytest.raises(ValueError, match="restarts must be an integer"):
        PenaltyConfig(restarts=restarts)


def test_penalty_config_accepts_numpy_integers():
    assert PenaltyConfig(restarts=np.int64(3)).restarts == 3


@pytest.mark.parametrize("t_mov", [math.nan, math.inf, -0.1])
def test_solve_rejects_a_bad_duration(t_mov):
    # a NaN radius was ignored by the projection: the solve returned the
    # unlimited-reach answer; a race checks the duration before it draws
    # its jitters at that radius
    for restarts in (1, 4):
        with pytest.raises(ValueError, match="t_mov must be finite and nonnegative"):
            optimize_positions(default_scenario(max_speed_wl_s=6), t_mov, PenaltyConfig(restarts))


@pytest.mark.parametrize("start", [[], np.empty((0, 5, 2))], ids=["list", "stack"])
def test_solve_rejects_an_empty_candidate_list(start):
    with pytest.raises(ValueError, match="empty list of candidate starts"):
        optimize_positions(default_scenario(max_speed_wl_s=6), 0.4, start=start)


@pytest.mark.parametrize("restarts", [1, 2])
def test_solve_scores_its_set_up_in_one_call(monkeypatch, case_wide, restarts):
    # a solve of a two-antenna duration chain, from the previous duration's
    # solution and the speed-free optimum: its first lane ends before a
    # first step, so the set-up is all the solve costs; it scores the
    # candidates, the jitter and the initial deployment in one stacked call
    previous = optimize_positions(case_wide, 0.45).deployment
    candidates = [previous, unconstrained_deploy(case_wide).deployment]
    shapes, builds = [], []
    trace_at, lane_projection = kernels.trace_at, positioning._lane_projection

    def scoring(positions, *rest):
        shapes.append(positions.shape)
        return trace_at(positions, *rest)

    def building(centers, reach, *rest):
        builds.append(len(reach))
        return lane_projection(centers, reach, *rest)

    monkeypatch.setattr(kernels, "trace_at", scoring)
    monkeypatch.setattr(positioning, "_lane_projection", building)
    statuses = record_loop_statuses(monkeypatch)
    out = optimize_positions(case_wide, 0.5, PenaltyConfig(restarts), start=candidates)
    assert out.inner_iterations == 0
    assert shapes == [(len(candidates) + restarts, 2, 2)]
    # one projection for the starts and the loops, sized for every start
    assert builds == [len(candidates) + restarts - 1]
    assert len(statuses) == restarts


@pytest.mark.parametrize("t_mov", [0.0, 0.4])
def test_singular_initial_deployment_raises(t_mov):
    # two users at one angle give the initial deployment a rank-deficient
    # Gram: the solve raises as the trace objective there does
    base = default_scenario()
    angles = [list(base.elevation_angles), list(base.azimuth_angles)]
    for values in angles:
        values[1] = values[0]
    scenario = default_scenario(elevation_angles=angles[0], azimuth_angles=angles[1])
    with pytest.raises(SingularChannel) as expected:
        trace_objective(scenario, scenario.initial_positions)
    with pytest.raises(SingularChannel) as got:
        optimize_positions(scenario, t_mov)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_solve_rejects_a_non_finite_start(value):
    # a NaN start reached LAPACK, which warned, and then either raised
    # SingularChannel for the channel or, next to a finite candidate, was
    # dropped without a word
    scenario = default_scenario(max_speed_wl_s=6)
    bad = scenario.initial_positions.coords.copy()
    bad[2, 1] = value
    for start, index in ((bad, 0), ([scenario.initial_positions, bad], 1)):
        with pytest.raises(ValueError, match=f"candidate start {index} has a non-finite"):
            optimize_positions(scenario, 0.4, start=start)


def test_solve_names_a_start_of_another_size():
    # a 4-antenna candidate failed in np.array with a shape message that
    # named neither the candidate nor the scenario
    scenario = default_scenario(max_speed_wl_s=6)
    four = Deployment(scenario.initial_positions.coords[:4])
    for start, index in ((four, 0), ([scenario.initial_positions, four], 1)):
        with pytest.raises(ValueError, match=f"candidate start {index} has 4 antennas, not 5"):
            optimize_positions(scenario, 0.4, start=start)


# UpperBound's speed-free solves of the default scenario (None) and of its
# NumAntennas variants: a digest of the deployment's bytes, the objective
# and the converged flag, as they were before solves ended at the floor
SPEED_FREE_PINS = [
    (None, "e8868462ce7ec085ab6160ffc3dd9d64", "0x1.33326df960f41p+26", True),
    (4, "645b1553236df683e7bd257474832858", "0x1.7fc76e35b381bp+26", True),
    (5, "0b02a9c0487208197f152aa9e7588169", "0x1.3337534494205p+26", True),
    (6, "28aed3f4ee14d5c2247906c1e5481756", "0x1.fca0f0a28969ep+25", True),
    (7, "396558e54288e4fab6a2661eacbe9f5b", "0x1.b3f76686c5e1bp+25", True),
    (8, "c27d233df87806e273c1fa6d5cbf1fa9", "0x1.7d785963a607ep+25", True),
    (9, "03b585f7bc694af75918c1ed1446a9f1", "0x1.5316317fbe7cep+25", True),
    (10, "0cffcb3b97b2dca4587890b7d17d129a", "0x1.312d2803d68ccp+25", True),
]


def antenna_variant(n):
    """The default scenario, or its NumAntennas variant with ``n`` antennas."""
    base = default_scenario()
    return base if n is None else scenario_variant(base, SweepParameter.NUM_ANTENNAS, n)


def speed_free_outcome(n):
    """UpperBound's multi-start speed-free solve of ``antenna_variant(n)``."""
    config = PenaltyConfig(restarts=harness._UNCONSTRAINED_RESTARTS)
    return unconstrained_deploy(antenna_variant(n), config=config)


def floor_level(scenario):
    """The tr(G^-1) at or below which a lane certifies its solve."""
    return trace_floor(scenario) * (1.0 + positioning._CERTIFIED_MARGIN)


@pytest.mark.parametrize("n, digest, objective, converged", SPEED_FREE_PINS)
def test_speed_free_outcomes_are_pinned(n, digest, objective, converged):
    # from N = 6 up a lane ends within 1e-5 of the floor and its siblings
    # stop there; none of the outcomes moves, bit for bit
    out = speed_free_outcome(n)
    assert hashlib.sha256(out.deployment.coords.tobytes()).hexdigest()[:32] == digest
    assert out.objective.hex() == objective
    assert out.converged is converged
    assert out.certified is (n is not None and n >= 6)
    # a certified outcome sits at the floor
    assert out.certified is (out.objective <= floor_level(antenna_variant(n)))


def test_certified_eight_antenna_solve_halves_its_gradient_calls(monkeypatch):
    # its first lane ends 1.0e-6 above the floor after 113 iterations; the
    # stack used to run to iteration 361 and make 498 trace_and_grad calls
    calls = []
    trace_and_grad = kernels.trace_and_grad

    def counting(*args):
        calls.append(len(args[0]))
        return trace_and_grad(*args)

    monkeypatch.setattr(kernels, "trace_and_grad", counting)
    config = PenaltyConfig(restarts=harness._UNCONSTRAINED_RESTARTS)
    out = unconstrained_deploy(antenna_variant(8), config=config)
    assert out.certified
    assert len(calls) <= 498 // 2


def test_single_user_solve_ends_with_its_first_lane(monkeypatch):
    # with one user every layout sits at the floor, so the first lane to
    # end certifies the solve: every lane ends at its iteration, and the
    # lanes whose spacing fails take no further round
    base = default_scenario(max_speed_wl_s=6)
    scenario = base.with_(
        num_users=1,
        elevation_angles=base.elevation_angles[:1],
        azimuth_angles=base.azimuth_angles[:1],
        fading_coeffs=base.fading_coeffs[:1],
    )
    loops = []
    pgd_loop = positioning._pgd_loop

    def recording(*args, **kwargs):
        result = pgd_loop(*args, **kwargs)
        loops.append([(iters, status) for _, _, iters, status, _ in result])
        return result

    monkeypatch.setattr(positioning, "_pgd_loop", recording)
    out = optimize_positions(scenario, 1.0, PenaltyConfig(restarts=4))
    assert out.certified and out.converged
    assert out.objective <= floor_level(scenario)
    assert len(loops) == 1
    first = min(iters for iters, _ in loops[0])
    assert all(iters == first for iters, _ in loops[0])
    assert positioning._STATUS_CONVERGED in [status for _, status in loops[0]]
    # and the first lane to end leaves as the one that certified the race
    assert positioning._STATUS_CERTIFIED in [status for _, status in loops[0]]
