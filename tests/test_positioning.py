import math

import numpy as np
import pytest

from movant import harness, kernels, positioning
from movant.channel import SINGULAR_COND_LIMIT, achievable_rate, trace_objective
from movant.errors import InfeasibleSpacing
from movant.harness import default_scenario
from movant.positioning import (
    FEASIBILITY_TOL,
    PenaltyConfig,
    optimize_positions,
    project_box_disk,
    separate_anchors,
    unconstrained_deploy,
)
from movant.scenario import Deployment, Scenario, Topology, two_antenna_line_scenario

from conftest import random_instance


def min_pair(points):
    n = len(points)
    return min(
        np.linalg.norm(points[i] - points[j]) for i in range(n) for j in range(i + 1, n)
    )


class TestProjection:
    def test_feasible_point_unchanged(self):
        p = np.array([3.0, 4.0])
        out = project_box_disk(p, np.array([3.5, 4.5]), 1.0, 10.0)
        assert np.array_equal(out, p)

    def test_zero_radius_returns_center(self):
        center = np.array([2.0, 7.0])
        out = project_box_disk(np.array([9.0, 9.0]), center, 0.0, 10.0)
        assert np.array_equal(out, center)

    def test_pure_disk_projection_formula(self):
        center = np.array([5.0, 5.0])
        p = np.array([7.0, 8.0])
        out = project_box_disk(p, center, 1.0, 10.0)
        expected = center + (p - center) / np.linalg.norm(p - center)
        assert np.allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("topology", [Topology.SQUARE_2D, Topology.SEGMENT_1D])
    def test_corner_active_matches_grid_search(self, topology):
        # disk pokes out of the region corner so both constraints bind
        center = np.array([0.4, 0.3 if topology is Topology.SQUARE_2D else 0.0])
        radius = 0.9
        point = np.array([-1.0, -1.2])
        out = project_box_disk(point, center, radius, 10.0, topology)

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
                once = project_box_disk(p, center, radius, 10.0)
                twice = project_box_disk(once, center, radius, 10.0)
                assert np.linalg.norm(twice - once) <= 1e-9

    def test_feasibility_over_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            center = rng.uniform(0, 10, 2)
            radius = rng.uniform(0, 5)
            p = rng.uniform(-10, 20, 2)
            out = project_box_disk(p, center, radius, 10.0)
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

    def test_spacing_satisfied_and_objective_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            cluster = rng.uniform(4.0, 4.7, (5, 2))
            history = []
            out = separate_anchors(cluster, 0.5, region_side=10.0, history=history)
            assert min_pair(out) >= 0.5 - 1e-9
            assert all(
                history[i] >= history[i + 1] - 1e-12 for i in range(len(history) - 1)
            )

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

    def test_segment_mode_stays_on_axis(self):
        pts = np.array([[4.0, 0.0], [4.1, 0.0], [4.2, 0.0]])
        out = separate_anchors(
            pts, 0.5, region_side=10.0, topology=Topology.SEGMENT_1D
        )
        assert np.all(out[:, 1] == 0.0)
        assert min_pair(out) >= 0.5 - 1e-9


def pgd_loop_from_start(scenario, t_mov, anchors, rho):
    """``_pgd_loop`` from the initial deployment over the disks of radius
    ``max_speed * t_mov``: the positions it returns."""
    centers = scenario.initial_positions.coords
    lo, hi = scenario.region_bounds()
    pos, _, _, status = positioning._pgd_loop(
        centers,
        np.asarray(anchors, dtype=float),
        centers,
        scenario.max_speed * t_mov,
        lo,
        hi,
        scenario.direction_vectors(),
        scenario.amplitudes(),
        scenario.wavenumber,
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
        out = optimize_positions(case_wide, 0.0)
        assert np.array_equal(out.coords if hasattr(out, "coords") else out.deployment.coords,
                              case_wide.initial_positions.coords)
        assert out.objective == trace_objective(case_wide, case_wide.initial_positions)
        assert out.converged

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


def sequential_pgd_loop(
    start, anchors, centers, radius, lo, hi, directions, amplitudes, wavenumber, rho, accepts
):
    """Reference spectral projected gradient: ``_pgd_loop`` with the
    gradient always taken from a separate ``trace_and_grad`` call at the
    accepted point, and the halvings counted up front: lam = 2^-h for the
    h with 2^-h * max |d| > ``_GRAD_TOL``. ``accepts`` collects the number
    of halvings before each accepted step, and None for a stall."""
    proj = lambda pts: kernels.project_deployment(pts, centers, radius, lo, hi)
    grad_at = lambda pts: kernels.trace_and_grad(
        pts, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
    )
    pos = proj(start)
    trace, grad, _ = grad_at(pos)
    if np.isnan(trace):
        return pos, math.nan, 0, positioning._STATUS_SINGULAR
    penalized = trace + rho * float(((pos - anchors) ** 2).sum())
    g = grad + 2.0 * rho * (pos - anchors)
    recent = [penalized]
    best = (penalized, pos, trace)
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
        ref -= 1e-12 * abs(ref)
        slope = float((g * d).sum())
        trials = 1
        while 0.5**trials * reach > positioning._GRAD_TOL:
            trials += 1
        for halvings in range(trials):
            lam = 0.5**halvings
            cand = projected if halvings == 0 else pos + lam * d
            if halvings == 0:
                trace_c = grad_at(cand)[0]
            else:
                trace_c, _ = kernels.trace_at(
                    cand, directions, amplitudes, wavenumber, SINGULAR_COND_LIMIT
                )
            if not np.isnan(trace_c):
                pen_c = trace_c + rho * float(((cand - anchors) ** 2).sum())
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
        iters += 1
        if np.linalg.norm(s, axis=1).max() <= positioning._GRAD_TOL:
            status = positioning._STATUS_CONVERGED
            break
        g_new = grad_at(pos)[1] + 2.0 * rho * (pos - anchors)
        sy = float((s * (g_new - g)).sum())
        eta = float((s * s).sum()) / sy if sy > 0.0 else 2.0 * eta
        eta = min(max(eta, positioning._STEP_MIN), positioning._STEP_MAX)
        g = g_new
    return best[1], best[2], iters, status


def line_search_cases(seed, count):
    """Random ``_pgd_loop`` arguments on both topologies: 2 to 6 antennas,
    channel amplitudes from 1e-4 to 1 (tr(G^-1) up to about 1e8, as in the
    default scenario), radii from 1e-6 to 10 and rho in {0, 1, 1e3}."""
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
        directions = rng.uniform(-1.0, 1.0, (k, 2))
        amplitudes = 10.0 ** rng.uniform(-4.0, 0.0, k)
        rho = (0.0, 1.0, 1e3)[case % 3]
        yield centers, anchors, centers, radius, lo, hi, directions, amplitudes, 2 * np.pi, rho


def test_line_search_matches_sequential_reference(monkeypatch):
    monkeypatch.setattr(positioning, "_PGD_MAX_ITERS", 60)
    accepts = []
    for args in line_search_cases(31, 120):
        pos, trace, iters, status = positioning._pgd_loop(*args)
        ref_pos, ref_trace, ref_iters, ref_status = sequential_pgd_loop(*args, accepts)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(trace, ref_trace, equal_nan=True)
        assert (iters, status) == (ref_iters, ref_status)
    # the cases reach every branch of the search: a step accepted at the
    # first trial, one accepted after halving, and a stall
    assert 0 in accepts
    assert any(a is not None and a > 0 for a in accepts)
    assert None in accepts


def test_stall_scores_only_moves_beyond_tolerance(monkeypatch):
    # a warm start at rho = 0 that is already at its optimum: the search
    # stalls before its first step, and every candidate it scores on the
    # way moves some antenna by more than the convergence tolerance
    scenario = default_scenario(max_speed_wl_s=18)
    start = optimize_positions(scenario, 0.8).deployment.coords
    lo, hi = scenario.region_bounds()
    scored = []
    trace_at, trace_and_grad = kernels.trace_at, kernels.trace_and_grad

    def recording(kernel, name):
        def wrapped(positions, *args):
            scored.append((name, positions.copy()))
            return kernel(positions, *args)

        return wrapped

    monkeypatch.setattr(kernels, "trace_at", recording(trace_at, "trace_at"))
    monkeypatch.setattr(kernels, "trace_and_grad", recording(trace_and_grad, "grad"))
    _, _, iters, status = positioning._pgd_loop(
        start,
        start,
        scenario.initial_positions.coords,
        scenario.max_speed * 0.88,
        lo,
        hi,
        scenario.direction_vectors(),
        scenario.amplitudes(),
        scenario.wavenumber,
        0.0,
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
        pos = positioning._pgd_loop(*args)[0]
        assert np.all(pos >= lo) and np.all(pos <= hi)
        ulp = np.spacing(max(np.abs(pos).max(), np.abs(centers).max()))
        assert np.all(np.linalg.norm(pos - centers, axis=1) <= radius + 2.0 * ulp)


@pytest.mark.parametrize(
    "speed, t_mov",
    [(2.0, 0.8), (2.0, 1.52), (6.0, 0.56), (6.0, 1.2), (18.0, 0.4), (18.0, 0.64), (6.0, None)],
)
def test_solves_end_below_iteration_cap(monkeypatch, speed, t_mov):
    # each of these solves ran a PGD loop into the 500-iteration cap under
    # the former double-or-halve step rule; None is UpperBound's speed-free
    # solve with its boosted restarts
    statuses = []

    def recording(*args, **kwargs):
        result = pgd_loop(*args, **kwargs)
        statuses.append(result[3])
        return result

    pgd_loop = positioning._pgd_loop
    monkeypatch.setattr(positioning, "_pgd_loop", recording)
    scenario = default_scenario(max_speed_wl_s=speed)
    if t_mov is None:
        config = PenaltyConfig(restarts=harness._UNCONSTRAINED_RESTARTS)
        unconstrained_deploy(scenario, config=config)
    else:
        optimize_positions(scenario, t_mov)
    assert statuses and positioning._STATUS_MAX_ITERS not in statuses


def test_penalty_config_needs_a_start():
    with pytest.raises(ValueError):
        PenaltyConfig(restarts=0)
