from dataclasses import replace

import math

import numpy as np
import pytest

import movant.positioning as positioning
import movant.scheduling as scheduling
from movant import channel, harness, kernels
from movant.channel import achievable_rate, effective_throughput, kernel_args
from movant.errors import FitDiverged, MovantError, SingularChannel
from movant.scheduling import (
    CurvePoint,
    FitKind,
    SearchMethod,
    TradeoffReport,
    compute_t_mov_max,
    fit_rate_model,
    fitting_method,
    general_search,
    rate_at_duration,
)
from movant.harness import default_scenario
from movant.positioning import PenaltyConfig, optimize_positions, unconstrained_deploy
from movant.scenario import Deployment, as_positions, min_pair_distance, two_antenna_line_scenario

from conftest import record_solves, reference_pick_start, slow_scenarios


def closed_form_throughput(gap, t, interval=5.0):
    return (interval - t) * np.log2(1 + np.sin(np.pi * (gap + t) / 8) ** 2)


class TestRateAtDuration:
    def test_zero_duration_matches_initial_rate(self, case_wide):
        assert rate_at_duration(case_wide, 0.0) == achievable_rate(
            case_wide, case_wide.initial_positions
        )

    def test_wide_gap_saturates_at_one(self, case_wide):
        assert rate_at_duration(case_wide, 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_narrow_gap_saturates_at_one(self, case_narrow):
        assert rate_at_duration(case_narrow, 3.5) == pytest.approx(1.0, abs=1e-8)

    def test_out_of_range_rejected(self, case_wide):
        with pytest.raises(ValueError):
            rate_at_duration(case_wide, 5.5)


class TestGeneralSearch:
    def test_wide_gap_matches_dense_closed_form(self, case_wide):
        report = general_search(case_wide, grid_step=0.01)
        dense_t = np.linspace(0, 2, 200001)
        dense = (5 - dense_t) * np.log2(1 + np.sin(np.pi * (2 + dense_t) / 8) ** 2)
        t_star = dense_t[np.argmax(dense)]
        assert abs(report.best_t_mov - t_star) <= 0.01 + 1e-12
        assert report.best_throughput == pytest.approx(dense.max(), abs=1e-4)

    def test_curve_rises_then_falls(self, case_wide):
        report = general_search(case_wide, grid_step=0.05)
        thr = np.array([p.throughput for p in report.curve])
        peak = int(np.argmax(thr))
        # the bound stops the search past the peak, but not at it
        assert 0 < peak < len(thr) - 1
        assert np.all(np.diff(thr[: peak + 1]) >= -1e-9)
        assert np.all(np.diff(thr[peak:]) <= 1e-9)

    def test_endpoint_anchoring_exact(self, case_wide):
        report = general_search(case_wide, grid_step=0.5)
        static = 5.0 * achievable_rate(case_wide, case_wide.initial_positions)
        assert report.curve[0].t_mov == 0.0
        assert report.curve[0].throughput == static

    def test_report_consistency(self, case_wide):
        report = general_search(case_wide, grid_step=0.25)
        recomputed = effective_throughput(
            case_wide, report.best_deployment, report.best_t_mov
        )
        assert report.best_throughput == pytest.approx(recomputed, abs=1e-9)
        assert report.best_throughput == pytest.approx(
            (5.0 - report.best_t_mov) * report.best_rate, abs=1e-12
        )

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf"), True, "0.1"])
    def test_bad_grid_step_rejected(self, case_wide, step):
        # a NaN or infinite step once searched t = 0 alone and reported it as
        # the best, and True was taken as a 1 s step
        with pytest.raises(ValueError, match="grid_step must be positive"):
            general_search(case_wide, grid_step=step)


def test_a_chain_whose_every_duration_fails_raises():
    # two users at one angle make the initial channel singular, so every
    # duration's solve fails, the guide's start too
    base = default_scenario()
    angles = [list(base.elevation_angles), list(base.azimuth_angles)]
    for values in angles:
        values[1] = values[0]
    scenario = default_scenario(elevation_angles=angles[0], azimuth_angles=angles[1])
    with pytest.raises(MovantError, match="every duration sample failed"):
        general_search(scenario, grid_step=2.0, guide=scenario.initial_positions)


@pytest.mark.parametrize("search", [general_search, fitting_method, compute_t_mov_max])
def test_a_guide_the_scenario_cannot_hold_raises_before_any_solve(monkeypatch, search):
    # a 4-antenna guide on the 5-antenna scenario failed every positive
    # duration's solve, each with an array-shape message, and the search
    # reported a stay at t = 0
    def solving(*args, **kwargs):
        raise AssertionError("a placement solve ran")

    for module in (positioning, scheduling):
        monkeypatch.setattr(module, "_optimize_stack", solving)
        monkeypatch.setattr(module, "unconstrained_deploy", solving)
    scenario = default_scenario()
    coords = scenario.initial_positions.coords
    with pytest.raises(ValueError, match="deployment has 4 antennas, not 5"):
        search(scenario, guide=Deployment(coords[:4]))
    bad = coords.copy()
    bad[0, 0] = math.nan
    with pytest.raises(ValueError, match="deployment coordinates must be finite"):
        search(scenario, guide=bad)


def test_an_array_guide_is_read_as_its_deployment():
    # compute_t_mov_max read the guide as a Deployment, so an (N, 2) array
    # raised AttributeError, in fitting_method too
    scenario = default_scenario()
    coords = scenario.initial_positions.coords + 0.1
    guide = Deployment(coords)
    t_max, a_star = compute_t_mov_max(scenario, guide=coords)
    assert t_max == compute_t_mov_max(scenario, guide=guide)[0] and a_star is coords
    assert t_max == pytest.approx(0.1 * math.sqrt(2.0) / scenario.max_speed)
    speed_free = harness._speed_free(scenario).deployment
    for search in (fitting_method, general_search):
        for given in (coords, speed_free.coords):
            expected = search(scenario, guide=Deployment(given))
            assert_same_report(search(scenario, guide=given), expected)


class TestTMovMax:
    def test_wide_gap_travel_time(self, case_wide):
        t_max, a_star = compute_t_mov_max(case_wide)
        assert t_max == pytest.approx(2.0, abs=1e-5)
        xs = np.sort(a_star.coords[:, 0])
        assert xs[1] - xs[0] == pytest.approx(4.0, abs=1e-5)

    def test_narrow_gap_travel_time(self, case_narrow):
        t_max, _ = compute_t_mov_max(case_narrow)
        assert t_max == pytest.approx(3.5, abs=1e-5)

    def test_already_optimal_start_gives_zero(self):
        s = two_antenna_line_scenario(3.0, 7.0)
        t_max, _ = compute_t_mov_max(s)
        assert t_max <= 1e-5

    def test_capped_at_interval(self, case_narrow):
        slow = case_narrow.with_(max_speed=0.1)
        t_max, _ = compute_t_mov_max(slow)
        assert t_max == slow.interval

    def test_zero_speed_has_no_travel_time(self):
        with pytest.raises(ValueError, match="max_speed must be positive"):
            compute_t_mov_max(default_scenario(max_speed_wl_s=0))


class TestFitRateModel:
    def test_exact_quadratic_recovery(self):
        t = np.linspace(0, 3, 7)
        c1, c2, c3 = -0.4, 3.5, 2.0
        y = c1 * (t - c2) ** 2 + c3
        model = fit_rate_model(list(zip(t, y)), FitKind.QUADRATIC)
        assert model.coefficients == pytest.approx((c1, c2, c3), rel=1e-8)
        assert model.residual_sse <= 1e-16

    def test_wide_gap_quadratic_parameters(self, case_wide):
        t_max, _ = compute_t_mov_max(case_wide)
        times = np.linspace(0, t_max, 5)
        pairs = [(float(t), rate_at_duration(case_wide, float(t))) for t in times]
        model = fit_rate_model(pairs, FitKind.QUADRATIC)
        expected = (-0.0975, 2.0714, 1.0017)
        for got, want in zip(model.coefficients, expected):
            assert abs(got - want) / abs(want) <= 0.02

    def test_narrow_gap_sigmoidal_parameters(self, case_narrow):
        t_max, _ = compute_t_mov_max(case_narrow)
        times = np.linspace(0, t_max, 5)
        pairs = [(float(t), rate_at_duration(case_narrow, float(t))) for t in times]
        model = fit_rate_model(pairs, FitKind.SIGMOIDAL)
        expected = (-0.1465, 1.1959, -1.5977, 1.3763)
        for got, want in zip(model.coefficients, expected):
            assert abs(got - want) / abs(want) <= 0.05

    def test_constant_samples_diverge(self):
        t = np.linspace(0, 2, 5)
        pairs = list(zip(t, np.full(5, 1.3)))
        with pytest.raises(FitDiverged):
            fit_rate_model(pairs, FitKind.QUADRATIC)
        with pytest.raises(FitDiverged):
            fit_rate_model(pairs, FitKind.SIGMOIDAL)

    def test_convex_samples_rejected(self):
        t = np.linspace(0, 2, 5)
        pairs = list(zip(t, t**2))
        with pytest.raises(FitDiverged):
            fit_rate_model(pairs, FitKind.QUADRATIC)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_rate_model([(0, 1), (1, 2)], FitKind.QUADRATIC)
        with pytest.raises(ValueError):
            fit_rate_model([(0, 1), (1, 2), (2, 3)], FitKind.SIGMOIDAL)
        with pytest.raises(ValueError):
            fit_rate_model([(0, 1), (0, 2), (1, 3)], FitKind.QUADRATIC)

    @pytest.mark.parametrize("kind", list(FitKind))
    def test_non_finite_samples_rejected(self, kind):
        # a NaN rate gave NaN coefficients, a NaN duration failed inside
        # LAPACK, and an infinite rate warned
        for bad, sample in (((1, math.nan), 1), ((math.nan, 2), 1), ((3, math.inf), 3)):
            pairs = [(0, 1), (1, 2), (2, 3), (3, 2.5)]
            pairs[sample] = bad
            with pytest.raises(ValueError, match=f"sample {sample} is not finite"):
                fit_rate_model(pairs, kind)

    def test_converged_says_why_the_sigmoid_fit_stopped(self, monkeypatch):
        t = np.linspace(0.0, 3.0, 7)
        wobble = 0.01 * np.array([1.0, -1.0, 0.5, 0.0, -0.5, 1.0, -1.0])
        pairs = list(zip(t, 0.2 + 1.5 / (1.0 + np.exp(3.0 - 2.0 * t)) + wobble))
        settled = fit_rate_model(pairs, FitKind.SIGMOIDAL)
        assert settled.converged
        concave = list(zip(t, -0.4 * (t - 3.5) ** 2 + 2.0 + wobble))
        assert fit_rate_model(concave, FitKind.QUADRATIC).converged
        # stopped at the iteration cap: the same first step, not converged
        monkeypatch.setattr(scheduling, "GAUSS_NEWTON_MAX_ITERS", 1)
        capped = fit_rate_model(pairs, FitKind.SIGMOIDAL)
        assert not capped.converged and capped.coefficients != settled.coefficients
        monkeypatch.undo()
        # stopped at the damping cap: every trial step raises the residual
        evals = []
        inner = scheduling._sigmoid_eval

        def worse_trials(times, params):
            pred, s = inner(times, params)
            evals.append(len(evals))
            return (pred if len(evals) == 1 else pred + 1.0), s

        monkeypatch.setattr(scheduling, "_sigmoid_eval", worse_trials)
        t_arr, y_arr = np.array(pairs).T
        *_, converged = scheduling._fit_sigmoid(t_arr, y_arr)
        # damping grows tenfold from DAMPING_INIT until it passes 1e12
        assert not converged and len(evals) == 1 + 16 < scheduling.GAUSS_NEWTON_MAX_ITERS

    def test_sse_beats_constant_model_gate(self, case_narrow):
        t_max, _ = compute_t_mov_max(case_narrow)
        times = np.linspace(0, t_max, 5)
        pairs = [(float(t), rate_at_duration(case_narrow, float(t))) for t in times]
        y = np.array([rate for _, rate in pairs])
        sse_const = float(((y - y.mean()) ** 2).sum())
        for kind in FitKind:
            model = fit_rate_model(pairs, kind)
            assert model.residual_sse <= sse_const


class TestFittingMethod:
    def test_wide_gap_close_to_dense_optimum(self, case_wide):
        report = fitting_method(case_wide, samples=5)
        dense_t = np.linspace(0, 2, 200001)
        dense = (5 - dense_t) * np.log2(1 + np.sin(np.pi * (2 + dense_t) / 8) ** 2)
        t_star = float(dense_t[np.argmax(dense)])
        assert abs(report.best_t_mov - t_star) <= 0.1
        assert report.best_throughput >= 0.99 * dense.max()

    def test_narrow_gap_fit_tracks_exact_rate(self, case_narrow):
        report = fitting_method(case_narrow, samples=5)
        assert report.fit is not None and report.fit.kind is FitKind.SIGMOIDAL
        t = np.linspace(0, 3.5, 701)
        exact = np.log2(1 + np.sin(np.pi * (0.5 + t) / 8) ** 2)
        assert np.max(np.abs(report.fit.predict(t) - exact)) <= 0.05

    def test_stationary_start_returns_zero_duration(self):
        s = two_antenna_line_scenario(3.0, 7.0)
        report = fitting_method(s, samples=5)
        assert report.best_t_mov == 0.0
        assert report.method is SearchMethod.STATIONARY

    def test_optimizer_call_budget(self, case_wide, monkeypatch):
        guide = unconstrained_deploy(case_wide).deployment
        solves = record_solves(monkeypatch)
        samples = 5
        # every sample is solved (the fit needs them all), then the fitted
        # duration, after the speed-free solve when no guide is given
        fitting_method(case_wide, samples=samples)
        assert len(solves) == samples + 2
        del solves[:]
        fitting_method(case_wide, samples=samples, guide=guide)
        assert len(solves) == samples + 1

    @pytest.mark.parametrize("samples", [4.5, 5.0, "5", 3, np.int64(3)])
    def test_rejects_a_non_integer_or_small_sample_count(self, case_wide, samples):
        # 4.5 once reached np.linspace and raised TypeError
        with pytest.raises(ValueError, match="samples"):
            fitting_method(case_wide, samples=samples)

    def test_accepts_a_numpy_integer_sample_count(self, case_wide):
        got = fitting_method(case_wide, samples=np.int64(5))
        expected = fitting_method(case_wide, samples=5)
        assert (got.best_t_mov, got.best_throughput) == (
            expected.best_t_mov,
            expected.best_throughput,
        )

    def test_report_consistency(self, case_narrow):
        report = fitting_method(case_narrow, samples=5)
        recomputed = effective_throughput(
            case_narrow, report.best_deployment, report.best_t_mov
        )
        assert report.best_throughput == pytest.approx(recomputed, abs=1e-9)

    def test_quadratic_peak_beyond_sampled_range(self, case_wide):
        # non-decreasing sampled rate forces the fitted peak to the right
        # edge of the sampling window or beyond
        t_max, _ = compute_t_mov_max(case_wide)
        times = np.linspace(0, t_max, 5)
        pairs = [(float(t), rate_at_duration(case_wide, float(t))) for t in times]
        rates = [r for _, r in pairs]
        assert all(np.diff(rates) >= -1e-12)
        model = fit_rate_model(pairs, FitKind.QUADRATIC)
        assert model.coefficients[1] >= 0.95 * t_max

    def test_rate_saturates_beyond_travel_time(self, case_narrow):
        t_max, _ = compute_t_mov_max(case_narrow)
        rate_at_max = rate_at_duration(case_narrow, t_max)
        for t in [t_max + 0.5, t_max + 1.0]:
            assert abs(rate_at_duration(case_narrow, t) - rate_at_max) <= 1e-3


def test_unconstrained_solve_shared_by_schedulers(case_wide):
    # the travel-time bound and its deployment agree between calls
    t1, a1 = compute_t_mov_max(case_wide)
    t2, a2 = compute_t_mov_max(case_wide)
    assert t1 == t2
    assert np.array_equal(a1.coords, a2.coords)


SCHEDULERS = {
    "general_search": lambda s: general_search(s, grid_step=0.5),
    "fitting_method": lambda s: fitting_method(s, samples=5),
}


def test_general_search_with_guide_makes_no_speed_free_solve(case_wide, monkeypatch):
    # the guide a guide-less search solves for itself gives the same search
    expected = general_search(case_wide, grid_step=0.5)
    guide = unconstrained_deploy(case_wide).deployment

    def speed_free(*args, **kwargs):
        raise AssertionError("general_search solved the speed-free optimum")

    solves = record_solves(monkeypatch)
    monkeypatch.setattr(scheduling, "unconstrained_deploy", speed_free)
    report = general_search(case_wide, grid_step=0.5, guide=guide)
    # one solve per curve point; the speed-free bound ends the grid
    # {0, 0.5, ..., 4.5} early
    assert len(solves) == len(report.curve)
    assert len(solves) < 10
    assert np.array_equal(report.best_deployment.coords, expected.best_deployment.coords)
    assert replace(report, best_deployment=None) == replace(expected, best_deployment=None)


def grid_durations(interval, step):
    """The duration grid ``general_search`` builds: {0, step, ...} below the
    interval."""
    durations = []
    index = 0
    while index * step < interval - 1e-12:
        durations.append(index * step)
        index += 1
    return durations


BOUND_CASES = {
    **{
        f"default@{v}": (lambda v=v: default_scenario(max_speed_wl_s=v), 0.08, harness._speed_free)
        for v in (2, 6, 18)
    },
    "pair(4,6)": (lambda: two_antenna_line_scenario(4.0, 6.0), 0.05, unconstrained_deploy),
    "pair(5,5.5)": (lambda: two_antenna_line_scenario(5.0, 5.5), 0.05, unconstrained_deploy),
}


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_bound_stop_keeps_the_full_chains_best(name):
    build, step, speed_free = BOUND_CASES[name]
    scenario = build()
    guide = speed_free(scenario).deployment
    durations = grid_durations(scenario.interval, step)
    full, _ = scheduling._duration_chain(
        scenario, durations, guide, SearchMethod.GENERAL_SEARCH, scenario.interval
    )
    stopped = general_search(scenario, grid_step=step, guide=guide)
    assert len(full.curve) == len(durations)
    assert stopped.best_t_mov == full.best_t_mov
    assert stopped.best_throughput == full.best_throughput
    assert np.array_equal(stopped.best_deployment.coords, full.best_deployment.coords)
    # the chain is sequential, so the stopped curve is the full one's prefix
    solved = len(stopped.curve)
    assert solved < len(durations)
    assert stopped.curve == full.curve[:solved]
    # the reach rate ceiling rules out the first duration left unsolved and
    # every duration after it
    top = max(p.rate for p in stopped.curve)
    assert bound_from(scenario, durations[solved:], top) <= stopped.best_throughput


def test_slow_draws_stay_without_a_placement_solve(monkeypatch):
    # below the speed threshold the reach rate ceiling proves the stay once
    # t = 0 is solved: no lane of positive reach runs, the guide's solve
    # included, and the best is the full chain's
    for scenario in slow_scenarios():
        durations = grid_durations(scenario.interval, 0.8)
        full, _ = scheduling._duration_chain(
            scenario,
            durations,
            unconstrained_deploy(scenario).deployment,
            SearchMethod.GENERAL_SEARCH,
            scenario.interval,
        )
        solves = record_solves(monkeypatch)
        report = general_search(scenario, grid_step=0.8)
        monkeypatch.undo()
        reaches = [solve.scenario.max_speed * solve.t_mov for solve in solves]
        guides = [solve.scenario for solve in solves if solve.speed_free]
        assert (reaches, guides) == ([0.0], [])
        assert [p.t_mov for p in report.curve] == [0.0]
        assert (report.best_t_mov, report.best_throughput) == (0.0, full.best_throughput)
        assert full.best_t_mov == 0.0 and len(full.curve) == len(durations)


def test_singular_guide_stops_at_the_rate_ceiling(case_wide):
    # every antenna at one point: the guide's rate raises SingularChannel,
    # but the certified ceiling needs no guide, so the search still stops
    guide = Deployment(np.full(case_wide.initial_positions.coords.shape, 5.0))
    with pytest.raises(SingularChannel):
        achievable_rate(case_wide, guide)
    durations = grid_durations(case_wide.interval, 0.5)
    full, _ = scheduling._duration_chain(
        case_wide, durations, guide, SearchMethod.GENERAL_SEARCH, case_wide.interval
    )
    report = general_search(case_wide, grid_step=0.5, guide=guide)
    solved = len(report.curve)
    assert len(full.curve) == len(durations) == 10
    assert solved < len(durations)
    assert report.curve == full.curve[:solved]
    assert (report.best_t_mov, report.best_throughput) == (full.best_t_mov, full.best_throughput)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_no_movement_possible_stays_at_zero(case_wide, monkeypatch, name):
    frozen = case_wide.with_(max_speed=0.0)
    solves = record_solves(monkeypatch)
    report = SCHEDULERS[name](frozen)
    assert len(solves) == 0
    assert report.best_t_mov == 0.0
    assert report.best_throughput == pytest.approx(
        5.0 * achievable_rate(frozen, frozen.initial_positions)
    )


def fail_solves(monkeypatch, scenario, should_fail, error) -> list:
    """Make every placement solve of ``scenario`` whose duration
    ``should_fail`` accepts raise ``error``, stacked or alone:
    ``positioning._optimize_stack`` is patched in the defining module (used
    by optimize_positions) and as the scheduler's imported name. Returns the
    list of durations solved, each once, in the order first seen; the
    speed-free solve poses another scenario and is not among them."""
    seen = []
    original = positioning._optimize_stack

    def flaky(posed, solves, *args, **kwargs):
        if posed is not scenario:
            return original(posed, solves, *args, **kwargs)
        durations = [t for t, _ in solves]
        seen.extend(t for t in durations if t not in seen)
        if any(should_fail(t, seen) for t in durations):
            raise error
        return original(posed, solves, *args, **kwargs)

    monkeypatch.setattr(positioning, "_optimize_stack", flaky)
    monkeypatch.setattr(scheduling, "_optimize_stack", flaky)
    return seen


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_schedulers_isolate_failed_samples(case_wide, monkeypatch, name):
    # the third duration solved: t = 1.0 on the grid, the middle sample of
    # the fitting method
    seen = fail_solves(
        monkeypatch,
        case_wide,
        lambda t, seen: len(seen) >= 3 and t == seen[2],
        SingularChannel("synthetic solver failure"),
    )
    report = SCHEDULERS[name](case_wide)
    failed_t = seen[2]
    assert failed_t == (1.0 if name == "general_search" else report.curve[2].t_mov)
    assert report.failures == ((failed_t, "synthetic solver failure"),)
    failed = [p for p in report.curve if p.t_mov == failed_t]
    assert len(failed) == 1 and np.isnan(failed[0].rate)
    assert report.best_t_mov != failed_t
    assert np.isfinite(report.best_throughput)
    assert np.isfinite(report.best_rate)


def test_general_search_propagates_programming_errors(case_wide, monkeypatch):
    fail_solves(
        monkeypatch,
        case_wide,
        lambda t, seen: abs(t - 1.0) < 1e-12,
        TypeError("synthetic programming error"),
    )
    with pytest.raises(TypeError, match="synthetic programming error"):
        general_search(case_wide, grid_step=0.5)


def test_fitting_method_falls_back_when_fits_diverge(case_wide, monkeypatch):
    from movant.errors import FitDiverged, SingularChannel

    def always_diverges(samples, kind):
        raise FitDiverged("synthetic")

    monkeypatch.setattr(scheduling, "fit_rate_model", always_diverges)
    report = fitting_method(case_wide, samples=5)
    assert report.fit is None
    assert report.method is SearchMethod.FITTING
    # best of the five sampled durations only
    sampled = {p.t_mov for p in report.curve}
    assert report.best_t_mov in sampled
    best = max(report.curve, key=lambda p: p.throughput)
    assert report.best_throughput == best.throughput


def test_solve_starts_from_the_best_candidate(monkeypatch):
    # the duration chain passes [previous solution, speed-free optimum] and
    # the solver begins at the better one pulled into reach; a solve from a
    # list of candidates is the solve from the winner alone, bit for bit
    scenario = default_scenario(max_speed_wl_s=6)
    initial = scenario.initial_positions
    lo, hi = scenario.region_bounds()
    guide = Deployment(initial.coords + [[0.5, 0.5]] * len(initial))
    previous = Deployment(initial.coords + [[0.0, 0.3]] * len(initial))
    # every antenna at one point: a singular channel and a NaN trace
    singular = Deployment(np.full(initial.coords.shape, 5.0))
    other_singular = Deployment(np.full(initial.coords.shape, 2.0))
    # a layout whose reversed antenna order has the same trace bit for bit:
    # at t = 10 the disks cover the region, so both project onto themselves
    rng = np.random.default_rng(5)
    draws = (rng.uniform(lo, hi, initial.coords.shape) for _ in range(200))

    def reversal_ties(a):
        trace, _ = kernels.trace_at(np.stack([a, a[::-1]]), *kernel_args(scenario))
        return trace[0] == trace[1]

    tied = next(filter(reversal_ties, draws))
    cases = [
        (0.05, [previous, guide], 1),
        (10.0, [tied, tied[::-1]], 1),
        (0.05, [singular, guide], 1),
        (10.0, [singular, other_singular], 1),
        (0.05, [guide], 1),
        (0.05, np.stack([previous.coords, guide.coords]), 1),
        (0.05, [previous, guide], 3),
        (10.0, [tied[::-1], singular, tied], 2),
    ]
    trace_at = kernels.trace_at
    stacked = []

    def recording(positions, *rest):
        if positions.ndim == 3:
            stacked.append(positions.shape)
        return trace_at(positions, *rest)

    def solve(t_mov, start, restarts):
        try:
            return optimize_positions(scenario, t_mov, PenaltyConfig(restarts), start=start)
        except SingularChannel:
            return None

    picked = []
    for t_mov, candidates, restarts in cases:
        winner = reference_pick_start(scenario, t_mov, candidates)
        expected = solve(t_mov, winner, restarts)
        monkeypatch.setattr(kernels, "trace_at", recording)
        stacked.clear()
        got = solve(t_mov, candidates, restarts)
        monkeypatch.setattr(kernels, "trace_at", trace_at)
        # every candidate and jitter start is scored in one stacked call,
        # and the initial deployment as its last slice
        assert stacked == [(len(candidates) + restarts, *initial.coords.shape)]
        assert (got is None) == (expected is None)
        if got is not None:
            assert np.array_equal(got.deployment.coords, expected.deployment.coords)
            for name in ("objective", "outer_iterations", "inner_iterations", "converged"):
                assert getattr(got, name) == getattr(expected, name), name
            assert got.gap_history == expected.gap_history
        same = [np.array_equal(as_positions(c), as_positions(winner)) for c in candidates]
        picked.append(same.index(True))
    # the tie keeps the first candidate, and so does a set with no finite
    # trace (whose solve then raises); a singular candidate loses
    assert picked[1] == 0 and picked[3] == 0 and picked[2] == 1 and picked[7] == 0
    assert solve(10.0, [singular, other_singular], 1) is None
    # the tie is a real choice: the reversed layout alone solves elsewhere
    assert not np.array_equal(
        solve(10.0, tied, 1).deployment.coords, solve(10.0, tied[::-1], 1).deployment.coords
    )


def bound_from(scenario, durations, top):
    """The most throughput that any of ``durations`` could give: (interval
    - t) times the larger of the reach rate ceiling at max_speed * t and a
    solved rate ``top``."""
    reach = scenario.max_speed * np.array(durations)
    ceilings = channel.reach_rate_ceiling(scenario, reach).tolist()
    return max((scenario.interval - t) * max(c, top) for t, c in zip(durations, ceilings))


def one_duration_chain(scenario, durations, guide, method, t_mov_max, stop_at_bound=False):
    """Reference ``scheduling._duration_chain``: each duration solved alone,
    in turn, by ``optimize_positions`` from the previous solution and the
    guide, with its rate (``scheduling._solve_duration``); a solve or rate
    that raises is a failure with a NaN curve point, and with
    ``stop_at_bound`` the chain ends where the reach rate ceiling of each
    later duration (or a higher solved rate) rules it out. A guide of None
    is solved at the first positive duration."""
    curve, failures, solved = [], [], []
    best, warm, top = None, None, -math.inf
    for j, t in enumerate(durations):
        if stop_at_bound and best is not None:
            if bound_from(scenario, durations[j:], top) <= best[0]:
                break
        if guide is None and t > 0.0:
            guide = unconstrained_deploy(scenario).deployment
        try:
            starts = [d for d in (warm, guide) if d is not None]
            rate, outcome = scheduling._solve_duration(scenario, t, start=starts or None)
        except (MovantError, ValueError) as exc:
            failures.append((t, str(exc)))
            curve.append(CurvePoint(t, math.nan, math.nan))
            continue
        warm = outcome.deployment
        solved.append((t, warm))
        top = max(top, rate)
        throughput = (scenario.interval - t) * rate
        curve.append(CurvePoint(t, rate, throughput))
        if best is None or throughput > best[0]:
            best = (throughput, t, rate, warm, outcome.converged)
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


def assert_same_report(got, expected):
    # NaN curve points compare equal field by field only as the same object
    assert np.array_equal(got.best_deployment.coords, expected.best_deployment.coords)
    assert replace(got, best_deployment=None, curve=()) == replace(
        expected, best_deployment=None, curve=()
    )
    assert len(got.curve) == len(expected.curve)
    for a, b in zip(got.curve, expected.curve):
        fields = [(p.t_mov, p.rate, p.throughput) for p in (a, b)]
        assert np.array_equal(*fields, equal_nan=True)


def at_threshold(slow):
    """A slow draw at twice its speed, its speed threshold: above the speed
    at which the reach rate ceiling proves the stay on the 0.8 s grid, so
    its chain runs every duration."""
    return slow.with_(max_speed=2.0 * slow.max_speed)


# (scenario, grid step, duration index of a solve made to fail or None,
# whether every guide-started duration counts as settled): the two-antenna
# pairs, the slow draws at their speed threshold and the default scenario,
# on the benchmark's grids and guides and on the default grid step. Counting every guide-started
# duration stacks windows in the chains whose solves iterate too, and there
# they miss; the default chains as the schemes run them are pinned in
# tests/test_harness.py.
CHAIN_CASES = {
    "pair(4,6)": (lambda: two_antenna_line_scenario(4.0, 6.0), 0.05, None, False),
    "pair(5,5.5)": (lambda: two_antenna_line_scenario(5.0, 5.5), 0.05, None, False),
    "pair(5,5.5) failing": (lambda: two_antenna_line_scenario(5.0, 5.5), 0.05, 11, False),
    "slow0": (lambda: at_threshold(slow_scenarios()[0]), 0.8, None, False),
    "slow1": (lambda: at_threshold(slow_scenarios()[1]), 0.8, None, False),
    "slow1 every guide start": (lambda: at_threshold(slow_scenarios()[1]), 0.8, None, True),
    **{
        f"default@{v} every guide start": (
            lambda v=v: default_scenario(max_speed_wl_s=v), 0.08, None, True
        )
        for v in (2, 6, 18)
    },
    "default@2 failing": (lambda: default_scenario(max_speed_wl_s=2), 0.08, 6, True),
    **{
        f"default@{v} step interval/400": (
            lambda v=v: default_scenario(max_speed_wl_s=v), None, None, True
        )
        for v in (6, 18)
    },
}


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_stacked_chain_matches_the_one_duration_chain(monkeypatch, name):
    build, step, failing, every_guide_start = CHAIN_CASES[name]
    scenario = build()
    speed_free = harness._speed_free if name.startswith("default") else unconstrained_deploy
    guide = speed_free(scenario).deployment
    if every_guide_start:
        monkeypatch.setattr(scheduling, "SETTLED_ITERATIONS", 10**9)
    if failing is not None:
        grid = grid_durations(scenario.interval, step)
        fail_solves(
            monkeypatch,
            scenario,
            lambda t, seen: t == grid[failing],
            SingularChannel("synthetic solver failure"),
        )
    # the size of each window and the (t, outcome, settled, (trace, cond))
    # of each duration it kept
    windows = []
    solve_window = scheduling._solve_window

    def recording(posed, durations, warm, guide):
        kept = solve_window(posed, durations, warm, guide)
        windows.append((len(durations), kept))
        return kept

    monkeypatch.setattr(scheduling, "_solve_window", recording)
    searches = {
        "general_search": lambda: general_search(scenario, grid_step=step, guide=guide),
        "fitting_method": lambda: fitting_method(scenario, guide=guide),
    }
    got = {key: search() for key, search in searches.items()}
    monkeypatch.setattr(scheduling, "_solve_window", solve_window)
    monkeypatch.setattr(scheduling, "_duration_chain", one_duration_chain)
    for key, search in searches.items():
        assert_same_report(got[key], search())
    if failing is not None:
        assert got["general_search"].failures[0][0] == grid[failing]
    # every kept stacked lane is the solve of its duration alone, from the
    # previous kept solution and the guide
    stacked = 0
    for _, kept in windows:
        for (t, outcome, *_), (_, previous, *_) in zip(kept[1:], kept):
            alone = optimize_positions(scenario, t, start=[previous.deployment, guide])
            assert np.array_equal(outcome.deployment.coords, alone.deployment.coords)
            # the lane started from its one candidate, the guide, which the
            # solve alone picks from the two
            assert (outcome.start, alone.start) == (0, 1)
            assert outcome == replace(alone, deployment=outcome.deployment, start=0)
            stacked += 1
    if name.startswith("pair"):
        assert stacked > 20
    # the guide starts two durations in a row in each of these chains
    assert max(size for size, _ in windows) > 1 or not every_guide_start


def record_windows(monkeypatch) -> list:
    """The list that collects every window the chain solves from here on,
    as (its durations, how many it kept, their settled flags), the
    last two None for a window that raised."""
    ends = []
    solve_window = scheduling._solve_window

    def recording(posed, durations, warm, guide):
        try:
            kept = solve_window(posed, durations, warm, guide)
        except (MovantError, ValueError):
            ends.append((list(durations), None, None))
            raise
        ends.append((list(durations), len(kept), [settled for _, _, settled, _ in kept]))
        return kept

    monkeypatch.setattr(scheduling, "_solve_window", recording)
    return ends


def guide_floor(scenario, durations, guide):
    """Reference ``scheduling._guide_floor``: the guide projected into the
    reach of each duration on its own and scored alone, where the
    projection keeps the spacing."""
    lo, hi = scenario.region_bounds()
    floor = -math.inf
    for t in durations:
        initial, reach = scenario.initial_positions.coords, scenario.max_speed * t
        pts = kernels.project_deployment(as_positions(guide), initial, reach, lo, hi)
        trace, cond = kernels.trace_at(pts, *kernel_args(scenario))
        spaced = min_pair_distance(pts) >= scenario.min_spacing - positioning.FEASIBILITY_TOL
        if spaced and not np.isnan(trace):
            floor = max(floor, (scenario.interval - t) * channel.rate_of_trace(scenario, trace, cond))
    return floor


def assert_windows_end_at(scenario, grid, report, ends, floor):
    """Each window of more than one duration ends where the bound stop,
    at the larger of ``floor`` and the best throughput before the window,
    rules out the next duration, or at the grid's end."""
    for window, *_ in ends:
        if len(window) == 1:
            continue
        before = [p for p in report.curve if p.t_mov < window[0] and not math.isnan(p.rate)]
        level = max(floor, max(p.throughput for p in before))
        top = max(p.rate for p in before)
        last = grid.index(window[-1])
        assert bound_from(scenario, grid[last:], top) > level
        assert last + 1 == len(grid) or bound_from(scenario, grid[last + 1 :], top) <= level


def one_duration_search(monkeypatch, search):
    """``search()`` with the one-duration chain in place of the stacked one."""
    duration_chain = scheduling._duration_chain
    monkeypatch.setattr(scheduling, "_duration_chain", one_duration_chain)
    try:
        return search()
    finally:
        monkeypatch.setattr(scheduling, "_duration_chain", duration_chain)


def test_stacked_chains_cover_misses_failures_and_the_bound_stop(monkeypatch):
    # the cases above stack windows that miss partway, raise inside a
    # window and reach past the bound stop
    ends = record_windows(monkeypatch)
    scenario = default_scenario(max_speed_wl_s=2)
    guide = harness._speed_free(scenario).deployment
    grid = grid_durations(scenario.interval, 0.08)
    # the guide starts the first five durations, but its solves iterate:
    # no window opens
    general_search(scenario, grid_step=0.08, guide=guide)
    assert {len(window) for window, *_ in ends} == {1}
    del ends[:]
    # counted all the same, they open a window at t[3], to the stop at the
    # guide floor; it keeps three durations, from the guide, and the
    # solution of the third starts the fourth, whose solve iterates: no
    # window opens again
    monkeypatch.setattr(scheduling, "SETTLED_ITERATIONS", 10**9)
    report = general_search(scenario, grid_step=0.08, guide=guide)
    shapes = [(len(window), kept, settled) for window, kept, settled in ends]
    assert shapes[3] == (32, 3, [True] * 3) and ends[3][0][0] == grid[3]
    assert {size for size, *_ in shapes[:3] + shapes[4:]} == {1}
    assert_windows_end_at(scenario, grid, report, ends, guide_floor(scenario, grid[3:], guide))
    monkeypatch.setattr(scheduling, "SETTLED_ITERATIONS", 0)
    del ends[:]
    # the guide settles every duration of a pair chain: one window from t[3]
    # takes every duration to the stop at the guide floor, which is the
    # best throughput found
    pair = two_antenna_line_scenario(5.0, 5.5)
    grid = grid_durations(pair.interval, 0.05)
    pair_guide = unconstrained_deploy(pair).deployment
    search = lambda: general_search(pair, grid_step=0.05, guide=pair_guide)
    report = search()
    floor = guide_floor(pair, grid[3:], pair_guide)
    assert floor == report.best_throughput
    assert [(len(window), kept) for window, kept, _ in ends] == [(1, 1)] * 3 + [(52, 52)]
    assert len(report.curve) == 55 < len(grid) == 100
    assert_windows_end_at(pair, grid, report, ends, floor)
    assert_same_report(report, one_duration_search(monkeypatch, search))
    del ends[:]
    # with a floor below the best (none at all) the window opens to the stop
    # at the best so far, and the stop comes inside it: the window keeps 68
    # lanes, the 16 past the stop are dropped, and the report stays the same
    guide_floor_of = scheduling._guide_floor
    monkeypatch.setattr(scheduling, "_guide_floor", lambda *args: -math.inf)
    assert_same_report(search(), report)
    window, kept, settled = ends[-1]
    assert (len(ends), len(window), kept) == (4, 90, 68) and settled == [True] * kept
    assert_windows_end_at(pair, grid, report, ends, -math.inf)
    monkeypatch.setattr(scheduling, "_guide_floor", guide_floor_of)
    del ends[:]
    # the window from t[3] raised, and the chain went on one duration at a
    # time from t[3] until t[11] failed alone; then t[12] and t[13] opened a
    # window again
    fail_solves(monkeypatch, pair, lambda t, seen: t == grid[11], SingularChannel("synthetic"))
    failing = search()
    shapes = [(grid.index(window[0]), len(window), kept) for window, kept, _ in ends]
    assert shapes == [(k, 1, 1) for k in range(3)] + [(3, 52, None)] + [
        (k, 1, 1) for k in range(3, 11)
    ] + [(11, 1, None), (12, 1, 1), (13, 1, 1), (14, 41, 41)]
    assert failing.failures == ((grid[11], "synthetic"),)
    assert_same_report(failing, one_duration_search(monkeypatch, search))


def test_a_floor_above_the_best_ends_the_window_early(monkeypatch):
    # the bound stop at a floor above the best rules out durations that the
    # chain still solves: the window ends before the stop, and the windows
    # after it carry on, one duration each, as the stop at the floor rules
    # out all but their first
    pair = two_antenna_line_scenario(5.0, 5.5)
    grid = grid_durations(pair.interval, 0.05)
    search = lambda: general_search(pair, grid_step=0.05)
    expected = search()
    ends = record_windows(monkeypatch)
    floor = expected.best_throughput + 0.1
    monkeypatch.setattr(scheduling, "_guide_floor", lambda *args: floor)
    report = search()
    assert_same_report(report, expected)
    sizes = [len(window) for window, *_ in ends]
    assert sizes[:3] == [1, 1, 1] and 1 < sizes[3] < 52 and set(sizes[4:]) == {1}
    assert 3 + sizes[3] + len(sizes[4:]) == len(report.curve) == 55
    assert_windows_end_at(pair, grid, report, ends, floor)


def test_a_failing_duration_costs_one_stacked_solve(monkeypatch):
    # t[11] and t[30] fail: the window from t[3] raises, the chain finds
    # t[11] alone, and the next window, from t[14], raises for t[30]; a
    # window that the chain opens after t[30] fails alone holds neither
    pair = two_antenna_line_scenario(5.0, 5.5)
    grid = grid_durations(pair.interval, 0.05)
    failing = (grid[11], grid[30])
    fail_solves(monkeypatch, pair, lambda t, seen: t in failing, SingularChannel("synthetic"))
    search = lambda: general_search(pair, grid_step=0.05)
    ends = record_windows(monkeypatch)
    report = search()
    wide = [(grid.index(window[0]), kept) for window, kept, _ in ends if len(window) > 1]
    assert wide == [(3, None), (14, None), (33, 22)]
    assert report.failures == tuple((t, "synthetic") for t in failing)
    assert_same_report(report, one_duration_search(monkeypatch, search))


def test_a_rate_that_raises_inside_a_window_fails_its_duration(monkeypatch):
    # the rate of the kept lane at t[20] raises: that duration fails, the
    # lanes kept after it go, and the chain goes on from t[19]'s solution,
    # as the one-duration chain does
    pair = two_antenna_line_scenario(5.0, 5.5)
    grid = grid_durations(pair.interval, 0.05)
    _, solved = one_duration_chain(
        pair, grid[:21], unconstrained_deploy(pair).deployment, SearchMethod.GENERAL_SEARCH, 5.0
    )
    # every rate comes from a deployment's trace, the chain's from its
    # window's stacked trace_at call and achievable_rate's from its own
    target, _ = kernels.trace_at(solved[20][1].coords, *kernel_args(pair))
    assert [kernels.trace_at(d.coords, *kernel_args(pair))[0] for _, d in solved].count(target) == 1
    rate = scheduling.rate_of_trace

    def flaky(scenario, trace, cond):
        if trace == target:
            raise SingularChannel("synthetic rate failure")
        return rate(scenario, trace, cond)

    monkeypatch.setattr(scheduling, "rate_of_trace", flaky)
    monkeypatch.setattr(channel, "rate_of_trace", flaky)
    got = general_search(pair, grid_step=0.05)
    assert got.failures == ((grid[20], "synthetic rate failure"),)
    monkeypatch.setattr(scheduling, "_duration_chain", one_duration_chain)
    assert_same_report(got, general_search(pair, grid_step=0.05))


def solve_windows(scenario, durations, guide, size) -> tuple[int, int]:
    """Run ``durations`` through ``scheduling._solve_window`` in windows of
    ``size``, each from the last kept solution, as the chain runs them
    while the guide settles, and check every keep decision against the
    re-scoring it replaces: ``reference_pick_start`` on [previous outcome,
    guide] at each stacked duration up to the first miss. Returns the
    stacked lanes kept and the windows that missed."""
    warm, i, keeps, misses = None, 0, 0, 0
    while i < len(durations):
        window = durations[i : i + size]
        kept = scheduling._solve_window(scenario, window, warm, guide)
        for j in range(1, min(len(kept) + 1, len(window))):
            previous = kept[j - 1][1].deployment
            picked = reference_pick_start(scenario, window[j], [previous, guide])
            assert (picked is guide) == (j < len(kept)), (window, j)
        keeps += len(kept) - 1
        misses += len(kept) < len(window)
        warm = kept[-1][1].deployment
        i += len(kept)
    return keeps, misses


def test_keep_checks_match_rescored_starts():
    # random two-antenna chains, and default-geometry chains at random
    # speeds, on random grids and window sizes
    rng = np.random.default_rng(29)
    pairs = [0, 0]
    for _ in range(8):
        x1, x2 = sorted(rng.uniform(0.0, 10.0, 2))
        scenario = two_antenna_line_scenario(x1, x2, max_speed=float(rng.uniform(0.1, 2.0)))
        guide = unconstrained_deploy(scenario).deployment
        step = float(rng.uniform(0.02, 0.3))
        durations = [k * step for k in range(int(rng.integers(8, 20)))]
        counts = solve_windows(scenario, durations, guide, int(rng.integers(2, 9)))
        pairs = [a + b for a, b in zip(pairs, counts)]
    guide = unconstrained_deploy(default_scenario()).deployment
    defaults = [0, 0]
    for _ in range(4):
        scenario = default_scenario(max_speed_wl_s=float(rng.uniform(1.0, 20.0)))
        step, start = float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.0, 2.0))
        durations = [start + k * step for k in range(int(rng.integers(6, 12)))]
        counts = solve_windows(scenario, durations, guide, int(rng.integers(2, 9)))
        defaults = [a + b for a, b in zip(defaults, counts)]
    # both decisions are made, in both kinds of chain
    assert min(pairs) > 10 and min(defaults) > 0, (pairs, defaults)


def test_keep_checks_project_where_the_reach_barely_grows(monkeypatch):
    # the reach grows by about 2e-16 wl per duration, less than the
    # rounding of a deployment in its disks: a projection into the next
    # reach moves some previous deployments, and the window's one trace_at
    # call scores them moved, as the re-scoring of the starts did
    scenario = default_scenario(max_speed_wl_s=0.5)
    guide = unconstrained_deploy(default_scenario()).deployment
    durations = [0.1 + k * 4e-16 for k in range(8)]
    reach = [scenario.max_speed * t for t in durations]
    assert len(set(reach)) == len(reach) and max(np.diff(reach)) < 1e-13
    calls = []
    trace_at = kernels.trace_at

    def recording(positions, *rest):
        calls.append(positions)
        return trace_at(positions, *rest)

    monkeypatch.setattr(kernels, "trace_at", recording)
    kept = scheduling._solve_window(scenario, durations, None, guide)
    monkeypatch.setattr(kernels, "trace_at", trace_at)
    # the window's own call comes last: every lane's deployment, then the
    # previous deployments that the next reach moves, projected there
    lanes, ahead = calls[-1][: len(durations)], calls[-1][len(durations) :]
    initial = scenario.initial_positions.coords
    lo, hi = scenario.region_bounds()
    projected = [kernels.project_deployment(p, initial, r, lo, hi) for p, r in zip(lanes, reach[1:])]
    moved = [q for p, q in zip(lanes, projected) if not np.array_equal(p, q)]
    assert len(moved) > 0
    assert np.array_equal(ahead, np.array(moved))
    assert np.array_equal(lanes[0], kept[0][1].deployment.coords)
    # and every keep decision of this window and of the windows after it
    # is the re-scoring's
    assert solve_windows(scenario, durations, guide, len(durations))[1] > 1
    # the moved trace decides: with a previous deployment p that the next
    # reach moves to q, where q stays put and scores below p, and the guide
    # at q, the two starts tie and the lane goes, where p's own trace would
    # keep it
    trace = lambda pts: trace_at(pts, *kernel_args(scenario))[0]
    i = next(
        i
        for i, (p, q) in enumerate(zip(lanes, projected))
        if trace(q) < trace(p)
        and np.array_equal(q, kernels.project_deployment(q, initial, reach[i + 1], lo, hi))
    )
    pose_first_lane(monkeypatch, Deployment(lanes[i]))
    at = Deployment(projected[i])
    window = durations[i : i + 2]
    assert len(scheduling._solve_window(scenario, window, None, at)) == 1
    assert reference_pick_start(scenario, window[1], [Deployment(lanes[i]), at]) is not at


def pose_first_lane(monkeypatch, deployment):
    """Make the first lane of every stacked solve from here on end at
    ``deployment``, as the previous outcome of the lane beside it."""
    stack = scheduling._optimize_stack

    def posed(scenario, solves):
        (first, score), *rest = stack(scenario, solves)
        return [(replace(first, deployment=deployment), score), *rest]

    monkeypatch.setattr(scheduling, "_optimize_stack", posed)


def test_a_singular_previous_outcome_loses_the_keep_check(monkeypatch):
    # every antenna at the center: the previous trace is NaN, which counts
    # as infinite, so the guide's finite score keeps the lane
    scenario = default_scenario(max_speed_wl_s=18)
    guide = unconstrained_deploy(scenario).deployment
    singular = Deployment(np.full(scenario.initial_positions.coords.shape, 5.0))
    assert np.isnan(kernels.trace_at(singular.coords, *kernel_args(scenario))[0])
    pose_first_lane(monkeypatch, singular)
    assert len(scheduling._solve_window(scenario, [1.0, 1.1], None, guide)) == 2
    assert reference_pick_start(scenario, 1.1, [singular, guide]) is guide


def test_a_window_checks_the_guide_its_lanes_share_once(monkeypatch):
    # the first lane's candidates [warm, guide] and the guide that every
    # other lane starts from: two checks however wide the window
    pair = two_antenna_line_scenario(5.0, 5.5)
    guide = unconstrained_deploy(pair).deployment
    checked = []
    checked_starts = positioning._checked_starts

    def counting(scenario, start):
        checked.append(start)
        return checked_starts(scenario, start)

    monkeypatch.setattr(positioning, "_checked_starts", counting)
    durations = [0.1 * k for k in range(1, 9)]
    kept = scheduling._solve_window(pair, durations, pair.initial_positions, guide)
    assert len(kept) == len(durations)
    assert len(checked) == 2 and checked[1] is guide


@pytest.mark.parametrize("speed", [0.5, 2.0])
def test_the_guide_floor_scores_each_spaced_projection(monkeypatch, speed):
    # the default guide projected into the reach at 0.5 and 2 wl/s loses its
    # spacing at some durations, which the floor leaves out; a guide with
    # two antennas at one point keeps it nowhere
    scenario = default_scenario(max_speed_wl_s=speed)
    guide = harness._speed_free(default_scenario()).deployment
    durations = [0.08 * k for k in range(1, 100)]
    floor = scheduling._guide_floor(scenario, durations, guide)
    assert floor == pytest.approx(guide_floor(scenario, durations, guide), rel=1e-14)
    monkeypatch.setattr(positioning, "FEASIBILITY_TOL", math.inf)
    assert guide_floor(scenario, durations, guide) > floor
    monkeypatch.undo()
    packed = guide.coords.copy()
    packed[1] = packed[0]
    assert scheduling._guide_floor(scenario, durations, packed) == -math.inf
