from dataclasses import replace

import numpy as np
import pytest

import movant.scheduling as scheduling
from movant import harness, kernels
from movant.channel import achievable_rate, effective_throughput, kernel_args
from movant.errors import FitDiverged, SingularChannel
from movant.scheduling import (
    FitKind,
    SearchMethod,
    compute_t_mov_max,
    fit_rate_model,
    fitting_method,
    general_search,
    rate_at_duration,
)
from movant.harness import default_scenario
from movant.positioning import PenaltyConfig, optimize_positions, unconstrained_deploy
from movant.scenario import Deployment, as_positions, two_antenna_line_scenario

from conftest import reference_pick_start


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
        calls = count_optimizer_runs(monkeypatch)
        samples = 5
        # every sample is solved (the fit needs them all), then the fitted
        # duration, after the speed-free solve when no guide is given
        fitting_method(case_wide, samples=samples)
        assert calls["count"] == samples + 2
        calls["count"] = 0
        fitting_method(case_wide, samples=samples, guide=guide)
        assert calls["count"] == samples + 1

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


def count_optimizer_runs(monkeypatch) -> dict:
    """Count every position-optimizer run from here on: the defining module
    (used by unconstrained_deploy) and the scheduler's imported name."""
    import movant.positioning as positioning

    calls = {"count": 0}
    original = positioning.optimize_positions

    def counting(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(positioning, "optimize_positions", counting)
    monkeypatch.setattr(scheduling, "optimize_positions", counting)
    return calls


def test_general_search_with_guide_makes_no_speed_free_solve(case_wide, monkeypatch):
    # the guide a guide-less search solves for itself gives the same search
    expected = general_search(case_wide, grid_step=0.5)
    guide = unconstrained_deploy(case_wide).deployment

    def speed_free(*args, **kwargs):
        raise AssertionError("general_search solved the speed-free optimum")

    monkeypatch.setattr(scheduling, "unconstrained_deploy", speed_free)
    calls = count_optimizer_runs(monkeypatch)
    report = general_search(case_wide, grid_step=0.5, guide=guide)
    # one solve per curve point; the speed-free bound ends the grid
    # {0, 0.5, ..., 4.5} early
    assert calls["count"] == len(report.curve)
    assert calls["count"] < 10
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
    # the bound rules out the first duration left unsolved
    t = durations[solved]
    rate_cap = max([achievable_rate(scenario, guide)] + [p.rate for p in stopped.curve])
    assert (scenario.interval - t) * rate_cap <= stopped.best_throughput


def test_singular_guide_searches_the_full_grid(case_wide):
    # every antenna at one point: the guide's rate raises SingularChannel
    guide = Deployment(np.full(case_wide.initial_positions.coords.shape, 5.0))
    with pytest.raises(SingularChannel):
        achievable_rate(case_wide, guide)
    durations = grid_durations(case_wide.interval, 0.5)
    full, _ = scheduling._duration_chain(
        case_wide, durations, guide, SearchMethod.GENERAL_SEARCH, case_wide.interval
    )
    report = general_search(case_wide, grid_step=0.5, guide=guide)
    assert len(report.curve) == len(durations) == 10
    assert report.curve == full.curve


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_no_movement_possible_stays_at_zero(case_wide, monkeypatch, name):
    frozen = case_wide.with_(max_speed=0.0)
    calls = count_optimizer_runs(monkeypatch)
    report = SCHEDULERS[name](frozen)
    assert calls["count"] == 0
    assert report.best_t_mov == 0.0
    assert report.best_throughput == pytest.approx(
        5.0 * achievable_rate(frozen, frozen.initial_positions)
    )


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_schedulers_isolate_failed_samples(case_wide, monkeypatch, name):
    original = scheduling._solve_duration
    calls = []

    # the third duration solved: t = 1.0 on the grid, the middle sample of
    # the fitting method
    def flaky(scenario, t_mov, start=None):
        calls.append(t_mov)
        if len(calls) == 3:
            raise SingularChannel("synthetic solver failure")
        return original(scenario, t_mov, start=start)

    monkeypatch.setattr(scheduling, "_solve_duration", flaky)
    report = SCHEDULERS[name](case_wide)
    failed_t = calls[2]
    assert report.failures == ((failed_t, "synthetic solver failure"),)
    failed = [p for p in report.curve if p.t_mov == failed_t]
    assert len(failed) == 1 and np.isnan(failed[0].rate)
    assert report.best_t_mov != failed_t
    assert np.isfinite(report.best_throughput)
    assert np.isfinite(report.best_rate)


def test_general_search_propagates_programming_errors(case_wide, monkeypatch):
    original = scheduling._solve_duration

    def broken(scenario, t_mov, start=None):
        if abs(t_mov - 1.0) < 1e-12:
            raise TypeError("synthetic programming error")
        return original(scenario, t_mov, start=start)

    monkeypatch.setattr(scheduling, "_solve_duration", broken)
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
