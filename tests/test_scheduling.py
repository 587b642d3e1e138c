import numpy as np
import pytest

import movant.scheduling as scheduling
from movant.channel import achievable_rate, effective_throughput
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
    def test_no_movement_possible_stays_at_zero(self, case_wide):
        frozen = case_wide.with_(max_speed=0.0)
        report = general_search(frozen, grid_step=0.5)
        assert report.best_t_mov == 0.0
        assert report.best_throughput == pytest.approx(
            5.0 * achievable_rate(frozen, frozen.initial_positions)
        )

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
        assert peak > 0
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
        from movant.scenario import two_antenna_line_scenario

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
        from movant.scenario import two_antenna_line_scenario

        s = two_antenna_line_scenario(3.0, 7.0)
        report = fitting_method(s, samples=5)
        assert report.best_t_mov == 0.0
        assert report.method is SearchMethod.STATIONARY

    def test_optimizer_call_budget(self, case_wide, monkeypatch):
        import movant.positioning as positioning

        calls = {"count": 0}
        original = positioning.optimize_positions

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        # patch both the defining module (used by unconstrained_deploy) and
        # the scheduler's imported name so every solver run is counted
        monkeypatch.setattr(positioning, "optimize_positions", counting)
        monkeypatch.setattr(scheduling, "optimize_positions", counting)
        samples = 5
        fitting_method(case_wide, samples=samples)
        assert calls["count"] <= samples + 2

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


def test_general_search_isolates_failed_samples(case_wide, monkeypatch):
    original = scheduling._solve_duration

    def flaky(scenario, t_mov, config, start=None):
        if abs(t_mov - 1.0) < 1e-12:
            raise SingularChannel("synthetic solver failure")
        return original(scenario, t_mov, config, start=start)

    monkeypatch.setattr(scheduling, "_solve_duration", flaky)
    report = general_search(case_wide, grid_step=0.5)
    assert len(report.failures) == 1
    assert report.failures[0][0] == 1.0
    failed = [p for p in report.curve if p.t_mov == 1.0]
    assert len(failed) == 1 and np.isnan(failed[0].rate)
    assert report.best_t_mov != 1.0
    assert np.isfinite(report.best_throughput)


def test_general_search_propagates_programming_errors(case_wide, monkeypatch):
    original = scheduling._solve_duration

    def broken(scenario, t_mov, config, start=None):
        if abs(t_mov - 1.0) < 1e-12:
            raise TypeError("synthetic programming error")
        return original(scenario, t_mov, config, start=start)

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
