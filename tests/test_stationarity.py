import numpy as np
import pytest

from movant import stationarity
from movant.channel import common_sinr
from movant.scenario import Deployment, two_antenna_line_scenario
from movant.stationarity import (
    Decision,
    SpecialCase,
    special_case_objective,
    special_case_rate,
    speed_threshold,
    time_threshold,
    verify_threshold,
)


class TestSpeedThreshold:
    def test_wide_gap_value(self, case_wide):
        report = speed_threshold(case_wide)
        assert report.speed_threshold == pytest.approx(0.1548, abs=1e-4)
        # analytic form: log2(1.5) / (5 * pi / (6 ln 2))
        exact = np.log2(1.5) / (5 * np.pi / (6 * np.log(2)))
        assert report.speed_threshold == pytest.approx(exact, rel=1e-9)

    def test_narrow_gap_value(self, case_narrow):
        report = speed_threshold(case_narrow)
        assert report.speed_threshold == pytest.approx(0.02581, abs=1e-4)

    def test_decision_depends_on_speed_limit(self, case_wide):
        slow = case_wide.with_(max_speed=0.1)
        fast = case_wide.with_(max_speed=0.2)
        assert speed_threshold(slow).decision is Decision.STAY
        assert speed_threshold(fast).decision is Decision.MOVE

    def test_stationary_start_flags(self):
        s = two_antenna_line_scenario(3.0, 7.0)
        report = speed_threshold(s)
        assert report.stationary
        assert report.decision is Decision.STAY
        assert np.isinf(report.speed_threshold)

    def test_cross_consistency_identity(self, case_wide):
        report = speed_threshold(case_wide)
        assert report.speed_threshold * case_wide.interval == pytest.approx(
            report.time_threshold * case_wide.max_speed, rel=1e-12
        )


class TestTimeThreshold:
    def test_wide_gap_identity_value(self, case_wide):
        t_th = time_threshold(case_wide)
        expected = 5.0 * speed_threshold(case_wide).speed_threshold / 0.5
        assert t_th == pytest.approx(expected, rel=1e-12)
        assert t_th == pytest.approx(1.548, abs=1e-2)

    def test_shrinks_with_speed(self, case_wide):
        fast = case_wide.with_(max_speed=200.0)
        assert time_threshold(fast) < 0.005

    def test_homogeneity_in_interval(self, case_wide):
        base = speed_threshold(case_wide).speed_threshold
        doubled = speed_threshold(case_wide.with_(interval=10.0)).speed_threshold
        assert doubled == pytest.approx(base / 2.0, rel=1e-12)

    def test_homogeneity_in_speed(self, case_wide):
        base = time_threshold(case_wide)
        halved = time_threshold(case_wide.with_(max_speed=1.0))
        assert halved == pytest.approx(base / 2.0, rel=1e-12)

    def test_requires_positive_speed(self, case_wide):
        with pytest.raises(ValueError):
            time_threshold(case_wide.with_(max_speed=0.0))


class TestSpecialCaseRate:
    def test_coincident_antennas_zero_rate(self):
        assert special_case_rate(3.0, 3.0) == 0.0

    def test_best_spacing_gives_one(self):
        assert special_case_rate(7.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_two_wavelength_spacing(self):
        assert special_case_rate(6.0, 4.0) == pytest.approx(np.log2(1.5), rel=1e-12)

    def test_matches_channel_pipeline(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            spacing = rng.uniform(1e-2, 8.0)
            x1 = rng.uniform(0, 10 - spacing)
            s = two_antenna_line_scenario(x1, x1 + spacing, min_spacing=0.0)
            analytic = special_case_rate(x1, x1 + spacing)
            pipeline = np.log2(1 + common_sinr(s, Deployment.from_x([x1, x1 + spacing])))
            assert pipeline == pytest.approx(analytic, rel=1e-9)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            special_case_rate(1.0, 2.0, spatial_freq=0.0)


class TestSpecialCaseObjective:
    def test_wide_gap_at_start(self):
        got = special_case_objective(SpecialCase.WIDE_GAP, 0.0)
        assert got == pytest.approx(5 * np.log2(1.5), rel=1e-12)
        assert got == pytest.approx(2.9248, abs=1e-4)

    def test_wide_gap_at_full_travel(self):
        assert special_case_objective(SpecialCase.WIDE_GAP, 2.0) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_maximizer_matches_dense_grid(self):
        t = np.linspace(0, 2, 200001)
        dense = (5 - t) * np.log2(1 + np.sin(np.pi * (2 + t) / 8) ** 2)
        t_star = t[np.argmax(dense)]
        values = [special_case_objective(SpecialCase.WIDE_GAP, tt) for tt in t[::100]]
        best = t[::100][int(np.argmax(values))]
        assert abs(best - t_star) <= 1e-3 + 2e-5
        assert max(values) == pytest.approx(dense.max(), abs=1e-6)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            special_case_objective(SpecialCase.WIDE_GAP, 2.5)
        with pytest.raises(ValueError):
            special_case_objective(SpecialCase.NARROW_GAP, 3.6)

    @pytest.mark.parametrize("case", list(SpecialCase))
    def test_verify_threshold_maximizes_the_same_objective(self, case):
        # at the case's own speed, verify_threshold's duration is the
        # maximizer of special_case_objective over the same grid, up to the
        # full travel (beyond it the spacing is capped and the value falls)
        t_max = stationarity._CASE_T_MAX[case]
        t = np.arange(0.0, 5.0, 1e-3)
        t = t[t <= t_max]
        values = [special_case_objective(case, float(tt)) for tt in t]
        [(_, best)] = verify_threshold(case, [0.5])
        assert best == float(t[int(np.argmax(values))])


class TestVerifyThreshold:
    def test_wide_gap_below_threshold_stays(self):
        results = dict(verify_threshold(SpecialCase.WIDE_GAP, [0.1]))
        assert results[0.1] == 0.0

    def test_wide_gap_above_threshold_moves(self):
        results = dict(verify_threshold(SpecialCase.WIDE_GAP, [0.2]))
        assert results[0.2] > 0.0

    def test_narrow_gap_below_threshold_stays(self):
        results = dict(verify_threshold(SpecialCase.NARROW_GAP, [0.02]))
        assert results[0.02] == 0.0

    def test_narrow_gap_above_threshold_moves(self):
        results = dict(verify_threshold(SpecialCase.NARROW_GAP, [0.04]))
        assert results[0.04] > 0.0

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            verify_threshold(SpecialCase.WIDE_GAP, [0.0])

    @pytest.mark.parametrize(
        "speeds", [[float("nan")], [float("inf")], [-float("inf")], [-0.5], [0.2, float("nan")]]
    )
    def test_rejects_nonfinite_or_nonpositive_speed(self, speeds):
        # NaN and inf once gave rows (nan, 0.0) and (inf, 0.0)
        with pytest.raises(ValueError, match="finite and positive"):
            verify_threshold(SpecialCase.WIDE_GAP, speeds)


    @pytest.mark.parametrize("t_step", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_nonfinite_or_nonpositive_step(self, t_step):
        # 0 once raised ZeroDivisionError and -1e-3 an empty argmax
        with pytest.raises(ValueError, match="t_step"):
            verify_threshold(SpecialCase.WIDE_GAP, [0.2], t_step=t_step)


def test_threshold_sufficiency_on_line_case(case_wide):
    """Below the speed threshold the grid search stays at zero movement."""
    from movant.scheduling import general_search

    v_th = speed_threshold(case_wide).speed_threshold
    slow = case_wide.with_(max_speed=0.5 * v_th)
    report = general_search(slow, grid_step=0.1)
    assert report.best_t_mov == 0.0
