"""Acceptance gate: one test per documented criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7's final clause (grid search within 3% of the instantaneous
upper bound at 18 wavelengths/s) is asserted as documented and is expected
to fail: the user geometry of the default scenario needs several
wavelengths of aperture before the users decouple, so reaching upper-bound
rates costs part of the 8 s interval, and the placement solver's local
optima cost more (its single-start solves settle in different optima
depending on the start: the warm-started grid search reaches 0.9500 of
the upper bound, the best cold solve on its grid 0.9259). The assertion
message carries the measured number.
"""

import time

import numpy as np
import pytest

from movant.channel import channel_vector, common_sinr, optimal_power, zf_beamformer
from movant.gradients import fd_gradient, grad_trace
from movant.harness import (
    RunConfig,
    SchemeId,
    SweepParameter,
    SweepSpec,
    default_scenario,
    run_scheme,
    run_sweep,
    scenario_variant,
)
from movant.positioning import PenaltyConfig, optimize_positions
from movant.scenario import two_antenna_line_scenario
from movant.scheduling import FitKind, compute_t_mov_max, fit_rate_model, general_search, rate_at_duration
from movant.stationarity import SpecialCase, speed_threshold, verify_threshold

from conftest import random_instance


def report(number, name, elapsed, limit):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_01_special_case_speed_thresholds(case_wide, case_narrow):
    start = time.perf_counter()
    wide = speed_threshold(case_wide).speed_threshold
    narrow = speed_threshold(case_narrow).speed_threshold
    assert wide == pytest.approx(0.1548, abs=1e-3)
    assert narrow == pytest.approx(0.02581, abs=1e-3)
    report(1, "special-case speed thresholds", time.perf_counter() - start, 1.0)


def test_criterion_02_threshold_behavior_over_speed_grid(case_wide, case_narrow):
    start = time.perf_counter()
    grid = 0.01 * np.arange(1, 101)
    for scenario, case in ((case_wide, SpecialCase.WIDE_GAP), (case_narrow, SpecialCase.NARROW_GAP)):
        v_th = speed_threshold(scenario).speed_threshold
        for speed, t_star in verify_threshold(case, grid):
            if speed <= v_th:
                assert t_star == 0.0, (case, speed, t_star)
            elif speed >= v_th + 0.01:
                assert t_star > 0.0, (case, speed)
    report(2, "stay/move behavior across the speed grid", time.perf_counter() - start, 10.0)


def test_criterion_03_fitting_parameter_reproduction(case_wide, case_narrow):
    start = time.perf_counter()
    t_max_wide, _ = compute_t_mov_max(case_wide)
    pairs = [
        (float(t), rate_at_duration(case_wide, float(t)))
        for t in np.linspace(0.0, t_max_wide, 5)
    ]
    quad = fit_rate_model(pairs, FitKind.QUADRATIC)
    for got, want in zip(quad.coefficients, (-0.0975, 2.0714, 1.0017)):
        assert abs(got - want) / abs(want) <= 0.02, (got, want)

    t_max_narrow, _ = compute_t_mov_max(case_narrow)
    pairs = [
        (float(t), rate_at_duration(case_narrow, float(t)))
        for t in np.linspace(0.0, t_max_narrow, 5)
    ]
    sig = fit_rate_model(pairs, FitKind.SIGMOIDAL)
    for got, want in zip(sig.coefficients, (-0.1465, 1.1959, -1.5977, 1.3763)):
        assert abs(got - want) / abs(want) <= 0.05, (got, want)
    report(3, "fitting parameter reproduction", time.perf_counter() - start, 5.0)


def test_criterion_04_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(200):
        s = random_instance(rng)
        # the instance filter keeps the objective small enough here that the
        # finite-difference round-off stays under the absolute floor
        pos = s.initial_positions.coords
        analytic = grad_trace(s, pos)
        numeric = fd_gradient(s, pos)
        for a, b in zip(analytic.ravel(), numeric.ravel()):
            # relative 1e-5 with a 1e-8 absolute floor
            assert abs(a - b) <= max(1e-5 * max(abs(a), abs(b)), 1e-8), (a, b)
    report(4, "analytic gradient vs finite differences", time.perf_counter() - start, 30.0)


def test_criterion_05_zero_forcing_and_fairness():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(200):
        s = random_instance(rng, n_max=5, k_max=4)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        amps = s.amplitudes()
        powers = optimal_power(s, pos)
        assert abs(powers.sum() - s.total_power) <= 1e-9 * s.total_power
        gamma = common_sinr(s, pos)
        beams = [zf_beamformer(s, pos, k) for k in range(s.num_users)]
        sinrs = []
        for k in range(s.num_users):
            h = channel_vector(s, pos, k)
            gains = np.abs(np.array([h @ w for w in beams])) ** 2
            for j in range(s.num_users):
                if j != k:
                    assert np.sqrt(gains[j]) <= 1e-9 * amps[k]
            signal = powers[k] * gains[k]
            interference = powers @ gains - signal
            sinrs.append(signal / (interference + s.noise_power))
        sinrs = np.asarray(sinrs)
        assert np.max(sinrs) - np.min(sinrs) <= 1e-9 * gamma
        assert np.allclose(sinrs, gamma, rtol=1e-9)
    report(5, "zero-forcing and equal-SINR fairness", time.perf_counter() - start, 10.0)


def test_criterion_06_optimizer_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    cfg = PenaltyConfig(restarts=8)
    for _ in range(20):
        freq = rng.uniform(np.pi / 6, np.pi / 2)
        x1 = rng.uniform(1, 7)
        x2 = x1 + rng.uniform(0.6, 2.5)
        vmax = rng.uniform(0.2, 0.6)
        t = float(rng.choice([0.5, 1.0, 2.0]))
        s = two_antenna_line_scenario(x1, x2, spatial_freq=freq, max_speed=vmax)
        out = optimize_positions(s, t, config=cfg)
        reach = vmax * t
        g1 = np.arange(max(0, x1 - reach), min(10, x1 + reach) + 1e-12, 0.01)
        g2 = np.arange(max(0, x2 - reach), min(10, x2 + reach) + 1e-12, 0.01)
        A, B = np.meshgrid(g1, g2, indexing="ij")
        tr = 1.0 / np.sin(freq * (A - B) / 2) ** 2
        tr[np.abs(A - B) < 0.5] = np.inf
        assert out.objective <= tr.min() * 1.01, (out.objective, tr.min())
    report(6, "optimizer vs exhaustive grid", time.perf_counter() - start, 60.0)


def test_criterion_07_scheme_ordering_and_upper_bound_gap(default_table):
    # the fifteen runs are the session's, shared with the pinned table
    reports, elapsed = default_table
    results = {
        v: {scheme: reports[(v, scheme)].best_throughput for scheme in SchemeId}
        for v in (2.0, 6.0, 18.0)
    }
    previous = -np.inf
    for v in (2.0, 6.0, 18.0):
        r = results[v]
        assert r[SchemeId.UPPER_BOUND] >= r[SchemeId.OTGM] - 1e-9
        assert r[SchemeId.OTGM] >= r[SchemeId.FMD_OAD] - 1e-9
        assert r[SchemeId.OTGM] >= r[SchemeId.STATIC] - 1e-9
        assert r[SchemeId.OTGM] >= previous - 1e-9
        previous = r[SchemeId.OTGM]
    assert elapsed < 600.0
    ratio = results[18.0][SchemeId.OTGM] / results[18.0][SchemeId.UPPER_BOUND]
    assert ratio >= 0.97, (
        f"grid search reaches {ratio:.4f} of the upper bound at 18 wavelengths/s; "
        "the default user geometry needs several wavelengths of aperture before "
        "the users decouple, which costs travel time, and part of the gap is "
        "solver quality: single-start solves settle in local optima "
        "(see the known-limitations note in the README)"
    )
    report(7, "scheme ordering and upper-bound gap", elapsed, 600.0)


def test_criterion_08_region_sweep_trend():
    start = time.perf_counter()
    rc = RunConfig(grid_step=8.0 / 100)
    base = default_scenario(max_speed_wl_s=6.0)
    values = []
    for side in (2.0, 4.0, 6.0, 8.0, 10.0):
        s = scenario_variant(base, SweepParameter.REGION_L, side)
        values.append(run_scheme(s, SchemeId.OTGM, rc).best_throughput)
    # non-decreasing up to solver placement noise on the saturated plateau
    # (the saturation clause itself allows 1%)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 0.005), values
    assert values[-1] > values[0]
    assert abs(values[-1] - values[-2]) <= 0.01 * values[-1]
    report(8, "region-size sweep trend", time.perf_counter() - start, 600.0)


def test_criterion_09_stationarity_sufficiency_2d():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 20:
        thetas = rng.uniform(0.15, 1.45, 4)
        phis = rng.uniform(0.15, 1.45, 4)
        s = default_scenario(elevation_angles=list(thetas), azimuth_angles=list(phis))
        threshold = speed_threshold(s)
        if threshold.stationary:
            continue
        slow = s.with_(max_speed=0.5 * threshold.speed_threshold)
        outcome = general_search(slow, grid_step=slow.interval / 50.0)
        assert outcome.best_t_mov == 0.0, (thetas, phis, outcome.best_t_mov)
        checked += 1
    report(9, "stationarity sufficiency in 2D", time.perf_counter() - start, 600.0)


def test_criterion_10_sweep_determinism(tmp_path):
    start = time.perf_counter()
    base = default_scenario()
    spec = SweepSpec(
        SweepParameter.VMAX, (2.0, 6.0), (SchemeId.STATIC, SchemeId.OTFM)
    )
    rc = RunConfig(grid_step=0.8)
    first = run_sweep(base, spec, rc)
    second = run_sweep(base, spec, rc)
    assert first == second
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    path_a.write_text("\n".join(first) + "\n")
    path_b.write_text("\n".join(second) + "\n")
    assert path_a.read_bytes() == path_b.read_bytes()
    report(10, "byte-identical sweep output", time.perf_counter() - start, 60.0)
