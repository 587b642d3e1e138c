import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from movant import kernels
from movant.channel import (
    SINGULAR_COND_LIMIT,
    achievable_rate,
    channel_state,
    channel_vector,
    common_sinr,
    effective_throughput,
    kernel_args,
    optimal_power,
    rate_ceiling,
    reach_rate_ceiling,
    trace_floor,
    trace_objective,
    zf_beamformer,
)
from movant.errors import SingularChannel
from movant.gradients import fd_gradient, grad_rate, grad_trace
from movant.harness import SweepParameter, default_scenario, scenario_variant
from movant.positioning import optimize_positions
from movant.stationarity import speed_threshold
from movant.scenario import (
    Deployment,
    Scenario,
    Topology,
    as_positions,
    min_pair_distance,
    two_antenna_line_scenario,
)

from conftest import random_instance


def make_scenario(n, k, thetas, phis, betas=None, topology=Topology.SQUARE_2D, **kw):
    defaults = dict(
        noise_power=1.0,
        total_power=1.0,
        interval=5.0,
        region_side=20.0,
        min_spacing=0.0,
        max_speed=1.0,
    )
    defaults.update(kw)
    return Scenario(
        num_antennas=n,
        num_users=k,
        elevation_angles=np.asarray(thetas, dtype=float),
        azimuth_angles=np.asarray(phis, dtype=float),
        fading_coeffs=np.ones(k) if betas is None else np.asarray(betas, dtype=float),
        initial_positions=Deployment(np.zeros((n, 2))),
        topology=topology,
        **defaults,
    )


def former_channel_state(s, pos):
    """(H, G, G^-1, cond) as ``channel_state`` built them before it shared
    the trace kernels' eigendecomposition, or None where it raised
    ``SingularChannel``."""
    H = kernels.channel_matrix(pos, s.direction_vectors(), s.amplitudes(), s.wavenumber)
    G = np.conj(H.T) @ H
    w, V = np.linalg.eigh(G)
    cond = np.inf if w[0] <= 0 else float(w[-1] / w[0])
    if cond > SINGULAR_COND_LIMIT:
        return None
    return H, G, (V / w) @ np.conj(V.T), cond


class TestChannelVector:
    def test_all_antennas_at_origin_gives_constant_amplitude(self):
        s = make_scenario(3, 2, [0.3, -0.7], [0.2, 0.9], betas=[4.0, 0.25])
        for k, beta in enumerate([4.0, 0.25]):
            h = channel_vector(s, np.zeros((3, 2)), k)
            assert np.allclose(h, np.sqrt(beta))

    def test_line_deployment_matches_direct_formula(self):
        theta = 0.4
        s = make_scenario(2, 1, [theta], [0.0], topology=Topology.SEGMENT_1D)
        xs = np.array([4.0, 6.0])
        h = channel_vector(s, Deployment.from_x(xs), 0)
        expected = np.exp(1j * 2 * np.pi * xs * np.cos(theta))
        assert np.allclose(h, expected, atol=1e-14)

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(11)
        s = random_instance(rng, n_max=2, k_max=2)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        dirs = s.direction_vectors()
        for k in range(s.num_users):
            h = channel_vector(s, pos, k)
            for n in range(s.num_antennas):
                phase = 2 * np.pi * (pos[n] @ dirs[k])
                expected = np.sqrt(s.fading_coeffs[k]) * np.exp(1j * phase)
                assert h[n] == pytest.approx(expected, abs=1e-13)

    def test_unit_modulus_per_user(self):
        rng = np.random.default_rng(7)
        s = random_instance(rng, n_max=5, k_max=4)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        state = channel_state(s, pos)
        amps = s.amplitudes()
        assert np.max(np.abs(np.abs(state.H) - amps[None, :]) / amps[None, :]) <= 1e-12

    def test_bad_user_index_rejected(self):
        s = make_scenario(2, 1, [0.0], [0.0])
        with pytest.raises(ValueError):
            channel_vector(s, np.zeros((2, 2)), 1)


class TestChannelState:
    def test_single_antenna_single_user(self):
        s = make_scenario(1, 1, [0.2], [0.1], betas=[2.5])
        state = channel_state(s, np.zeros((1, 2)))
        assert state.G[0, 0] == pytest.approx(2.5, rel=1e-12)
        assert state.G_inv[0, 0] == pytest.approx(1 / 2.5, rel=1e-12)

    def test_two_antenna_line_closed_form(self):
        rng = np.random.default_rng(3)
        freq = np.pi / 4
        for _ in range(100):
            x1, x2 = rng.uniform(0, 10, 2)
            if abs(x1 - x2) < 1e-3:
                continue
            s = two_antenna_line_scenario(min(x1, x2), max(x1, x2), min_spacing=0.0)
            tr = trace_objective(s, Deployment.from_x([x1, x2]))
            expected = 1.0 / np.sin(freq * (x1 - x2) / 2) ** 2
            assert tr == pytest.approx(expected, rel=1e-9)

    def test_columns_are_conjugated_rows(self):
        rng = np.random.default_rng(19)
        s = random_instance(rng, n_max=4, k_max=3)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        state = channel_state(s, pos)
        for k in range(s.num_users):
            assert np.allclose(state.H[:, k], np.conj(channel_vector(s, pos, k)), atol=1e-13)

    def test_gram_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_instance(rng)
            pos = rng.uniform(0, 8, (s.num_antennas, 2))
            state = channel_state(s, pos)
            assert np.max(np.abs(state.G - np.conj(state.G.T))) <= 1e-12
            gap = np.linalg.norm(state.G @ state.G_inv - np.eye(s.num_users))
            assert gap <= 1e-9

    def test_coinciding_antennas_singular(self):
        s = make_scenario(2, 2, [0.3, -0.4], [0.2, 0.6])
        with pytest.raises(SingularChannel):
            channel_state(s, np.zeros((2, 2)))

    def test_matches_former_eigh_path(self):
        # the state and channel rows agree bit for bit with the former build
        # (its own channel_matrix call, np.linalg.eigh and cond test)
        rng = np.random.default_rng(41)
        for _ in range(100):
            s = random_instance(rng)
            pos = rng.uniform(0, 8, (s.num_antennas, 2))
            H, G, G_inv, cond = former_channel_state(s, pos)
            state = channel_state(s, pos)
            assert np.array_equal(state.H, H)
            assert np.array_equal(state.G, G)
            assert np.array_equal(state.G_inv, G_inv)
            assert state.cond == cond
            for k in range(s.num_users):
                assert np.array_equal(channel_vector(s, pos, k), np.conj(H[:, k]))

    @pytest.mark.parametrize("case", ["coincident_antennas", "parallel_users"])
    def test_singular_exactly_where_trace_objective_is(self, case):
        # gaps from far apart to identical, across the condition limit
        verdicts = []
        for gap in [*np.logspace(-1, -12, 45), 0.0]:
            if case == "coincident_antennas":
                s = make_scenario(2, 2, [0.3, -0.4], [0.2, 0.6])
                pos = np.array([[1.0, 2.0], [1.0 + gap, 2.0 - gap]])
            else:
                s = make_scenario(3, 2, [0.3, 0.3 + gap], [0.2, 0.2 - gap])
                pos = np.array([[0.0, 0.0], [1.3, 0.4], [2.1, 1.7]])
            outcomes = []
            for fn in (trace_objective, channel_state):
                try:
                    fn(s, pos)
                    outcomes.append(False)
                except SingularChannel:
                    outcomes.append(True)
            assert outcomes[0] == outcomes[1], gap
            assert outcomes[1] == (former_channel_state(s, pos) is None), gap
            verdicts.append(outcomes[0])
        # the sweep crosses the limit once: well conditioned, then singular
        assert not verdicts[0] and verdicts[-1]
        assert verdicts == sorted(verdicts)


class TestTraceObjective:
    def test_scalar_unit_gain(self):
        s = make_scenario(1, 1, [0.0], [0.0])
        assert trace_objective(s, np.zeros((1, 2))) == pytest.approx(1.0, rel=1e-12)

    def test_known_two_antenna_spacing(self, case_wide):
        tr = trace_objective(case_wide, case_wide.initial_positions)
        assert tr == pytest.approx(1.0 / np.sin(np.pi / 4) ** 2, rel=1e-12)

    def test_matches_independent_dense_inverse(self):
        rng = np.random.default_rng(23)
        s = random_instance(rng, n_max=3, k_max=2)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        # rebuild the Gram from channel rows and invert with plain numpy
        rows = np.stack([channel_vector(s, pos, k) for k in range(s.num_users)])
        gram = rows.conj() @ rows.T
        expected = np.real(np.trace(np.linalg.inv(gram)))
        assert trace_objective(s, pos) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("topology", [Topology.SQUARE_2D, Topology.SEGMENT_1D])
def test_no_layout_beats_the_rate_ceiling(topology):
    # G_kk = N b_k^2 for every layout, and (G^-1)_kk >= 1 / G_kk, so
    # tr(G^-1) >= F = sum_k 1 / (N b_k^2): on random layouts of random
    # scenarios, within a relative 1e-12, and no rate above the ceiling
    rng = np.random.default_rng(2026)
    base = default_scenario()
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        scenario = base.with_(
            num_antennas=n,
            num_users=k,
            elevation_angles=rng.uniform(-np.pi / 2, np.pi / 2, k),
            azimuth_angles=rng.uniform(-np.pi / 2, np.pi / 2, k),
            fading_coeffs=rng.uniform(0.5, 2.0, k) * 10.0 ** rng.uniform(-9, 0),
            initial_positions=Deployment.from_x(0.5 * np.arange(n)),
            topology=topology,
        )
        layout = rng.uniform(0.0, scenario.region_side, (n, 2))
        if topology is Topology.SEGMENT_1D:
            layout[:, 1] = 0.0
        try:
            trace = trace_objective(scenario, layout)
        except SingularChannel:
            continue
        floor = float(np.sum(1.0 / (n * scenario.fading_coeffs)))
        assert trace_floor(scenario) == floor
        assert trace >= floor * (1.0 - 1e-12), (trace, floor)
        rate = achievable_rate(scenario, layout)
        assert rate <= rate_ceiling(scenario) * (1.0 + 1e-12), (rate, rate_ceiling(scenario))


def test_rate_ceiling_of_the_default_scenario():
    # 5.3409 b/s/Hz caps the throughput of an 8 s interval at 42.7269
    ceiling = rate_ceiling(default_scenario())
    assert ceiling == pytest.approx(5.3409, abs=1e-4)
    assert 8.0 * ceiling == pytest.approx(42.7269, abs=1e-4)


def ceiling_cases():
    """Criterion 9's first 10 draws, the default scenario at 4, 6 and 8
    antennas and the two two-antenna line cases."""
    rng = np.random.default_rng(909)
    draws = []
    while len(draws) < 10:
        thetas, phis = rng.uniform(0.15, 1.45, 4), rng.uniform(0.15, 1.45, 4)
        s = default_scenario(elevation_angles=list(thetas), azimuth_angles=list(phis))
        if not speed_threshold(s).stationary:
            draws.append(s)
    base = default_scenario()
    sizes = [scenario_variant(base, SweepParameter.NUM_ANTENNAS, n) for n in (4, 6, 8)]
    pairs = [two_antenna_line_scenario(4.0, 6.0), two_antenna_line_scenario(5.0, 5.5)]
    return draws + sizes + pairs


CEILING_REACHES = (0.0, 0.005, 0.02, 0.1, 0.5, 2.0)


def test_no_layout_in_reach_beats_the_reach_rate_ceiling():
    # 2,000 layouts uniform in the reach disks, and the placement solver's
    # outcome at that reach, never beat the ceiling; it never passes the
    # rate ceiling, and at reach 0 it is the initial rate
    rng = np.random.default_rng(31)
    for scenario in ceiling_cases():
        initial = scenario.initial_positions.coords
        ceilings = reach_rate_ceiling(scenario, np.array(CEILING_REACHES))
        assert ceilings.shape == (len(CEILING_REACHES),)
        assert list(ceilings) == [reach_rate_ceiling(scenario, r) for r in CEILING_REACHES]
        assert np.all(np.diff(ceilings) >= 0.0)
        assert np.all(ceilings <= rate_ceiling(scenario))
        start = achievable_rate(scenario, initial)
        assert start <= ceilings[0] <= start + 1e-12
        for reach, ceiling in zip(CEILING_REACHES, ceilings):
            radius = reach * np.sqrt(rng.uniform(size=(2000, len(initial), 1)))
            angle = rng.uniform(0.0, 2.0 * np.pi, (2000, len(initial)))
            layouts = initial + radius * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
            traces, _ = kernels.trace_at(layouts, *kernel_args(scenario))
            sampled = np.log2(1.0 + scenario.snr_scale / np.nanmin(traces))
            assert sampled <= ceiling, (reach, sampled, ceiling)
            solved = optimize_positions(scenario, reach / scenario.max_speed).deployment
            assert achievable_rate(scenario, solved) <= ceiling * (1.0 + 1e-12), reach


def test_reach_rate_ceiling_uses_the_trace_gradient():
    # the per-antenna gradient of phi at the initial layout is minus the
    # trace gradient, so a reach-r ceiling's first-order slope is the sum
    # of the trace gradient's row norms
    scenario = ceiling_cases()[0]
    initial = scenario.initial_positions.coords
    trace, grad, _ = kernels.trace_and_grad(initial, *kernel_args(scenario))
    r = 1e-9
    bound = scenario.snr_scale / (2.0 ** reach_rate_ceiling(scenario, r) - 1.0)
    slope = (trace - bound) / r
    norms = np.hypot(grad[:, 0], grad[:, 1]).sum()
    assert slope == pytest.approx(norms, rel=1e-3)


class TestZeroForcing:
    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(2)
        s = make_scenario(3, 1, [0.5], [0.3], betas=[1.7])
        pos = rng.uniform(0, 5, (3, 2))
        w = zf_beamformer(s, pos, 0)
        h = channel_vector(s, pos, 0)
        expected = np.conj(h) / np.linalg.norm(h)
        assert np.allclose(w, expected, atol=1e-12)

    def test_orthogonal_channels_align_with_matched_filter(self):
        # spacing and angle gap chosen so the two steering vectors are
        # exactly orthogonal: phase difference of pi between the antennas
        s = two_antenna_line_scenario(0.0, 1.0, spatial_freq=np.pi, min_spacing=0.0)
        pos = s.initial_positions
        for k in range(2):
            w = zf_beamformer(s, pos, k)
            h = channel_vector(s, pos, k)
            mf = np.conj(h) / np.linalg.norm(h)
            phase = w @ np.conj(mf)
            assert np.abs(np.abs(phase) - 1.0) <= 1e-12

    def test_zero_cross_gains(self):
        rng = np.random.default_rng(31)
        s = random_instance(rng, n_max=4, k_max=3)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        amps = s.amplitudes()
        for k in range(s.num_users):
            w = zf_beamformer(s, pos, k)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            for j in range(s.num_users):
                if j == k:
                    continue
                gain = abs(channel_vector(s, pos, j) @ w)
                assert gain <= 1e-9 * amps[j]

    def test_dependent_interferers_singular(self):
        # two users at identical angles are indistinguishable
        s = make_scenario(3, 3, [0.3, 0.3, -0.5], [0.2, 0.2, 0.7])
        pos = np.array([[0.0, 0.0], [1.3, 0.4], [2.1, 1.7]])
        with pytest.raises(SingularChannel):
            zf_beamformer(s, pos, 2)


class TestPowerAllocation:
    def test_symmetric_two_user_split(self, case_wide):
        powers = optimal_power(case_wide, case_wide.initial_positions)
        assert powers[0] == pytest.approx(powers[1], rel=1e-12)
        assert powers.sum() == pytest.approx(case_wide.total_power, rel=1e-12)

    def test_single_user_gets_budget(self):
        s = make_scenario(3, 1, [0.4], [0.2], total_power=3.3)
        pos = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.5]])
        powers = optimal_power(s, pos)
        assert powers[0] == pytest.approx(3.3, rel=1e-12)

    def test_matches_beamformer_gain_solution(self):
        # independent route: equal-SINR powers from the realized beamformer
        # gains instead of the Gram diagonal
        rng = np.random.default_rng(17)
        s = random_instance(rng, n_max=4, k_max=3)
        if s.num_users == 1:
            s = random_instance(np.random.default_rng(18), n_max=4, k_max=3)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        powers = optimal_power(s, pos)
        gains = np.array(
            [
                abs(channel_vector(s, pos, k) @ zf_beamformer(s, pos, k)) ** 2
                for k in range(s.num_users)
            ]
        )
        oracle = (1.0 / gains) / (1.0 / gains).sum() * s.total_power
        assert np.allclose(powers, oracle, rtol=1e-9)


class TestCommonSinr:
    def test_two_antenna_line_special_form(self, case_wide):
        rng = np.random.default_rng(41)
        for _ in range(50):
            xs = rng.uniform(0, 10, 2)
            got = common_sinr(case_wide, Deployment.from_x(xs))
            expected = np.sin(np.pi / 8 * (xs[0] - xs[1])) ** 2
            assert got == pytest.approx(expected, rel=1e-9)

    def test_single_antenna_user_snr(self):
        s = make_scenario(1, 1, [0.0], [0.0], total_power=10.0)
        assert common_sinr(s, np.zeros((1, 2))) == pytest.approx(10.0, rel=1e-12)

    def test_equals_per_user_sinr_with_optimal_powers(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            s = random_instance(rng, n_max=5, k_max=4)
            pos = rng.uniform(0, 8, (s.num_antennas, 2))
            gamma = common_sinr(s, pos)
            powers = optimal_power(s, pos)
            assert powers.sum() == pytest.approx(s.total_power, rel=1e-9)
            sinrs = []
            beams = [zf_beamformer(s, pos, k) for k in range(s.num_users)]
            for k in range(s.num_users):
                h = channel_vector(s, pos, k)
                gains = np.abs(np.array([h @ w for w in beams])) ** 2
                signal = powers[k] * gains[k]
                interference = powers @ gains - signal
                sinrs.append(signal / (interference + s.noise_power))
            sinrs = np.asarray(sinrs)
            assert np.max(sinrs) - np.min(sinrs) <= 1e-9 * gamma
            assert np.allclose(sinrs, gamma, rtol=1e-9)


class TestEffectiveThroughput:
    def test_zero_movement_uses_whole_interval(self, case_wide):
        got = effective_throughput(case_wide, case_wide.initial_positions, 0.0)
        expected = 5.0 * achievable_rate(case_wide, case_wide.initial_positions)
        assert got == expected

    def test_full_interval_movement_gives_zero(self, case_wide):
        assert effective_throughput(case_wide, case_wide.initial_positions, 5.0) == 0.0

    def test_initial_wide_gap_value(self, case_wide):
        got = effective_throughput(case_wide, case_wide.initial_positions, 0.0)
        assert got == pytest.approx(5.0 * np.log2(1.5), rel=1e-12)
        assert got == pytest.approx(2.924812503605781, abs=1e-3)

    def test_out_of_range_duration_rejected(self, case_wide):
        with pytest.raises(ValueError):
            effective_throughput(case_wide, case_wide.initial_positions, -0.1)
        with pytest.raises(ValueError):
            effective_throughput(case_wide, case_wide.initial_positions, 5.1)


class TestScenarioDerivedArrays:
    @pytest.mark.parametrize("segment", [False, True])
    def test_built_once_read_only_and_exact(self, segment):
        s = two_antenna_line_scenario(4.0, 6.0) if segment else default_scenario()
        directions, amplitudes = s.direction_vectors(), s.amplitudes()
        assert directions is s.direction_vectors() and amplitudes is s.amplitudes()
        assert not directions.flags.writeable and not amplitudes.flags.writeable
        assert directions.flags.c_contiguous
        el, az = s.elevation_angles, s.azimuth_angles
        if segment:
            expected = np.stack([np.cos(el), np.zeros_like(el)], axis=1)
        else:
            expected = np.stack([np.cos(el) * np.sin(az), np.sin(el)], axis=1)
        assert np.array_equal(directions, expected)
        assert np.array_equal(amplitudes, np.sqrt(s.fading_coeffs))
        # a copy with other angles gets its own arrays
        turned = s.with_(elevation_angles=el[::-1].copy(), azimuth_angles=az[::-1].copy())
        assert np.array_equal(turned.direction_vectors(), expected[::-1])


class TestScenarioValidation:
    def test_more_users_than_antennas_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(2, 3, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])

    def test_initial_positions_outside_region_rejected(self):
        with pytest.raises(ValueError):
            Scenario(
                num_antennas=1,
                num_users=1,
                elevation_angles=np.array([0.1]),
                azimuth_angles=np.array([0.1]),
                fading_coeffs=np.array([1.0]),
                noise_power=1.0,
                total_power=1.0,
                interval=1.0,
                region_side=2.0,
                min_spacing=0.0,
                max_speed=1.0,
                initial_positions=Deployment(np.array([[3.0, 0.0]])),
            )

    def test_spacing_violation_rejected(self):
        with pytest.raises(ValueError):
            two_antenna_line_scenario(4.0, 4.1, min_spacing=0.5)

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            make_scenario(2, 1, [2.0], [0.0])

    def test_nonfinite_deployment_rejected(self):
        with pytest.raises(ValueError):
            Deployment(np.array([[np.nan, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            Deployment(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "noise_power",
            "total_power",
            "interval",
            "region_side",
            "min_spacing",
            "max_speed",
            "wavelength",
        ],
    )
    def test_nonfinite_scalar_rejected(self, field, value):
        # NaN passes every range comparison, and an infinite speed, interval
        # or region used to run through the solvers to a wrong or crashed
        # answer
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_scenario(2, 2, [0.3, -0.4], [0.2, 0.6], **{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["elevation_angles", "azimuth_angles", "fading_coeffs"])
    def test_nonfinite_per_user_value_rejected(self, field, value):
        s = make_scenario(2, 2, [0.3, -0.4], [0.2, 0.6])
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            s.with_(**{field: np.array([0.3, value])})


def _throughput_after_one_second(scenario, deployment):
    return effective_throughput(scenario, deployment, 1.0)


def _first_user_channel(scenario, deployment):
    return channel_vector(scenario, deployment, 0)


@pytest.mark.parametrize(
    "read",
    [
        trace_objective,
        achievable_rate,
        common_sinr,
        _throughput_after_one_second,
        grad_trace,
        grad_rate,
        fd_gradient,
        channel_state,
        _first_user_channel,
    ],
)
def test_every_read_rejects_a_deployment_the_scenario_cannot_hold(read):
    # a 4-antenna layout on the 5-antenna scenario got a rate, and a NaN
    # coordinate reached LAPACK, which warned, and came back as a singular
    # channel
    scenario = default_scenario()
    coords = scenario.initial_positions.coords
    with pytest.raises(ValueError, match="deployment has 4 antennas, not 5"):
        read(scenario, Deployment(coords[:4]))
    for value in (np.nan, np.inf):
        bad = coords.copy()
        bad[2, 1] = value
        with pytest.raises(ValueError, match="deployment coordinates must be finite"):
            read(scenario, bad)


def test_positions_are_two_columns():
    # a line layout is built with Deployment.from_x, not from bare x values
    with pytest.raises(ValueError, match=r"expected \(N, 2\) positions, got shape \(3,\)"):
        as_positions([1.0, 2.0, 3.0])
    assert np.array_equal(as_positions([[1.0, 0.0]]), [[1.0, 0.0]])


def test_translation_invariance():
    rng = np.random.default_rng(61)
    for _ in range(20):
        s = random_instance(rng, n_max=5, k_max=4, region=20.0)
        pos = rng.uniform(5, 15, (s.num_antennas, 2))
        shift = rng.uniform(-3, 3, 2)
        base_tr = trace_objective(s, pos)
        base_gamma = common_sinr(s, pos)
        base_thr = effective_throughput(s, pos, 1.0)
        assert trace_objective(s, pos + shift) == pytest.approx(base_tr, rel=1e-9)
        assert common_sinr(s, pos + shift) == pytest.approx(base_gamma, rel=1e-9)
        assert effective_throughput(s, pos + shift, 1.0) == pytest.approx(base_thr, rel=1e-9)


def test_min_pair_distance_equals_upper_triangle_formula():
    # the formula it replaced: the minimum over the upper triangle only
    def upper_triangle(points):
        n = points.shape[0]
        if n < 2:
            return np.inf
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        return float(dists[np.triu_indices(n, k=1)].min())

    rng = np.random.default_rng(71)
    for case in range(2000):
        n = int(rng.integers(0, 9))
        points = rng.uniform(-10.0, 10.0, (n, 2)) * 10.0 ** rng.uniform(-6.0, 3.0)
        if n >= 2 and case % 3 == 0:
            # coincident points, and points one ulp apart
            points[1] = points[0]
            points[-1] = np.nextafter(points[0], np.inf)
        got, want = min_pair_distance(points), upper_triangle(points)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # a stack of lanes gives each lane's own, bit for bit
        lanes = int(rng.integers(1, 5))
        stack = rng.uniform(-10.0, 10.0, (lanes, n, 2)) * 10.0 ** rng.uniform(-6.0, 3.0)
        stack[0] = points
        got = min_pair_distance(stack)
        assert got.shape == (lanes,)
        assert got.tobytes() == np.array([upper_triangle(lane) for lane in stack]).tobytes()


def test_imports_without_scipy():
    # a None entry in sys.modules makes any import of scipy fail
    code = 'import sys; sys.modules["scipy"] = None; import movant, movant.cli'
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
