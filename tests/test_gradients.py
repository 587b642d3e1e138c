import numpy as np
import pytest

from movant.channel import common_sinr, trace_objective
from movant.gradients import fd_gradient, grad_rate, grad_trace
from movant.scenario import Deployment, two_antenna_line_scenario

from conftest import random_instance


def components_close(analytic, numeric, rtol=1e-5, floor=1e-8):
    """Per-component agreement: relative tolerance with an absolute floor."""
    for a, b in zip(analytic.ravel(), numeric.ravel()):
        assert abs(a - b) <= max(rtol * max(abs(a), abs(b)), floor), (a, b)


class TestGradTrace:
    def test_zero_at_optimal_spacing(self):
        # spacing 4 maximizes the two-antenna sine term: interior optimum
        s = two_antenna_line_scenario(3.0, 7.0)
        g = grad_trace(s, s.initial_positions)
        assert np.linalg.norm(g) <= 1e-8

    def test_matches_finite_differences_small(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            s = random_instance(rng, n_max=3, k_max=2)
            pos = s.initial_positions.coords
            analytic = grad_trace(s, pos)
            numeric = fd_gradient(s, pos)
            components_close(analytic, numeric)

    def test_matches_symbolic_two_antenna_derivative(self):
        freq = np.pi / 4
        rng = np.random.default_rng(7)
        for _ in range(20):
            x1, x2 = rng.uniform(0, 10, 2)
            if abs(abs(x1 - x2) % 8.0 - 4.0) < 0.2 or abs(x1 - x2) < 0.2:
                continue
            s = two_antenna_line_scenario(min(x1, x2), max(x1, x2), min_spacing=0.0)
            g = grad_trace(s, Deployment.from_x([x1, x2]))
            half = freq * (x1 - x2) / 2
            symbolic = -freq * np.cos(half) / np.sin(half) ** 3
            assert g[0, 0] == pytest.approx(symbolic, rel=1e-9)
            assert g[1, 0] == pytest.approx(-symbolic, rel=1e-9)

    def test_descent_step_decreases_objective(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_instance(rng, n_max=4, k_max=3)
            pos = rng.uniform(0, 8, (s.num_antennas, 2))
            g = grad_trace(s, pos)
            if np.linalg.norm(g) < 1e-6:
                continue
            stepped = pos - 1e-4 * g
            assert trace_objective(s, stepped) < trace_objective(s, pos)

    def test_segment_mode_has_zero_y_components(self, case_wide):
        rng = np.random.default_rng(3)
        for _ in range(10):
            xs = rng.uniform(0, 10, 2)
            if abs(xs[0] - xs[1]) < 0.1:
                continue
            g = grad_trace(case_wide, Deployment.from_x(xs))
            assert np.all(g[:, 1] == 0.0)


class TestGradRate:
    def test_zero_at_stationary_point(self):
        s = two_antenna_line_scenario(3.0, 7.0)
        g = grad_rate(s, s.initial_positions)
        assert np.linalg.norm(g) <= 1e-8

    def test_wide_gap_norm_sum(self, case_wide):
        # analytic value pi / (6 ln 2) at the 2-wavelength start
        g = grad_rate(case_wide, case_wide.initial_positions)
        assert np.linalg.norm(g, axis=1).sum() == pytest.approx(np.pi / (6 * np.log(2)), rel=1e-9)

    def test_matches_finite_differences_of_rate(self):
        rng = np.random.default_rng(29)

        def rate_objective(s, deployment):
            return np.log2(1.0 + common_sinr(s, deployment))

        for _ in range(10):
            s = random_instance(rng, n_max=4, k_max=3)
            pos = s.initial_positions.coords
            analytic = grad_rate(s, pos)
            numeric = fd_gradient(s, pos, objective=rate_objective)
            components_close(analytic, numeric, rtol=1e-5, floor=1e-8)

    def test_antiparallel_to_trace_gradient(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            s = random_instance(rng, n_max=5, k_max=4)
            pos = rng.uniform(0, 8, (s.num_antennas, 2))
            g_tr = grad_trace(s, pos)
            g_rate = grad_rate(s, pos)
            norm = np.linalg.norm(g_tr)
            if norm < 1e-10:
                continue
            ratio = g_rate / g_tr
            finite = np.isfinite(ratio)
            assert np.all(ratio[finite] < 0)
            spread = np.ptp(ratio[finite]) / abs(np.mean(ratio[finite]))
            assert spread <= 1e-9


class TestFiniteDifferenceOracle:
    def test_exact_on_linear_function(self):
        s = two_antenna_line_scenario(4.0, 6.0)
        coeffs = np.array([[1.5, -2.0], [0.25, 3.0]])

        def linear(_, deployment):
            pos = np.asarray(deployment, dtype=float)
            return float((coeffs * pos).sum())

        g = fd_gradient(s, s.initial_positions, step=1e-3, objective=linear)
        assert np.allclose(g, coeffs, atol=1e-9)

    def test_exact_on_quadratic_function(self):
        s = two_antenna_line_scenario(4.0, 6.0)

        def quadratic(_, deployment):
            pos = np.asarray(deployment, dtype=float)
            return float((pos**2).sum() + 3.0 * pos[0, 0] * pos[1, 1])

        g = fd_gradient(s, s.initial_positions, step=1e-4, objective=quadratic)
        pos = s.initial_positions.coords
        expected = 2.0 * pos.copy()
        expected[0, 0] += 3.0 * pos[1, 1]
        expected[1, 1] += 3.0 * pos[0, 0]
        assert np.allclose(g, expected, atol=1e-7)

    def test_step_halving_consistency(self):
        rng = np.random.default_rng(43)
        s = random_instance(rng, n_max=4, k_max=3)
        pos = rng.uniform(0, 8, (s.num_antennas, 2))
        coarse = fd_gradient(s, pos, step=1e-5)
        fine = fd_gradient(s, pos, step=1e-6)
        scale = np.maximum(np.abs(fine), 1e-8)
        assert np.max(np.abs(coarse - fine) / scale) <= 1e-4

    def test_rejects_nonpositive_step(self, case_wide):
        with pytest.raises(ValueError):
            fd_gradient(case_wide, case_wide.initial_positions, step=0.0)


def test_gradient_agreement_property_suite():
    """Analytic versus central-difference gradients over many random
    full-rank instances."""
    rng = np.random.default_rng(71)
    for _ in range(120):
        s = random_instance(rng)
        pos = s.initial_positions.coords
        analytic = grad_trace(s, pos)
        numeric = fd_gradient(s, pos)
        components_close(analytic, numeric)
