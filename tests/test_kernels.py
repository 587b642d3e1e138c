import numpy as np
import pytest

from movant import kernels


def inputs(seed=0, n=5, k=4):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 8, (n, 2))
    dirs = rng.uniform(-1, 1, (k, 2))
    amps = rng.uniform(0.5, 2.0, k)
    return pos, dirs, amps, 2 * np.pi


def loop_channel_matrix(positions, directions, amplitudes, wavenumber):
    """Reference channel matrix, one entry at a time."""
    H = np.empty((positions.shape[0], directions.shape[0]), dtype=np.complex128)
    for n in range(positions.shape[0]):
        for k in range(directions.shape[0]):
            phase = wavenumber * (
                positions[n, 0] * directions[k, 0] + positions[n, 1] * directions[k, 1]
            )
            H[n, k] = amplitudes[k] * complex(np.cos(phase), -np.sin(phase))
    return H


def loop_trace_and_grad(positions, directions, amplitudes, wavenumber):
    """Reference tr(G^-1) and its gradient through an explicit inverse."""
    H = loop_channel_matrix(positions, directions, amplitudes, wavenumber)
    G_inv = np.linalg.inv(np.conj(H.T) @ H)
    M = (G_inv @ G_inv) @ np.conj(H.T)
    grad = np.zeros(positions.shape)
    for n in range(positions.shape[0]):
        for k in range(directions.shape[0]):
            im = (M[k, n] * H[n, k]).imag
            grad[n] -= 2.0 * wavenumber * directions[k] * im
    return float(np.real(np.trace(G_inv))), grad


def bisection_projection(point, lo, hi, center, radius):
    """Reference box-and-disk projection through the disk multiplier.

    The minimizer is ``clip((point + mu*center) / (1 + mu))`` for the unique
    mu >= 0 that makes the disk constraint tight (mu = 0 when it is slack);
    mu is bracketed by quadrupling and then bisected to double precision.
    """
    out = np.empty(2)
    if radius <= 0.0:
        out[0] = min(max(center[0], lo[0]), hi[0])
        out[1] = min(max(center[1], lo[1]), hi[1])
        return out
    b0 = min(max(point[0], lo[0]), hi[0])
    b1 = min(max(point[1], lo[1]), hi[1])
    w0 = b0 - center[0]
    w1 = b1 - center[1]
    if w0 * w0 + w1 * w1 <= radius * radius:
        out[0] = b0
        out[1] = b1
        return out
    mu_lo = 0.0
    mu_hi = 1.0
    for _ in range(200):
        inv = 1.0 / (1.0 + mu_hi)
        c0 = min(max((point[0] + mu_hi * center[0]) * inv, lo[0]), hi[0])
        c1 = min(max((point[1] + mu_hi * center[1]) * inv, lo[1]), hi[1])
        w0 = c0 - center[0]
        w1 = c1 - center[1]
        if w0 * w0 + w1 * w1 <= radius * radius:
            break
        mu_hi *= 4.0
    for _ in range(120):
        mid = 0.5 * (mu_lo + mu_hi)
        if mid <= mu_lo or mid >= mu_hi:
            break
        inv = 1.0 / (1.0 + mid)
        c0 = min(max((point[0] + mid * center[0]) * inv, lo[0]), hi[0])
        c1 = min(max((point[1] + mid * center[1]) * inv, lo[1]), hi[1])
        w0 = c0 - center[0]
        w1 = c1 - center[1]
        if w0 * w0 + w1 * w1 > radius * radius:
            mu_lo = mid
        else:
            mu_hi = mid
        if mu_hi - mu_lo <= 1e-16 * (1.0 + mu_hi):
            break
    inv = 1.0 / (1.0 + mu_hi)
    out[0] = min(max((point[0] + mu_hi * center[0]) * inv, lo[0]), hi[0])
    out[1] = min(max((point[1] + mu_hi * center[1]) * inv, lo[1]), hi[1])
    return out


def test_channel_matrix_parity():
    pos, dirs, amps, wn = inputs(1)
    # the phases differ by a few roundings of their own size
    tol = 16 * np.finfo(float).eps * wn * np.abs(pos).sum(axis=1).max() * amps.max()
    H = kernels.channel_matrix(pos, dirs, amps, wn)
    assert np.abs(H - loop_channel_matrix(pos, dirs, amps, wn)).max() <= tol


def test_trace_parity():
    pos, dirs, amps, wn = inputs(2)
    trace, cond = kernels.trace_at(pos, dirs, amps, wn, 1e12)
    expected, _ = loop_trace_and_grad(pos, dirs, amps, wn)
    assert trace == pytest.approx(expected, rel=1e-12)
    H = loop_channel_matrix(pos, dirs, amps, wn)
    assert cond == pytest.approx(np.linalg.cond(np.conj(H.T) @ H), rel=1e-9)


def test_trace_and_grad_parity():
    for seed in range(3, 23):
        pos, dirs, amps, wn = inputs(seed)
        trace, grad, _ = kernels.trace_and_grad(pos, dirs, amps, wn, 1e12)
        expected_trace, expected_grad = loop_trace_and_grad(pos, dirs, amps, wn)
        assert trace == pytest.approx(expected_trace, rel=1e-12)
        assert np.allclose(grad, expected_grad, rtol=1e-10, atol=1e-12 * np.abs(expected_grad).max())


def projection_cases(seed, count, rows):
    """Random projection inputs on both topologies: lower and upper corner,
    ``rows`` centers, a radius (a tenth of them zero) and ``rows`` points up
    to 1e9 away."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        side = rng.uniform(0.5, 40.0)
        lo = np.zeros(2)
        hi = np.array([side, 0.0 if case % 2 else side])
        centers = rng.uniform(lo, hi, (rows, 2))
        radius = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6.0, 1.7)
        scale = 10.0 ** rng.uniform(-3.0, 9.0, (rows, 1))
        yield centers + rng.normal(size=(rows, 2)) * scale, centers, radius, lo, hi


def assert_matches_bisection(points, centers, radius, lo, hi):
    out = kernels.project_deployment(points, centers, radius, lo, hi)
    tol = 1e-12 * max(1.0, radius)
    for n in range(points.shape[0]):
        expected = bisection_projection(points[n], lo, hi, centers[n], radius)
        assert np.abs(out[n] - expected).max() <= tol
    assert np.all(out >= lo) and np.all(out <= hi)
    assert np.all(np.hypot(*(out - centers).T) <= radius + tol)


def test_projection_parity():
    for case in projection_cases(11, 12000, 1):
        assert_matches_bisection(*case)


def test_deployment_projection_parity():
    for case in projection_cases(12, 500, 6):
        assert_matches_bisection(*case)


def test_projection_handles_enormous_inputs():
    # candidate points during backtracking can sit many orders of magnitude
    # outside the region; cost and accuracy must not degrade
    lo = np.zeros(2)
    hi = np.array([10.0, 10.0])
    center = np.array([[4.5, 0.0]])
    for scale in (1e3, 1e6, 1e9):
        point = np.array([[4.5 + scale, -0.7 * scale]])
        out = kernels.project_deployment(point, center, 4e-4, lo, hi)[0]
        assert np.linalg.norm(out - center[0]) <= 4e-4 + 1e-12
        assert out[0] >= lo[0] and out[1] >= lo[1]
        # with the query far to the lower right and y clamped at the axis,
        # the nearest feasible point is the disk's x-extreme on the axis
        assert np.allclose(out, [4.5 + 4e-4, 0.0], atol=1e-7)


def test_degenerate_channel_returns_nan_not_raises():
    pos = np.zeros((3, 2))
    dirs = np.array([[0.3, 0.2], [0.5, -0.1]])
    amps = np.ones(2)
    trace, cond = kernels.trace_at(pos, dirs, amps, 2 * np.pi, 1e12)
    assert np.isnan(trace)
    assert cond > 1e12 or np.isinf(cond)
    trace, grad, cond = kernels.trace_and_grad(pos, dirs, amps, 2 * np.pi, 1e12)
    assert np.isnan(trace)
    assert np.array_equal(grad, np.zeros((3, 2)))


def test_trace_matches_eigenvalue_sum():
    pos, dirs, amps, wn = inputs(5)
    H = kernels.channel_matrix(pos, dirs, amps, wn)
    gram = np.conj(H.T) @ H
    expected = float(np.real(np.trace(np.linalg.inv(gram))))
    trace, _ = kernels.trace_at(pos, dirs, amps, wn, 1e12)
    assert trace == pytest.approx(expected, rel=1e-12)
    trace_g, _, _ = kernels.trace_and_grad(pos, dirs, amps, wn, 1e12)
    assert trace_g == pytest.approx(expected, rel=1e-12)
