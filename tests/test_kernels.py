from collections import Counter

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


def closed_form_projection(points, centers, radius, lo, hi):
    """Reference box-and-disk projection: the closed form of
    ``project_deployment`` with the circle/box-edge crossings built afresh
    on every call, row by row over a flattened stack."""
    if points.ndim > 2:
        rows = np.broadcast_to(centers, points.shape).reshape(-1, 2)
        flat = closed_form_projection(points.reshape(-1, 2), rows, radius, lo, hi)
        return flat.reshape(points.shape)
    out = np.clip(points, lo, hi)
    outside = np.hypot(*(out - centers).T) > radius
    if not outside.any():
        return out
    c = centers[outside]
    offset = points[outside] - c
    unit = offset / np.hypot(*offset.T)[:, None]
    radial = c + radius * unit
    in_box = np.all((radial >= lo) & (radial <= hi), axis=1)
    rows = np.flatnonzero(outside)
    out[rows[in_box]] = radial[in_box]
    if in_box.all():
        return out
    c, unit = c[~in_box], unit[~in_box]
    lo_c, hi_c = lo - c, hi - c
    across = np.tile(np.stack([lo_c[:, 0], hi_c[:, 0], lo_c[:, 1], hi_c[:, 1]], axis=1), 2)
    gap = radius - np.abs(across)
    half = np.sqrt(np.maximum(gap[:, :4] * (radius + np.abs(across[:, :4])), 0.0))
    along = np.concatenate([half, -half], axis=1)
    on_x = np.tile([True, True, False, False], 2)
    step = np.stack([np.where(on_x, across, along), np.where(on_x, along, across)], axis=-1)
    low = np.where(on_x, lo_c[:, 1:], lo_c[:, :1])
    high = np.where(on_x, hi_c[:, 1:], hi_c[:, :1])
    ok = (gap >= 0.0) & (along >= low) & (along <= high)
    score = np.where(ok, (step * unit[:, None, :]).sum(axis=2), -np.inf)
    best = step[np.arange(len(c)), np.argmax(score, axis=1)]
    out[rows[~in_box]] = np.clip(c + best, lo, hi)
    return out


def branch_counts(points, centers, radius, lo, hi):
    """Rows of a projection call that take each branch of the closed form:
    the box clip lies in the disk, else the radial point lies in the box,
    else the circle/box-edge crossing."""
    centers = np.broadcast_to(centers, points.shape).reshape(-1, 2)
    points = points.reshape(-1, 2)
    outside = np.hypot(*(np.clip(points, lo, hi) - centers).T) > radius
    offset = points[outside] - centers[outside]
    radial = centers[outside] + radius * offset / np.hypot(*offset.T)[:, None]
    fits = np.all((radial >= lo) & (radial <= hi), axis=1)
    return Counter(inside=int((~outside).sum()), radial=int(fits.sum()), edge=int((~fits).sum()))


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


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


def edge_projection_cases(seed, count, rows):
    """Projection inputs with centers on box edges and corners, like the
    default layout, on both topologies: each center coordinate sits on its
    lower bound, its upper bound or in between, the radius runs from 0 (a
    tenth of the cases) up to the region side, and points lie up to 1e3
    away."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        side = rng.uniform(0.5, 40.0)
        lo = np.zeros(2)
        hi = np.array([side, 0.0 if case % 2 else side])
        snap = rng.integers(0, 3, (rows, 2))
        centers = np.where(snap == 0, lo, np.where(snap == 1, hi, rng.uniform(lo, hi, (rows, 2))))
        radius = 0.0 if case % 10 == 0 else rng.uniform(0.0, side)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
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


def test_trace_is_nan_when_singular_or_past_cond_limit():
    for seed, (n, k) in enumerate([(1, 1), (2, 2), (5, 4), (8, 4)]):
        _, dirs, _, wn = inputs(30 + seed, n, k)
        amps = np.ones(k)
        rng = np.random.default_rng(seed)
        deployments = rng.uniform(0, 8, (12, n, 2))
        conds = sorted(kernels.trace_at(p, dirs, amps, wn, 1e12)[1] for p in deployments)
        # a limit among the deployments' own condition numbers puts some past it
        limit = conds[len(conds) // 2]
        results = [kernels.trace_at(p, dirs, amps, wn, limit) for p in deployments]
        assert any(np.isfinite(trace) for trace, _ in results)
        for trace, cond in results:
            assert np.isfinite(cond) and np.isnan(trace) == (cond > limit)
        if k > 1:
            assert any(cond > limit for _, cond in results)
            # all antennas at the origin give G = n * ones((k, k)): its
            # smallest eigenvalue is exactly zero for k > 1
            trace, cond = kernels.trace_at(np.zeros((n, 2)), dirs, amps, wn, 1e12)
            assert np.isnan(trace) and cond == np.inf


# LAPACK flags a NaN input as an invalid operation
@pytest.mark.filterwarnings("ignore:invalid value encountered in eig")
def test_stacked_trace_kernels_match_per_slice_calls():
    # the last inputs put a NaN coordinate in a slice after finite ones
    sizes = [(1, 1, False), (2, 2, False), (5, 4, False), (8, 4, False), (9, 9, False)]
    for seed, (n, k, nan) in enumerate(sizes + [(1, 1, True), (5, 4, True)]):
        _, dirs, _, wn = inputs(40 + seed, n, k)
        amps = np.ones(k)
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0, 8, (3, 4, n, 2))
        # all antennas at the origin give G = n * ones((k, k)): its smallest
        # eigenvalue is exactly zero for k > 1
        stack[1, 2] = 0.0
        if nan:
            stack[2, 1, 0, 0] = np.nan
        conds = kernels.trace_at(stack, dirs, amps, wn, 1e12)[1]
        conds = np.sort(conds[np.isfinite(conds)])
        # a limit among the slices' own condition numbers puts some past it
        for limit in (1e12, conds[len(conds) // 2]):
            traces, conds_at = kernels.trace_at(stack, dirs, amps, wn, limit)
            traces_g, grads, conds_g = kernels.trace_and_grad(stack, dirs, amps, wn, limit)
            assert traces.shape == conds_at.shape == traces_g.shape == conds_g.shape == (3, 4)
            assert grads.shape == stack.shape
            for idx in np.ndindex(3, 4):
                trace, cond = kernels.trace_at(stack[idx], dirs, amps, wn, limit)
                assert np.array_equal(traces[idx], trace, equal_nan=True)
                assert np.array_equal(conds_at[idx], cond, equal_nan=True)
                trace, grad, cond = kernels.trace_and_grad(stack[idx], dirs, amps, wn, limit)
                assert np.array_equal(traces_g[idx], trace, equal_nan=True)
                assert np.array_equal(conds_g[idx], cond, equal_nan=True)
                assert np.array_equal(grads[idx], grad)
            assert np.isfinite(traces).any() and np.isfinite(traces_g).any()
            for t, g, c in ((traces, grads, conds_at), (traces_g, grads, conds_g)):
                assert np.array_equal(np.isnan(t), ~(c <= limit))
                assert not g[np.isnan(t)].any()
            if k > 1:
                assert np.isnan(traces[1, 2]) and conds_at[1, 2] == np.inf
                assert np.isnan(traces_g[1, 2]) and conds_g[1, 2] == np.inf
                if limit < 1e12:
                    past = np.isfinite(conds_g) & (conds_g > limit)
                    assert past.any() and np.isnan(traces_g[past]).all()


def test_spectrum_matches_numpy_eigensolvers():
    # the kernels call LAPACK through the gufuncs behind np.linalg.eigh and
    # np.linalg.eigvalsh; the public functions are the reference
    for seed, (n, k) in enumerate([(1, 1), (5, 4), (9, 9)]):
        pos, dirs, amps, wn = inputs(60 + seed, n, k)
        stack = pos + np.random.default_rng(seed).normal(0.0, 1.0, (3, n, 2))
        for positions in (pos, stack):
            H, w, V, *_ = kernels._gram_spectrum(positions, dirs, amps, wn, 1e12, True)
            G = np.swapaxes(H.conj(), -1, -2) @ H
            w_ref, V_ref = np.linalg.eigh(G)
            assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)
            _, w, V, *_ = kernels._gram_spectrum(positions, dirs, amps, wn, 1e12, False)
            assert V is None and np.array_equal(w, np.linalg.eigvalsh(G))


def test_stacked_projection_matches_per_slice_calls():
    rng = np.random.default_rng(13)
    for centers, radius, lo, hi in (case[1:] for case in projection_cases(14, 200, 5)):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (8, 1, 1))
        stack = centers + rng.normal(size=(8, 5, 2)) * scale
        out = kernels.project_deployment(stack, centers, radius, lo, hi)
        assert out.shape == stack.shape
        for points, projected in zip(stack, out):
            expected = kernels.project_deployment(points, centers, radius, lo, hi)
            assert np.array_equal(projected, expected)


def test_projection_equals_closed_form_bitwise():
    rng = np.random.default_rng(15)
    stacked = [
        (centers + rng.normal(size=(8, 5, 2)) * (radius + 1.0), centers, radius, lo, hi)
        for _, centers, radius, lo, hi in edge_projection_cases(17, 200, 5)
    ]
    branches = Counter()
    for case in [
        *projection_cases(11, 2000, 1),
        *projection_cases(12, 500, 6),
        *edge_projection_cases(16, 2000, 5),
        *stacked,
    ]:
        assert_bitwise_equal(kernels.project_deployment(*case), closed_form_projection(*case))
        branches.update(branch_counts(*case))
    assert min(branches[b] for b in ("inside", "radial", "edge")) > 1000


def test_projection_memo_interleaves_constraint_sets():
    # more constraint sets than the memo holds, visited in random order
    sets = [case[1:] for case in edge_projection_cases(19, 2 * kernels._CROSSINGS_MEMO_SIZE, 5)]
    rng = np.random.default_rng(20)
    before = kernels._crossings.cache_info()
    for i in rng.integers(0, len(sets), 600):
        centers, radius, lo, hi = sets[i]
        shape = (int(rng.integers(1, 4)), 5, 2) if i % 3 == 0 else (5, 2)
        points = centers + rng.normal(size=shape) * 3.0 * (radius + 1.0)
        expected = closed_form_projection(points, centers, radius, lo, hi)
        assert_bitwise_equal(kernels.project_deployment(points, centers, radius, lo, hi), expected)
    after = kernels._crossings.cache_info()
    assert after.hits > before.hits and after.misses > before.misses


def test_projection_memo_follows_values_not_arrays():
    lo, hi = np.zeros(2), np.array([10.0, 10.0])
    # a corner, two edge centers, and a point on its own center
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 4.0], [3.0, 3.0]])
    points = np.array([[5.0, -3.0], [2.0, -1.0], [12.0, -3.0], [3.0, 3.0]])
    radius = 1.5

    def check():
        out = kernels.project_deployment(points, centers, radius, lo, hi)
        assert_bitwise_equal(out, closed_form_projection(points, centers, radius, lo, hi))
        return out

    first = check()
    assert branch_counts(points, centers, radius, lo, hi)["edge"] > 0
    misses = kernels._crossings.cache_info().misses
    # stacked calls reuse the (N, 2) entry whatever the stack's size
    for shape in ((2, 4, 2), (5, 3, 4, 2)):
        stack = np.broadcast_to(points, shape).copy()
        out = kernels.project_deployment(stack, centers, radius, lo, hi)
        assert_bitwise_equal(out, closed_form_projection(stack, centers, radius, lo, hi))
    assert kernels._crossings.cache_info().misses == misses
    centers[1, 0] = 5.5
    second = check()
    assert not np.array_equal(second, first)
    radius = np.nextafter(radius, np.inf)
    third = check()
    # the corner's crossing sits at x = radius, so one ulp shows
    assert not np.array_equal(third, second)
    radius = 0.0
    check()


def test_projection_memo_is_bounded():
    lo, hi = np.zeros(2), np.array([10.0, 0.0])
    centers = np.array([[5.0, 0.0], [10.0, 0.0]])
    points = np.array([[9.0, 1.0], [0.0, -2.0]])
    before = kernels._crossings.cache_info()
    for radius in np.linspace(0.1, 4.0, 10_000):
        kernels.project_deployment(points, centers, radius, lo, hi)
    after = kernels._crossings.cache_info()
    assert after.misses - before.misses == 10_000
    assert after.currsize <= kernels._CROSSINGS_MEMO_SIZE
