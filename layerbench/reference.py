"""Independent NumPy reference for the benchmark's checks.

Nothing here imports movant. A scenario is read only through its raw fields
(angles, fading, powers, wavelength, region, speed, interval, initial
positions, topology), so the checks keep their meaning when the program's own
helpers change.
"""

import math

import numpy as np

# The solver promises pairwise spacing within this tolerance (the default
# PenaltyConfig.feasibility_tol); region and reach limits are exact.
SPACING_TOL = 1e-4
GEOMETRY_TOL = 1e-9
FD_STEP = 1e-6


def positions(deployment) -> np.ndarray:
    """(N, 2) coordinates of a deployment object or array."""
    return np.asarray(getattr(deployment, "coords", deployment), dtype=float)


def is_segment(scenario) -> bool:
    return getattr(scenario.topology, "value", scenario.topology) == "segment"


def directions(scenario) -> np.ndarray:
    """(K, 2) direction vectors: (cos el, 0) on a segment, else
    (cos el sin az, sin el)."""
    el = np.asarray(scenario.elevation_angles, dtype=float)
    az = np.asarray(scenario.azimuth_angles, dtype=float)
    if is_segment(scenario):
        return np.stack([np.cos(el), np.zeros_like(el)], axis=1)
    return np.stack([np.cos(el) * np.sin(az), np.sin(el)], axis=1)


def channel(scenario, deployment) -> np.ndarray:
    """N x K matrix with entries sqrt(beta_k) exp(-j 2pi/lambda a_n . b_k)."""
    phase = (2.0 * math.pi / scenario.wavelength) * (positions(deployment) @ directions(scenario).T)
    return np.sqrt(np.asarray(scenario.fading_coeffs, dtype=float))[None, :] * np.exp(-1j * phase)


def trace_and_cond(scenario, deployment) -> tuple[float, float]:
    """tr(G^-1) and cond(G) for the Gram matrix G = H^H H."""
    H = channel(scenario, deployment)
    G = H.conj().T @ H
    return float(np.real(np.trace(np.linalg.inv(G)))), float(np.linalg.cond(G))


def rate(scenario, deployment) -> float:
    """Common zero-forcing rate log2(1 + (P / sigma^2) / tr(G^-1)), b/s/Hz."""
    trace, _ = trace_and_cond(scenario, deployment)
    return math.log2(1.0 + scenario.total_power / scenario.noise_power / trace)


def rate_ceiling(scenario) -> float:
    """log2(1 + P N sum(beta) / (sigma^2 K^2)).

    tr G = N sum(beta) because every channel entry of user k has modulus
    sqrt(beta_k); AM-HM on the K eigenvalues gives tr(G^-1) >= K^2 / tr G.
    """
    n = positions(scenario.initial_positions).shape[0]
    k = len(scenario.fading_coeffs)
    snr = scenario.total_power / scenario.noise_power
    return math.log2(1.0 + snr * n * float(np.sum(scenario.fading_coeffs)) / k**2)


def region_upper(scenario) -> np.ndarray:
    side = scenario.region_side
    return np.array([side, 0.0 if is_segment(scenario) else side])


def min_pair_distance(points: np.ndarray) -> float:
    if len(points) < 2:
        return math.inf
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    return float(d[np.triu_indices(len(points), k=1)].min())


def feasibility_faults(scenario, deployment, reach) -> list[str]:
    """Constraint violations of a deployment: region, reach disk of radius
    ``reach`` around each initial position (``None`` = unlimited) and the
    minimum spacing."""
    pts = positions(deployment)
    start = positions(scenario.initial_positions)
    faults = []
    if pts.shape != start.shape:
        return [f"deployment shape {pts.shape} != {start.shape}"]
    hi = region_upper(scenario)
    if np.any(pts < -GEOMETRY_TOL) or np.any(pts > hi + GEOMETRY_TOL):
        faults.append("deployment leaves the region")
    if reach is not None:
        shift = float(np.linalg.norm(pts - start, axis=1).max())
        if shift > reach + GEOMETRY_TOL * max(1.0, reach):
            faults.append(f"antenna moved {shift:.9g} beyond its reach {reach:.9g}")
    gap = min_pair_distance(pts)
    if gap < scenario.min_spacing - SPACING_TOL:
        faults.append(f"spacing {gap:.6g} below {scenario.min_spacing}")
    return faults


def speed_threshold_fd(scenario, step: float = FD_STEP) -> float:
    """R0 / (T * sum_n |grad_n R0|) with the gradient of the reference rate
    taken by central finite differences at the initial deployment."""
    start = positions(scenario.initial_positions)
    dims = 1 if is_segment(scenario) else 2
    grad = np.zeros_like(start)
    for n in range(start.shape[0]):
        for d in range(dims):
            plus, minus = start.copy(), start.copy()
            plus[n, d] += step
            minus[n, d] -= step
            grad[n, d] = (rate(scenario, plus) - rate(scenario, minus)) / (2.0 * step)
    norm_sum = float(np.linalg.norm(grad, axis=1).sum())
    return rate(scenario, start) / (scenario.interval * norm_sum)


def two_antenna_throughput(t, gap: float, speed: float, interval: float) -> np.ndarray:
    """(T - t) log2(1 + sin^2(pi/8 min(gap + 2 v t, 4))): the paper's
    two-antenna, two-user line case, where both antennas move apart at the
    speed limit until they reach the optimal 4-wavelength spacing."""
    t = np.asarray(t, dtype=float)
    spacing = np.minimum(gap + 2.0 * speed * t, 4.0)
    return (interval - t) * np.log2(1.0 + np.sin(math.pi / 8.0 * spacing) ** 2)
