"""Deterministic line-of-sight channel, zero-forcing beamforming, and the
scalar objectives (rate, effective throughput, trace of the inverse Gram).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SingularChannel
from .scenario import Scenario, as_positions

__all__ = [
    "SINGULAR_COND_LIMIT",
    "ChannelState",
    "channel_vector",
    "channel_state",
    "trace_objective",
    "zf_beamformer",
    "optimal_power",
    "common_sinr",
    "achievable_rate",
    "rate_of_trace",
    "trace_floor",
    "rate_ceiling",
    "reach_rate_ceiling",
    "effective_throughput",
]

# Gram condition number above which the channel is treated as singular
SINGULAR_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ChannelState:
    """Stacked channel matrix H (N x K), its Gram G = H^H H, and G^-1.

    Column k of H is the conjugated steering vector of user k, so G is
    Hermitian positive definite for any full-rank deployment.
    """

    H: np.ndarray
    G: np.ndarray
    G_inv: np.ndarray
    cond: float


def channel_vector(scenario: Scenario, deployment, k: int) -> np.ndarray:
    """Channel row vector of user ``k`` for the given deployment: the
    conjugate of column k of ``kernels.channel_matrix``.

    Entry n is ``sqrt(beta_k) * exp(+1j * wavenumber * dot(a_n, b_k))`` where
    ``b_k`` is the user's direction vector; every entry has modulus
    sqrt(beta_k).
    """
    if not 0 <= k < scenario.num_users:
        raise ValueError(f"user index {k} out of range [0, {scenario.num_users})")
    H = kernels.channel_matrix(_positions(scenario, deployment), *kernel_args(scenario)[:-1])
    return np.conj(H[:, k])


def channel_state(scenario: Scenario, deployment) -> ChannelState:
    """Build the stacked channel matrix and its (inverted) Gram from the
    eigendecomposition the trace kernels use, singular where they are.

    Raises
    ------
    SingularChannel
        If the Gram condition number exceeds ``SINGULAR_COND_LIMIT`` (e.g.
        coinciding antennas or indistinguishable users).
    """
    H, w, V, trace, cond, _, _ = kernels._gram_spectrum(
        _positions(scenario, deployment), *kernel_args(scenario), True
    )
    _check_singular(trace, cond)
    # G^-1 = V diag(1/w) V^H from the eigendecomposition that gave cond
    G_inv = (V / w) @ np.conj(V.T)
    return ChannelState(H=H, G=np.conj(H.T) @ H, G_inv=G_inv, cond=float(cond))


def kernel_args(scenario: Scenario) -> tuple:
    """The arguments every trace kernel takes after the positions:
    (directions, amplitudes, wavenumber, cond_limit)."""
    directions, amplitudes = scenario.direction_vectors(), scenario.amplitudes()
    return directions, amplitudes, scenario.wavenumber, SINGULAR_COND_LIMIT


def _positions(scenario: Scenario, deployment) -> np.ndarray:
    """The deployment's (N, 2) positions, checked against the scenario's N."""
    pos = as_positions(deployment)
    if pos.shape[0] != scenario.num_antennas:
        raise ValueError("deployment size does not match the scenario")
    return pos


def _check_singular(trace, cond) -> None:
    """Raise ``SingularChannel`` where a trace kernel reports a NaN trace:
    a Gram condition number past ``SINGULAR_COND_LIMIT``."""
    if np.isnan(trace):
        raise SingularChannel(f"Gram condition number {cond:.3e} exceeds {SINGULAR_COND_LIMIT:.0e}")


def checked_kernel(kernel, scenario: Scenario, positions) -> tuple:
    """Run a trace kernel (``kernels.trace_at`` or ``kernels.trace_and_grad``)
    on the scenario's channel at ``positions`` and return its result.

    Raises
    ------
    SingularChannel
        If the kernel reports the Gram condition number past
        ``SINGULAR_COND_LIMIT`` (a NaN trace).
    """
    result = kernel(positions, *kernel_args(scenario))
    _check_singular(result[0], result[-1])
    return result


def trace_objective(scenario: Scenario, deployment) -> float:
    """tr(G^-1) for the deployment; strictly positive, lower is better."""
    trace, _ = checked_kernel(kernels.trace_at, scenario, as_positions(deployment))
    return float(trace)


def zf_beamformer(scenario: Scenario, deployment, k: int) -> np.ndarray:
    """Unit-norm zero-forcing beamformer for user ``k``: column k of
    H G^-1, normalized. It is user k's conjugate channel projected onto the
    orthogonal complement of all other users' channels; for a single user
    it is the matched filter.
    """
    state = channel_state(scenario, deployment)
    w = state.H @ state.G_inv[:, k]
    return w / np.linalg.norm(w)


def optimal_power(scenario: Scenario, deployment) -> np.ndarray:
    """Per-user transmit powers that equalize the post-ZF SINRs.

    Proportional to the diagonal of G^-1 and summing to the power budget.
    """
    state = channel_state(scenario, deployment)
    diag = np.real(np.diag(state.G_inv))
    return scenario.total_power * diag / diag.sum()


def common_sinr(scenario: Scenario, deployment) -> float:
    """The SINR shared by all users under ZF beamforming with the
    equal-SINR power split: total_power / (tr(G^-1) * noise_power)."""
    return scenario.snr_scale / trace_objective(scenario, deployment)


def achievable_rate(scenario: Scenario, deployment) -> float:
    """Common per-user rate log2(1 + common_sinr), in bits/s/Hz."""
    traced = kernels.trace_at(as_positions(deployment), *kernel_args(scenario))
    return rate_of_trace(scenario, *traced)


def rate_of_trace(scenario: Scenario, trace, cond) -> float:
    """``achievable_rate`` from the (tr(G^-1), cond(G)) that
    ``kernels.trace_at`` gives for a deployment; ``SingularChannel`` where
    the trace is NaN."""
    _check_singular(trace, cond)
    return float(np.log2(1.0 + scenario.snr_scale / float(trace)))


def trace_floor(scenario: Scenario) -> float:
    """F = sum_k 1 / (N b_k^2), a floor under tr(G^-1) for every layout.

    Column k of H has N entries of modulus b_k, so G_kk = N b_k^2 whatever
    the positions, and for a positive-definite G, (G^-1)_kk >= 1 / G_kk
    (Cauchy-Schwarz on G^(1/2) e_k and G^(-1/2) e_k). Equality holds
    exactly where the users' channels are orthogonal.
    """
    return float(np.sum(1.0 / (scenario.num_antennas * scenario.fading_coeffs)))


def rate_ceiling(scenario: Scenario) -> float:
    """A rate no deployment exceeds: log2(1 + snr_scale / F), with F the
    ``trace_floor``."""
    return float(np.log2(1.0 + scenario.snr_scale / trace_floor(scenario)))


def reach_rate_ceiling(scenario: Scenario, reach):
    """A rate that no deployment beats when every antenna lies within
    ``reach`` (wavelengths, one value or an array of them) of its initial
    position, capped at ``rate_ceiling``; one rate per reach, equal to the
    initial rate at reach 0 up to the rounding margin below.

    X -> tr(X^-1) is convex on positive-definite matrices (Boyd and
    Vandenberghe, Convex Optimization, 3.1), so tr(G^-1) >= tr(G0^-1) -
    sum_n [phi(a_n) - phi(a0_n)], with G0 the Gram at the initial layout and
    phi(a) = Re sum_kl C_kl exp(j kappa a.(d_k - d_l)), C_kl = (G0^-2)_lk
    b_k b_l: the tangent plane at G0, written per antenna. Its gradient at
    a0_n is minus row n of ``kernels.trace_and_grad`` there. Each
    antenna's rise of phi within distance r is at most the smaller of its
    third-order Taylor bound, |grad| r + ||Hessian|| r^2 / 2 + sum_kl
    |C_kl| (kappa |d_k - d_l| r)^3 / 6, and the chord bound sum_kl |C_kl|
    min(kappa r |d_k - d_l|, 2). The trace bound is floored at
    ``trace_floor`` and lowered by a rounding margin of 4 eps cond(G0),
    so the ceiling errs high.

    Raises
    ------
    SingularChannel
        If the initial channel is singular.
    """
    initial = scenario.initial_positions.coords
    directions, amplitudes, wavenumber, cond_limit = kernel_args(scenario)
    _, w, V, trace, cond, _, _ = kernels._gram_spectrum(
        initial, directions, amplitudes, wavenumber, cond_limit, True
    )
    _check_singular(trace, cond)
    G_inv2 = (V / w**2) @ np.conj(V.T)
    coeffs = G_inv2.T * np.outer(amplitudes, amplitudes)
    # the (K, K, 2) differences d_k - d_l and each antenna's (N, K, K)
    # terms C_kl exp(j kappa a0_n.(d_k - d_l))
    delta = directions[:, None, :] - directions[None, :, :]
    phase = np.exp(1j * wavenumber * (initial @ directions.T))
    terms = coeffs * phase[:, :, None] * np.conj(phase)[:, None, :]
    grad = -wavenumber * np.einsum("nkl,kli->ni", terms.imag, delta)
    hess = -(wavenumber**2) * np.einsum("nkl,kli,klj->nij", terms.real, delta, delta)
    # the spectral norm of each symmetric 2 x 2 Hessian
    mid = 0.5 * (hess[:, 0, 0] + hess[:, 1, 1])
    half_gap = np.hypot(0.5 * (hess[:, 0, 0] - hess[:, 1, 1]), hess[:, 0, 1])
    hess_norm = np.abs(mid) + half_gap
    weight, spread = np.abs(coeffs), wavenumber * np.hypot(delta[..., 0], delta[..., 1])
    r = np.asarray(reach, dtype=float)[..., None]
    taylor = (
        np.hypot(grad[:, 0], grad[:, 1]) * r
        + 0.5 * hess_norm * r**2
        + np.sum(weight * spread**3) * r**3 / 6.0
    )
    chord = np.sum(weight * np.minimum(spread * r[..., None], 2.0), axis=(-2, -1))
    rise = np.minimum(taylor, chord[..., None]).sum(axis=-1)
    bound = np.maximum(trace - rise, trace_floor(scenario))
    bound = bound * (1.0 - 4.0 * np.finfo(float).eps * cond)
    rate = np.minimum(np.log2(1.0 + scenario.snr_scale / bound), rate_ceiling(scenario))
    return rate[()]


def effective_throughput(scenario: Scenario, deployment, t_mov: float) -> float:
    """Bits/Hz delivered when ``t_mov`` seconds of the interval are spent
    repositioning: (interval - t_mov) * rate."""
    if not 0.0 <= t_mov <= scenario.interval:
        raise ValueError(f"t_mov must lie in [0, {scenario.interval}], got {t_mov}")
    remaining = scenario.interval - t_mov
    if remaining == 0.0:
        return 0.0
    return remaining * achievable_rate(scenario, deployment)
