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
    return float(np.log2(1.0 + common_sinr(scenario, deployment)))


def effective_throughput(scenario: Scenario, deployment, t_mov: float) -> float:
    """Bits/Hz delivered when ``t_mov`` seconds of the interval are spent
    repositioning: (interval - t_mov) * rate."""
    if not 0.0 <= t_mov <= scenario.interval:
        raise ValueError(f"t_mov must lie in [0, {scenario.interval}], got {t_mov}")
    remaining = scenario.interval - t_mov
    if remaining == 0.0:
        return 0.0
    return remaining * achievable_rate(scenario, deployment)
