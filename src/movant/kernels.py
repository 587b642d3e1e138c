"""Hot numerical kernels: channel matrix, trace objective, its gradient,
and the box/disk projection, one NumPy implementation each.

Conventions: positions are (N, 2) float64 arrays in wavelength units,
``directions`` is the (K, 2) array of per-user direction vectors,
``amplitudes`` the (K,) per-user channel amplitudes (sqrt of the power gain),
and ``wavenumber`` is 2*pi/wavelength. Entry (n, k) of the channel matrix is
``amplitudes[k] * exp(-1j * wavenumber * dot(positions[n], directions[k]))``
(columns are conjugated steering vectors). Kernels never raise on degenerate
channels; they return NaN objectives plus the measured condition number and
leave error handling to the wrappers.

``project_deployment`` also takes a stack of deployments, ``(..., N, 2)``,
and projects each slice as one call per slice would; ``channel_matrix``,
``trace_at`` and ``trace_and_grad`` take (N, 2) only.

``project_deployment`` keeps the circle/box-edge crossings of its last
``_CROSSINGS_MEMO_SIZE`` (16) constraint sets in a memo keyed on the values
of ``centers``, ``radius``, ``lo`` and ``hi``, never on array identities; a
stack reuses the entry of its (N, 2) centers, and results equal the
uncached computation bit for bit.
"""

import functools
import struct

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "channel_matrix",
    "trace_at",
    "trace_and_grad",
    "project_deployment",
]

# the kernels are plain NumPy; the flag stays for run records that report it
NUMBA_ENABLED = False

# constraint sets whose circle/box-edge crossings are kept: a solve projects
# hundreds of times onto one set, and a duration search then moves on to the
# next one for good
_CROSSINGS_MEMO_SIZE = 16


# the trace kernels build H through _channel rather than channel_matrix, so
# that wrapping a public kernel to count or time its calls does not also
# count the trace kernels' own use of it
def _channel(positions, directions, amplitudes, wavenumber):
    return amplitudes * np.exp(-1j * wavenumber * (positions @ directions.T))


def channel_matrix(positions, directions, amplitudes, wavenumber):
    """The (N, K) channel matrix H."""
    return _channel(positions, directions, amplitudes, wavenumber)


def _gram_spectrum(positions, directions, amplitudes, wavenumber, cond_limit, vectors):
    """Channel H, ascending Gram eigenvalues w, eigenvectors V (None unless
    ``vectors``), tr(G^-1) and cond(G). The trace is NaN when G is singular
    or worse conditioned than ``cond_limit``."""
    H = _channel(positions, directions, amplitudes, wavenumber)
    G = H.conj().T @ H
    if vectors:
        w, V = np.linalg.eigh(G)
    else:
        w, V = np.linalg.eigvalsh(G), None
    if w[0] <= 0.0:
        return H, w, V, np.nan, np.inf
    cond = w[-1] / w[0]
    trace = (1.0 / w).sum() if cond <= cond_limit else np.nan
    return H, w, V, trace, cond


def trace_at(positions, directions, amplitudes, wavenumber, cond_limit):
    """(tr(G^-1), cond(G)) of one (N, 2) deployment; the trace is NaN past
    ``cond_limit``, and NaN with an infinite cond where G is singular."""
    _, _, _, trace, cond = _gram_spectrum(
        positions, directions, amplitudes, wavenumber, cond_limit, False
    )
    return trace, cond


def trace_and_grad(positions, directions, amplitudes, wavenumber, cond_limit):
    """(tr(G^-1), its (N, 2) gradient, cond(G)); the gradient is zero
    where the trace is NaN.

    Row n of the gradient is ``-2 * wavenumber * sum_k directions[k] *
    Im([G^-2 H^H]_{k,n} H[n, k])``, with G^-2 = V diag(w^-2) V^H from the
    same eigendecomposition that gives the trace.
    """
    H, w, V, trace, cond = _gram_spectrum(
        positions, directions, amplitudes, wavenumber, cond_limit, True
    )
    if np.isnan(trace):
        return trace, np.zeros(positions.shape), cond
    # H G^-2 is the conjugate transpose of G^-2 H^H
    HG2 = ((H @ V) / w**2) @ V.conj().T
    im = (HG2 * H.conj()).imag
    return trace, 2.0 * wavenumber * (im @ directions), cond


def project_deployment(points, centers, radius, lo, hi):
    """Euclidean projection of each row of ``points`` onto the box
    [lo, hi] intersected with the closed disk of ``radius`` around the
    matching row of ``centers`` (centers lie in the box, so the set is
    never empty).

    Closed form: the box clip when it lies in the disk; else the radial
    disk point when it lies in the box; else both constraints bind and the
    projection is the nearest point where the circle meets a box edge.
    Those crossings depend on the constraints alone, so they come from the
    module's memo of the last ``_CROSSINGS_MEMO_SIZE`` constraint sets,
    keyed on the values of ``centers``, ``radius``, ``lo`` and ``hi``; the
    result equals the uncached computation bit for bit.

    Stacked points (..., N, 2) project every (N, 2) slice onto the same
    (N, 2) centers; rows are projected independently, so each slice comes
    out as it would alone.
    """
    box = np.clip(points, lo, hi)
    gap = box - centers
    outside = np.hypot(gap[..., 0], gap[..., 1]) > radius
    if not outside.any():
        return box
    # an outside row is farther from its center than its box clip, so more
    # than radius >= 0; the other rows get a zero offset and divide by 1
    offset = np.where(outside[..., None], points, centers) - centers
    dist = np.hypot(offset[..., 0], offset[..., 1])
    unit = offset / np.where(outside, dist, 1.0)[..., None]
    radial = centers + radius * unit
    fits = (radial >= lo) & (radial <= hi)
    edge = outside & ~(fits[..., 0] & fits[..., 1])
    out = np.where(outside[..., None], radial, box)
    if not edge.any():
        return out
    step_x, step_y, ok, crossings, first = _crossings(*_constraint_key(centers, radius, lo, hi))
    # every crossing lies at distance radius from the center, so the one
    # nearest the point is the one furthest along the direction to it
    score = np.where(ok, step_x * unit[..., :1] + step_y * unit[..., 1:], -np.inf)
    return np.where(edge[..., None], crossings[first + score.argmax(axis=-1)], out)


def _constraint_key(centers, radius, lo, hi):
    """The memo key of a constraint set: its values as float64 bytes, never
    an array's identity (arrays are mutable and ids are reused)."""
    centers = np.asarray(centers, dtype=np.float64)
    return (
        centers.shape,
        centers.tobytes(),
        struct.pack("d", radius),
        np.asarray(lo, dtype=np.float64).tobytes(),
        np.asarray(hi, dtype=np.float64).tobytes(),
    )


@functools.lru_cache(maxsize=_CROSSINGS_MEMO_SIZE)
def _crossings(shape, centers, radius, lo, hi):
    """The circle's crossings with the box edges for each center, from the
    bytes of a ``_constraint_key``: the (N, 8) x and y offsets from the
    center, whether each crossing lies on the box, the (8 N, 2) crossings
    clipped to the box, and each row's first index into them."""
    c = np.frombuffer(centers).reshape(shape)
    (radius,) = struct.unpack("d", radius)
    lo, hi = np.frombuffer(lo), np.frombuffer(hi)
    # the crossings with the edge lines x = lo0, x = hi0, y = lo1, y = hi1
    # as offsets from c: the signed distance across to the line and plus or
    # minus the half chord along it
    lo_c, hi_c = lo - c, hi - c
    across = np.tile(np.stack([lo_c[:, 0], hi_c[:, 0], lo_c[:, 1], hi_c[:, 1]], axis=1), 2)
    gap = radius - np.abs(across)
    half = np.sqrt(np.maximum(gap[:, :4] * (radius + np.abs(across[:, :4])), 0.0))
    along = np.concatenate([half, -half], axis=1)
    on_x = np.tile([True, True, False, False], 2)
    step_x, step_y = np.where(on_x, across, along), np.where(on_x, along, across)
    # a crossing must also lie within the bounds of the axis it runs along
    low = np.where(on_x, lo_c[:, 1:], lo_c[:, :1])
    high = np.where(on_x, hi_c[:, 1:], hi_c[:, :1])
    ok = (gap >= 0.0) & (along >= low) & (along <= high)
    crossings = np.clip(c[:, None, :] + np.stack([step_x, step_y], axis=-1), lo, hi)
    table = (step_x, step_y, ok, crossings.reshape(-1, 2), 8 * np.arange(len(c)))
    for array in table:
        array.flags.writeable = False
    return table
