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
"""

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
    """(tr(G^-1), cond(G)); the trace is NaN past ``cond_limit``."""
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
    """
    out = np.clip(points, lo, hi)
    outside = np.hypot(*(out - centers).T) > radius
    if not outside.any():
        return out
    c = centers[outside]
    offset = points[outside] - c
    # the box clip is no farther from c than the point, so dist > radius >= 0
    unit = offset / np.hypot(*offset.T)[:, None]
    radial = c + radius * unit
    in_box = np.all((radial >= lo) & (radial <= hi), axis=1)
    rows = np.flatnonzero(outside)
    out[rows[in_box]] = radial[in_box]
    if in_box.all():
        return out
    c, unit = c[~in_box], unit[~in_box]
    # the circle's crossings with the edge lines x = lo0, x = hi0, y = lo1,
    # y = hi1 as offsets from c: the signed distance across to the line and
    # plus or minus the half chord along it
    lo_c, hi_c = lo - c, hi - c
    across = np.tile(np.stack([lo_c[:, 0], hi_c[:, 0], lo_c[:, 1], hi_c[:, 1]], axis=1), 2)
    gap = radius - np.abs(across)
    half = np.sqrt(np.maximum(gap[:, :4] * (radius + np.abs(across[:, :4])), 0.0))
    along = np.concatenate([half, -half], axis=1)
    on_x = np.tile([True, True, False, False], 2)
    step = np.stack([np.where(on_x, across, along), np.where(on_x, along, across)], axis=-1)
    # a crossing must also lie within the bounds of the axis it runs along
    low = np.where(on_x, lo_c[:, 1:], lo_c[:, :1])
    high = np.where(on_x, hi_c[:, 1:], hi_c[:, :1])
    ok = (gap >= 0.0) & (along >= low) & (along <= high)
    # every crossing lies at distance radius from c, so the one nearest the
    # point is the one furthest along the direction from c to the point
    score = np.where(ok, (step * unit[:, None, :]).sum(axis=2), -np.inf)
    best = step[np.arange(len(c)), np.argmax(score, axis=1)]
    out[rows[~in_box]] = np.clip(c + best, lo, hi)
    return out
