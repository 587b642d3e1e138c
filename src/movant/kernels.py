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

``trace_at``, ``trace_and_grad`` and ``project_deployment`` also take a
stack of deployments, ``(..., N, 2)``, and return one result per slice,
equal bit for bit to one call per slice: the placement solver runs its
restarts as lanes of one stack, in lockstep. ``channel_matrix`` takes
(N, 2) only.

The trace kernels call LAPACK's Hermitian eigensolvers through the
gufuncs behind ``np.linalg.eigh`` and ``np.linalg.eigvalsh``: those
functions check and convert their argument on every call, which costs more
than the 4 x 4 solve itself. The results are the same bit for bit; a solve
that does not converge gives NaN eigenvalues, so a NaN trace, where the
public functions raise.

``project_deployment`` keeps the circle/box-edge crossings of its last
``_CROSSINGS_MEMO_SIZE`` (16) constraint sets in a memo keyed on the values
of ``centers``, ``radius``, ``lo`` and ``hi``, never on array identities; a
stack reuses the entry of its (N, 2) centers, and results equal the
uncached computation bit for bit.

``clip_box`` is ``np.clip`` without its Python wrappers. It is the
projection's first step, and the whole projection where every disk holds
the box. It stays out of ``__all__``: it is a primitive, not a kernel.
"""

import functools
import struct

import numpy as np
from numpy.linalg import _umath_linalg

# np.clip's own ufunc, so bit for bit what np.clip returns: np.clip reaches
# it through two Python wrappers that cost more than clipping a few points
try:
    from numpy._core.umath import clip as clip_box
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as clip_box

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
    ``vectors``), tr(G^-1), cond(G), the mask of NaN traces (None when no
    trace is NaN) and conj(H) of each (N, 2) slice of ``positions``. The
    trace is NaN where G is singular or worse conditioned than
    ``cond_limit``; a singular slice has an infinite cond."""
    H = _channel(positions, directions, amplitudes, wavenumber)
    Hc = H.conj()
    G = Hc.swapaxes(-1, -2) @ H
    if vectors:
        w, V = _umath_linalg.eigh_lo(G, signature="D->dD")
    else:
        w, V = _umath_linalg.eigvalsh_lo(G, signature="D->d"), None
    # the common case, every slice well conditioned, needs no masks; it is
    # tested on Python floats, the cheapest test of a few slices, and the
    # kept last axis makes even an (N, 2) call's values a list; the
    # comparisons fail on NaN wherever it sits (min and max would skip a
    # NaN that follows a number)
    low = w[..., :1]
    if all(x > 0.0 for x in low.ravel().tolist()):
        cond = w[..., -1:] / low
        if all(x <= cond_limit for x in cond.ravel().tolist()):
            # [()] turns the 0-d cond of an (N, 2) call into a scalar
            return H, w, V, np.add.reduce(1.0 / w, axis=-1), cond[..., 0][()], None, Hc
    singular = w[..., 0] <= 0.0
    # arithmetic on NaN raises no floating-point warning, so a singular
    # slice computes on with NaN eigenvalues to a NaN trace
    safe = np.where(singular[..., None], np.nan, w)
    cond = np.where(singular, np.inf, safe[..., -1] / safe[..., 0])
    nan = ~(cond <= cond_limit)
    trace = np.where(nan, np.nan, np.add.reduce(1.0 / safe, axis=-1))
    # [()] turns the 0-d results of an (N, 2) call into scalars
    return H, w, V, trace[()], cond[()], nan, Hc


def trace_at(positions, directions, amplitudes, wavenumber, cond_limit):
    """(tr(G^-1), cond(G)) of a deployment, or arrays of shape (...) for a
    (..., N, 2) stack; the trace is NaN past ``cond_limit``, and NaN with an
    infinite cond where G is singular."""
    _, _, _, trace, cond, _, _ = _gram_spectrum(
        positions, directions, amplitudes, wavenumber, cond_limit, False
    )
    return trace, cond


def trace_and_grad(positions, directions, amplitudes, wavenumber, cond_limit):
    """(tr(G^-1), its gradient shaped like ``positions``, cond(G)); the
    gradient of a slice is zero where its trace is NaN.

    Row n of the gradient is ``-2 * wavenumber * sum_k directions[k] *
    Im([G^-2 H^H]_{k,n} H[n, k])``, with G^-2 = V diag(w^-2) V^H from the
    same eigendecomposition that gives the trace.
    """
    H, w, V, trace, cond, nan, Hc = _gram_spectrum(
        positions, directions, amplitudes, wavenumber, cond_limit, True
    )
    if nan is not None:
        # unit eigenvalues keep the slices with a NaN trace free of
        # floating-point warnings; their gradient is zeroed below
        w = np.where(nan[..., None], 1.0, w)
    # H G^-2 is the conjugate transpose of G^-2 H^H
    HG2 = ((H @ V) / w[..., None, :] ** 2) @ V.conj().swapaxes(-1, -2)
    im = (HG2 * Hc).imag
    grad = 2.0 * wavenumber * (im @ directions)
    if nan is not None:
        grad = np.where(nan[..., None, None], 0.0, grad)
    return trace, grad, cond


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

    Idempotent up to rounding only: where the disk and a box edge both
    bind, projecting the result again can move it by a few ulps (in 20,000
    random cases with the center on the y = 0 edge of a side-10 square,
    radius up to 3 and points up to 5 outside the square, 3,659 moved, by
    at most 4 ulps of their largest coordinate).
    """
    box = clip_box(points, lo, hi)
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
