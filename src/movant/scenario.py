"""Problem instances: antenna deployments and immutable scenarios.

All lengths are stored in wavelength units (the default wavelength is 1.0),
speeds in wavelengths per second, and powers in linear watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "Topology",
    "Deployment",
    "Scenario",
    "as_positions",
    "min_pair_distance",
    "linear_from_dbm",
    "two_antenna_line_scenario",
]

HALF_PI = np.pi / 2.0


class Topology(Enum):
    """Movement region kind: a segment on the x axis or a full square."""

    SEGMENT_1D = "segment"
    SQUARE_2D = "square"

    def bounds(self, side: float) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper corner of a region of the given side length (y
        pinned to 0 on a segment)."""
        hi = np.array([side, 0.0 if self is Topology.SEGMENT_1D else side])
        return np.zeros(2), hi


def linear_from_dbm(dbm: float) -> float:
    """Convert a dBm power level to linear watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def as_positions(deployment) -> np.ndarray:
    """Coerce a Deployment or array-like into an (N, 2) float64 array."""
    if isinstance(deployment, Deployment):
        return deployment.coords
    arr = np.asarray(deployment, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (N, 2) positions, got shape {arr.shape}")
    return arr


def min_pair_distance(points: np.ndarray) -> float | np.ndarray:
    """Smallest distance between two rows of ``points`` (inf below two): a
    float for an (N, 2) array, an array of one per lane for an (..., N, 2)
    stack."""
    n = points.shape[-2]
    diffs = points[..., :, None, :] - points[..., None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=-1))
    # p_i - p_j is exactly -(p_j - p_i), so the matrix is exactly symmetric
    # and its off-diagonal minimum is the minimum over pairs
    dists[..., np.arange(n), np.arange(n)] = np.inf
    least = dists.min(axis=(-2, -1), initial=np.inf)
    return float(least) if points.ndim == 2 else least


@dataclass(frozen=True)
class Deployment:
    """A set of antenna coordinates, shape (N, 2), in wavelength units."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"deployment must have shape (N, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("deployment coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @classmethod
    def from_x(cls, xs) -> "Deployment":
        """Build a deployment on the x axis (y = 0)."""
        xs = np.asarray(xs, dtype=float)
        return cls(np.stack([xs, np.zeros_like(xs)], axis=1))

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.coords[:, 0]

    def min_pair_distance(self) -> float:
        return min_pair_distance(self.coords)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable description of one downlink serving interval.

    Attributes
    ----------
    num_antennas, num_users : int
        Array size N and user count K, with K <= N.
    wavelength : float
        Carrier wavelength; positions are expressed in multiples of it.
    elevation_angles, azimuth_angles : (K,) arrays, radians in [-pi/2, pi/2].
    fading_coeffs : (K,) array of large-scale power gains (> 0).
    noise_power, total_power : floats, linear watts.
    interval : float, seconds available for moving plus transmitting.
    region_side : float, side length of the movement region.
    min_spacing : float, smallest allowed distance between two antennas.
    max_speed : float, wavelengths per second.
    initial_positions : Deployment where the antennas start.
    topology : Topology, segment (y = 0) or square region.
    """

    num_antennas: int
    num_users: int
    elevation_angles: np.ndarray
    azimuth_angles: np.ndarray
    fading_coeffs: np.ndarray
    noise_power: float
    total_power: float
    interval: float
    region_side: float
    min_spacing: float
    max_speed: float
    initial_positions: Deployment
    topology: Topology = Topology.SQUARE_2D
    wavelength: float = 1.0

    def __post_init__(self):
        n, k = self.num_antennas, self.num_users
        if k > n:
            raise ValueError(f"need num_users <= num_antennas, got K={k} > N={n}")
        if n < 1 or k < 1:
            raise ValueError("num_antennas and num_users must be positive")
        for name in ("elevation_angles", "azimuth_angles", "fading_coeffs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (k,):
                raise ValueError(f"{name} must have shape ({k},), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in (
            "noise_power",
            "total_power",
            "interval",
            "region_side",
            "min_spacing",
            "max_speed",
            "wavelength",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if np.any(np.abs(self.elevation_angles) > HALF_PI + 1e-12):
            raise ValueError("elevation angles must lie in [-pi/2, pi/2]")
        if np.any(np.abs(self.azimuth_angles) > HALF_PI + 1e-12):
            raise ValueError("azimuth angles must lie in [-pi/2, pi/2]")
        if np.any(self.fading_coeffs <= 0):
            raise ValueError("fading coefficients must be positive")
        if self.noise_power <= 0 or self.total_power <= 0:
            raise ValueError("noise_power and total_power must be positive")
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.region_side <= 0 or self.wavelength <= 0:
            raise ValueError("region_side and wavelength must be positive")
        if self.min_spacing < 0 or self.max_speed < 0:
            raise ValueError("min_spacing and max_speed must be nonnegative")
        init = self.initial_positions
        if not isinstance(init, Deployment):
            init = Deployment(as_positions(init))
            object.__setattr__(self, "initial_positions", init)
        if len(init) != n:
            raise ValueError(f"initial deployment has {len(init)} antennas, expected {n}")
        lo, hi = self.region_bounds()
        if np.any(init.coords < lo - 1e-12) or np.any(init.coords > hi + 1e-12):
            raise ValueError("initial positions must lie inside the region")
        if init.min_pair_distance() < self.min_spacing - 1e-12:
            raise ValueError("initial positions violate the minimum spacing")
        # the trace kernels read these on every call: built once, read-only
        el, az = self.elevation_angles, self.azimuth_angles
        if self.topology is Topology.SEGMENT_1D:
            directions = np.stack([np.cos(el), np.zeros_like(el)], axis=1)
        else:
            directions = np.stack([np.cos(el) * np.sin(az), np.sin(el)], axis=1)
        amplitudes = np.sqrt(self.fading_coeffs)
        for name, arr in (("_directions", directions), ("_amplitudes", amplitudes)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def region_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper corner of the admissible region (y pinned to 0 in 1D)."""
        return self.topology.bounds(self.region_side)

    def direction_vectors(self) -> np.ndarray:
        """Per-user unit-phase direction vectors, shape (K, 2), read-only.

        In segment mode the effective direction is cos(elevation) along x;
        in square mode it is (cos(elevation) sin(azimuth), sin(elevation)).
        """
        return self._directions

    def amplitudes(self) -> np.ndarray:
        """Per-user channel amplitudes sqrt(fading_coeffs), read-only."""
        return self._amplitudes

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def snr_scale(self) -> float:
        """total_power / noise_power, the SINR prefactor."""
        return self.total_power / self.noise_power

    def with_(self, **changes) -> "Scenario":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def two_antenna_line_scenario(
    x1: float,
    x2: float,
    spatial_freq: float = np.pi / 4.0,
    snr_scale: float = 1.0,
    interval: float = 5.0,
    region_side: float = 10.0,
    min_spacing: float = 0.5,
    max_speed: float = 0.5,
    base_cos: float = 0.5,
) -> Scenario:
    """Two antennas on a segment serving two users.

    ``spatial_freq`` is the phase-difference rate per unit spacing,
    2*pi*(cos(theta_2) - cos(theta_1)); the two elevations are chosen so the
    cosine gap equals spatial_freq / (2*pi), starting from ``base_cos``.
    Unit fading and noise, so ``snr_scale`` equals the total power.
    """
    gap = spatial_freq / (2.0 * np.pi)
    c1, c2 = base_cos, base_cos + gap
    if not (0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0):
        raise ValueError("base_cos and spatial_freq give an invalid cosine")
    return Scenario(
        num_antennas=2,
        num_users=2,
        elevation_angles=np.arccos([c1, c2]),
        azimuth_angles=np.zeros(2),
        fading_coeffs=np.ones(2),
        noise_power=1.0,
        total_power=float(snr_scale),
        interval=interval,
        region_side=region_side,
        min_spacing=min_spacing,
        max_speed=max_speed,
        initial_positions=Deployment.from_x([x1, x2]),
        topology=Topology.SEGMENT_1D,
    )
