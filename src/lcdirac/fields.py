"""Grids, spinor fields, initial data, and light-cone triangle domains.

The lattice is uniform with the time step locked to the spatial step
(dt = dx), so both characteristic families x - t = const and x + t = const
pass exactly through lattice points.
"""
from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from ._records import record
from .errors import ConfigurationError, UsageError

BOUNDARIES = ("periodic", "zero_inflow")

# Slack for deciding whether a coordinate sits on a lattice point.
_ALIGN_RTOL = 1e-9


@record
class GridSpec:
    """Uniform spatial lattice on [x_min, x_max) with n_points sites."""

    x_min: float
    x_max: float
    n_points: int
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigurationError(f"n_points must be >= 2, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ConfigurationError(
                f"degenerate extent: x_min={self.x_min}, x_max={self.x_max}"
            )
        if self.boundary not in BOUNDARIES:
            raise ConfigurationError(f"unknown boundary mode {self.boundary!r}")
        # An n_points past the float range has no float dx; the CLI's work
        # bound refuses such a grid as too large.
        if self.n_points <= sys.float_info.max and not 0.0 < self.dx < math.inf:
            raise ConfigurationError(
                f"grid spacing dx={self.dx} is not finite and positive: x_min={self.x_min}, "
                f"x_max={self.x_max}, n_points={self.n_points}"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    # The time step, locked to dx by construction: the same property, so
    # reading it costs one property call, not two.
    dt = dx

    def sites(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def index_of(self, x: float) -> int:
        """Index of the lattice site at coordinate x; x must be aligned."""
        r = (x - self.x_min) / self.dx
        if not math.isfinite(r):  # x near the double limit, far past the window
            raise UsageError(f"coordinate {x} outside the grid window")
        i = round(r)
        if abs(r - i) > _ALIGN_RTOL * max(1.0, abs(r)):
            raise UsageError(f"coordinate {x} is not on the lattice (offset {r - i})")
        if not 0 <= i < self.n_points:
            raise UsageError(f"coordinate {x} outside the grid window")
        return int(i)


def make_grid(x_min: float, x_max: float, n_points: int, boundary: str = "periodic") -> GridSpec:
    return GridSpec(float(x_min), float(x_max), int(n_points), boundary)


@record
class SpinorField:
    """Snapshot of the two complex amplitudes on a grid at one time level.

    u rides the right-moving characteristics, v the left-moving ones.
    Snapshots are immutable: the component arrays are marked read-only.
    """

    grid: GridSpec
    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.complex128)
        v = np.ascontiguousarray(self.v, dtype=np.complex128)
        n = self.grid.n_points
        if u.shape != (n,) or v.shape != (n,):
            raise ConfigurationError(
                f"component length mismatch: grid has {n} sites, "
                f"u has {u.shape}, v has {v.shape}"
            )
        if not (np.all(np.isfinite(u.view(np.float64))) and np.all(np.isfinite(v.view(np.float64)))):
            raise ConfigurationError("non-finite entries in field components")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def _evolved(cls, grid: GridSpec, t: float, u: np.ndarray, v: np.ndarray) -> "SpinorField":
        """A level the step kernel wrote: u and v are C-contiguous
        complex128 arrays of grid length that the kernel found finite (fresh
        arrays, copies of them, or a ``kernels.LevelPool``'s views, which
        are read-only already), so only the read-only marking of the public
        constructor is left."""
        if u.flags.writeable:
            u.setflags(write=False)
            v.setflags(write=False)
        f = object.__new__(cls)
        f.__dict__.update(grid=grid, t=t, u=u, v=v)
        return f

    def density(self) -> np.ndarray:
        """Pointwise charge density |u|^2 + |v|^2."""
        return (self.u.real**2 + self.u.imag**2) + (self.v.real**2 + self.v.imag**2)


@record
class TriangleDomain:
    """Backward light cone over [a, b] based at t = 0.

    The cross-section at time t in [0, (b-a)/2] is the open interval
    (a + t, b - t); the apex sits at ((a+b)/2, (b-a)/2). The system is
    autonomous, so a cone based at a later time is a time shift of this one.
    """

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigurationError(f"need a < b, got a={self.a}, b={self.b}")

    @property
    def apex_time(self) -> float:
        return 0.5 * (self.b - self.a)

    def cross_section(self, t: float) -> tuple[float, float]:
        if t < -1e-12 or t > self.apex_time + 1e-12:
            raise UsageError(f"time {t} outside the cone's span [0.0, {self.apex_time}]")
        return (self.a + t, self.b - t)

    def section_indices(self, grid: GridSpec, t: float) -> tuple[int, int]:
        """Half-open site-index range (i0, i1) strictly inside the section.

        Sites x_i with lo < x_i < hi; returns i0 >= i1 for an empty section.
        """
        lo, hi = self.cross_section(t)
        dx = grid.dx
        # An endpoint near the double limit divides to +-inf, or overflows
        # with the tolerance; clamped to half the largest double it is still
        # far past the grid window, and gives the same section.
        big = 0.5 * sys.float_info.max
        rlo = min(max((lo - grid.x_min) / dx, -big), big)
        rhi = min(max((hi - grid.x_min) / dx, -big), big)
        # each endpoint's tolerance scales with its own coordinate alone
        i0 = math.floor(rlo + _ALIGN_RTOL * max(1.0, abs(rlo))) + 1
        i1 = math.ceil(rhi - _ALIGN_RTOL * max(1.0, abs(rhi)))  # first excluded index
        return max(i0, 0), min(i1, grid.n_points)


# ---------------------------------------------------------------------------
# Initial data


@record
class ComponentSpec:
    """One spinor component of an initial datum.

    kind selects the profile family; only the parameters that family uses
    are read. amplitude may be complex.
    """

    kind: str
    amplitude: complex = 1.0 + 0.0j
    center: float = 0.0
    width: float = 1.0
    halfwidth: float = 1.0
    exponent: float = 0.25
    cap: float = 100.0
    values: Optional[np.ndarray] = None

    KINDS = ("gaussian_pulse", "indicator_jump", "power_singularity_truncated", "sampled", "uniform")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown datum kind {self.kind!r}")
        if self.kind == "gaussian_pulse" and not self.width > 0:
            raise ConfigurationError("gaussian width must be positive")
        if self.kind in ("indicator_jump", "power_singularity_truncated") and not self.halfwidth > 0:
            raise ConfigurationError("halfwidth must be positive")
        if self.kind == "power_singularity_truncated":
            if not 0 < self.exponent < 0.5:
                raise ConfigurationError(
                    f"singular exponent must lie in (0, 1/2) for square-integrable data, got {self.exponent}"
                )
            if not self.cap > 0:
                raise ConfigurationError("cap must be positive")
        if self.kind == "sampled":
            if self.values is None:
                raise ConfigurationError("sampled datum requires values")
            v = np.ascontiguousarray(self.values, dtype=np.complex128)
            v.setflags(write=False)
            object.__setattr__(self, "values", v)

    def sample(self, grid: GridSpec) -> np.ndarray:
        x = grid.sites()
        a = complex(self.amplitude)
        if self.kind == "uniform":
            return np.full(grid.n_points, a, dtype=np.complex128)
        if self.kind == "gaussian_pulse":
            with np.errstate(over="ignore"):  # the square overflows to inf, exp(-inf) = 0
                return a * np.exp(-(((x - self.center) / self.width) ** 2))
        if self.kind == "indicator_jump":
            inside = np.abs(x - self.center) <= self.halfwidth
            return np.where(inside, a, 0.0).astype(np.complex128)
        if self.kind == "power_singularity_truncated":
            d = np.abs(x - self.center)
            with np.errstate(divide="ignore"):
                prof = np.where(d > 0, d ** (-self.exponent), np.inf)
            prof = np.minimum(prof, self.cap)
            prof = np.where(d <= self.halfwidth, prof, 0.0)
            return a * prof.astype(np.complex128)
        # sampled
        if self.values.shape != (grid.n_points,):
            raise ConfigurationError(
                f"sampled datum has {self.values.shape[0]} entries, grid has {grid.n_points} sites"
            )
        return self.values.copy()


@record
class InitialDatum:
    """Initial data for the two components, specified independently."""

    u0: ComponentSpec
    v0: ComponentSpec


def zero_datum() -> InitialDatum:
    return InitialDatum(ComponentSpec("uniform", 0.0), ComponentSpec("uniform", 0.0))


def sample_initial(datum: InitialDatum, grid: GridSpec) -> SpinorField:
    """Point-sample the datum at the lattice sites; returns the t = 0 field."""
    return SpinorField(grid, 0.0, datum.u0.sample(grid), datum.v0.sample(grid))


# ---------------------------------------------------------------------------
# Norms and distances


def _check_same_frame(fA: SpinorField, fB: SpinorField):
    if fA.grid != fB.grid:
        raise UsageError("fields live on different grids")
    if fA.t != fB.t:
        raise UsageError(f"fields at different times ({fA.t} vs {fB.t})")


def charge(f: SpinorField, window: Optional[TriangleDomain] = None) -> float:
    """Discrete charge integral over the full line or a cone cross-section."""
    dens = f.density()
    if window is not None:
        i0, i1 = window.section_indices(f.grid, f.t)
        dens = dens[i0:i1]
    return float(np.sum(dens) * f.grid.dx)


def l2_distance(fA: SpinorField, fB: SpinorField) -> float:
    """L2 distance of two snapshots over the full line.

    Summation is a fixed deterministic (pairwise) reduction, so repeated
    evaluation is bit-stable.
    """
    _check_same_frame(fA, fB)
    du = fA.u - fB.u
    dv = fA.v - fB.v
    dens = (du.real**2 + du.imag**2) + (dv.real**2 + dv.imag**2)
    return float(np.sqrt(np.sum(dens) * fA.grid.dx))
