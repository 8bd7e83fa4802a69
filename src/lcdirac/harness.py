"""Rough-data machinery: mollification, approximating sequences, Cauchy
measurements, and uniqueness probes.

Rough square-integrable data are smoothed by discrete convolution with a
compactly supported unit-mass kernel; evolving a ladder of smoothing radii
and measuring pairwise distances operationalizes the construction of
strong solutions as limits of classical ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigurationError, ResolutionError, UsageError
# l2_distance is unused here but kept importable: the benchmark's tracer wraps it by this name
from .fields import GridSpec, InitialDatum, SpinorField, l2_distance, sample_initial  # noqa: F401
from .model import ModelParams
from .solver import SolverConfig, evolve


# ---------------------------------------------------------------------------
# Mollifiers


def bump_weights(r: np.ndarray) -> np.ndarray:
    """Standard smooth bump exp(-1/(1-r^2)) on |r| < 1."""
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def triangle_weights(r: np.ndarray) -> np.ndarray:
    """Tent kernel (1 - |r|) on |r| < 1; the second family for probes."""
    return np.maximum(1.0 - np.abs(r), 0.0)


KERNELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "bump": bump_weights,
    "triangle": triangle_weights,
}


def _kernel_taps(epsilon: float, dx: float, kernel: str) -> np.ndarray:
    if epsilon < 2.0 * dx:
        raise ResolutionError(
            f"mollification radius {epsilon} below the resolution floor 2*dx = {2*dx}"
        )
    jmax = int(np.ceil(epsilon / dx)) - 1
    offsets = np.arange(-jmax, jmax + 1) * dx
    w = KERNELS[kernel](offsets / epsilon)
    total = np.sum(w) * dx
    return w / total  # discrete unit mass: sum(w) * dx == 1


def _convolve(data: np.ndarray, w: np.ndarray, periodic: bool, dx: float) -> np.ndarray:
    half = len(w) // 2
    if periodic:
        padded = np.concatenate([data[-half:], data, data[:half]])
        full = np.convolve(padded, w.astype(np.complex128))
        return full[2 * half : 2 * half + len(data)] * dx
    full = np.convolve(data, w.astype(np.complex128))
    return full[half : half + len(data)] * dx


def mollify(f: SpinorField, epsilon: float, kernel: str = "bump") -> SpinorField:
    """Smooth the sampled datum f by unit-mass convolution at radius
    epsilon; the result is the t = 0 field on f's grid.

    The convolution is performed on the lattice; smoothing never increases
    the charge (discrete Young inequality), up to rounding.
    """
    if kernel not in KERNELS:
        raise UsageError(f"unknown mollifier kernel {kernel!r}")
    grid = f.grid
    w = _kernel_taps(epsilon, grid.dx, kernel)
    periodic = grid.boundary == "periodic"
    with np.errstate(over="ignore", invalid="ignore"):  # a huge datum overflows: refused below
        u, v = _convolve(f.u, w, periodic, grid.dx), _convolve(f.v, w, periodic, grid.dx)
    try:
        return SpinorField(grid, 0.0, u, v)
    except ConfigurationError:
        raise ConfigurationError(
            f"the {kernel} mollifier at radius {epsilon} overflows on this datum"
        ) from None


# ---------------------------------------------------------------------------
# Convergence and uniqueness measurements


def _ladder(epsilons: Sequence[float]) -> tuple[float, ...]:
    """The smoothing radii as floats, refused unless positive and
    nonincreasing (equal consecutive radii compare identical runs)."""
    eps = tuple(float(e) for e in epsilons)
    if any(e <= 0 for e in eps) or any(b > a for a, b in zip(eps, eps[1:])):
        raise UsageError("epsilons must be nonincreasing and positive")
    return eps


@dataclass(frozen=True)
class ConvergenceTable:
    """Distances across a ladder of smoothing radii.

    mode 'consecutive': row j compares levels (eps_j, eps_{j+1}) of one
    family; mode 'cross': row j compares the two kernel families at eps_j.
    pair_distances hold the max-in-time field distances, product_distances
    the space-time distances of the pointwise products u v.
    """

    epsilons: tuple[float, ...]
    pair_distances: tuple[float, ...]
    product_distances: tuple[float, ...]
    mode: str = "consecutive"

    def __post_init__(self):
        _ladder(self.epsilons)
        if any(d < 0 for d in self.pair_distances + self.product_distances):
            raise UsageError("distances must be nonnegative")


class _PairDistance:
    """Distances between two lockstep runs, fed one level of each at a time:
    the max-in-time L2 field distance and the space-time L2 distance of the
    pointwise products u v, trapezoid in time (a level's weight is known
    once the next level arrives, so the latest row waits).

    Each level's terms are written in one kernels.level_terms pass in
    distance mode and summed with np.add.reduce, the order of np.sum, so
    the field distance equals l2_distance bit for bit."""

    def __init__(self):
        self.terms = None
        self.field = None
        self.total = 0.0
        self.levels = 0
        self.last = None

    def feed(self, a: SpinorField, b: SpinorField):
        grid = a.grid
        if self.terms is None:
            self.terms = kernels.LevelTerms(grid.n_points, 2, grid.dx, distance=True)
        kernels.level_terms(self.terms, [(a.u, a.v), (b.u, b.v)], 0, grid.n_points, 0, None)
        d = float(np.sqrt(np.add.reduce(self.terms.l1) * grid.dx))
        self.field = d if self.field is None else max(self.field, d)
        if self.last is not None:
            w = 0.5 if self.levels == 1 else 1.0
            self.total += w * self.last * grid.dt
        self.last = float(np.add.reduce(self.terms.p1)) * grid.dx
        self.levels += 1
        self.dt = grid.dt

    def product_distance(self) -> float:
        return float(np.sqrt(self.total + 0.5 * self.last * self.dt))


def _lockstep_distances(
    f0s: Sequence[SpinorField], pairs: Sequence[tuple[int, int]], p: ModelParams, T: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Evolve every datum in lockstep; (field, product) distances per run pair."""
    dists = [_PairDistance() for _ in pairs]

    def observe(levels):
        # silent overflow on a huge but finite level: its run blows up at
        # the next step, or the distance carries the inf
        with np.errstate(over="ignore", invalid="ignore"):
            for dist, (i, j) in zip(dists, pairs):
                dist.feed(levels[i], levels[j])

    evolve(f0s, p, SolverConfig(), T, observers=[observe])
    return tuple(d.field for d in dists), tuple(d.product_distance() for d in dists)


def convergence_study(
    datum: InitialDatum,
    epsilons: Sequence[float],
    p: ModelParams,
    grid: GridSpec,
    T: float,
    kernel: str = "bump",
) -> ConvergenceTable:
    """Evolve every smoothing level in lockstep; distances of consecutive levels."""
    eps = _ladder(epsilons)
    f = sample_initial(datum, grid)
    f0s = [mollify(f, e, kernel) for e in eps]
    pair, prod = _lockstep_distances(f0s, [(j, j + 1) for j in range(len(eps) - 1)], p, T)
    return ConvergenceTable(eps, pair, prod, mode="consecutive")


def uniqueness_probe(
    datum: InitialDatum,
    family_a: str,
    family_b: str,
    epsilons: Sequence[float],
    p: ModelParams,
    grid: GridSpec,
    T: float,
) -> ConvergenceTable:
    """Evolve both kernel families at every level in lockstep; cross-family
    distances per level."""
    eps = _ladder(epsilons)
    f = sample_initial(datum, grid)
    f0s = [mollify(f, e, family) for e in eps for family in (family_a, family_b)]
    pair, prod = _lockstep_distances(f0s, [(2 * j, 2 * j + 1) for j in range(len(eps))], p, T)
    return ConvergenceTable(eps, pair, prod, mode="cross")
