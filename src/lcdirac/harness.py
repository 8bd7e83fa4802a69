"""Rough-data machinery: mollification, approximating sequences, Cauchy
measurements, and uniqueness probes.

Rough square-integrable data are smoothed by discrete convolution with a
compactly supported unit-mass kernel; evolving a ladder of smoothing radii
and measuring pairwise distances operationalizes the construction of
strong solutions as limits of classical ones.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import kernels
from ._records import record
from .errors import BlowUpError, ConfigurationError, ResolutionError, UsageError
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
    window = grid.x_max - grid.x_min
    if not epsilon <= window:  # the taps would wrap a periodic grid more than once
        raise ResolutionError(f"mollification radius {epsilon} exceeds the grid window x_max - x_min = {window}")
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


@record
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


class _PairDistances:
    """Distances between pairs of lockstep runs, fed one level of every run
    at a time: per pair, the max-in-time L2 field distance and the
    space-time L2 distance of the pointwise products u v, trapezoid in time
    (a level's weight is known once the next level arrives, so the latest
    row waits); over one level, a zero horizon, the product distance is 0.

    Each level's terms of every pair are summed in one
    kernels.distance_sums pass, which keeps only the sums; they are
    np.add.reduce's, the order of np.sum, on both backends, so each field
    distance equals l2_distance bit for bit. Only the sums are kept, never
    a level."""

    def __init__(self, grid: GridSpec, pairs: Sequence[tuple[int, int]]):
        self.sums = kernels.DistanceSums(grid.n_points, pairs)
        self.dx, self.dt = grid.dx, grid.dt
        self.field = [None] * len(pairs)
        self.total = [0.0] * len(pairs)
        self.last = [None] * len(pairs)
        self.levels = 0

    def __call__(self, levels):
        sums = kernels.distance_sums(self.sums, [(f.u, f.v) for f in levels])
        dx, dt, w = self.dx, self.dt, 0.5 if self.levels == 1 else 1.0
        field, total, last = self.field, self.total, self.last
        for k in range(len(field)):
            d = math.sqrt(sums[2 * k] * dx)
            field[k] = d if field[k] is None else max(field[k], d)
            if last[k] is not None:
                total[k] += w * last[k] * dt
            last[k] = sums[2 * k + 1] * dx
        self.levels += 1

    def product_distances(self) -> tuple[float, ...]:
        if self.levels == 1:
            return (0.0,) * len(self.last)
        return tuple(float(np.sqrt(total + 0.5 * last * self.dt)) for total, last in zip(self.total, self.last))


def _mollified(
    datum: InitialDatum, grid: GridSpec, eps: Sequence[float], families: Sequence[str]
) -> list[SpinorField]:
    """The datum sampled once and mollified at each radius by each family in
    turn; the sample is not kept past this call, so the runs start without it.
    The widest radius, eps[0], is checked against the grid window before the
    sampling, as mollify checks it."""
    window = grid.x_max - grid.x_min
    if not eps[0] <= window:
        raise ResolutionError(f"mollification radius {eps[0]} exceeds the grid window x_max - x_min = {window}")
    f = sample_initial(datum, grid)
    return [mollify(f, e, family) for e in eps for family in families]


def _lockstep_distances(
    f0s: Sequence[SpinorField], pairs: Sequence[tuple[int, int]], p: ModelParams, T: float,
    labels: Sequence[str],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Evolve every datum in lockstep; (field, product) distances per run
    pair. A blow-up is named by labels[run], the run that blew up."""
    dists = _PairDistances(f0s[0].grid, pairs)
    try:
        evolve(f0s, p, SolverConfig(), T, observers=[dists])
    except BlowUpError as exc:
        exc.label = labels[exc.run]
        raise
    return tuple(dists.field), dists.product_distances()


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
    f0s = _mollified(datum, grid, eps, [kernel])
    labels = [f"the run mollified at radius {e!r}" for e in eps]
    pair, prod = _lockstep_distances(f0s, [(j, j + 1) for j in range(len(eps) - 1)], p, T, labels)
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
    f0s = _mollified(datum, grid, eps, [family_a, family_b])
    labels = [f"the run mollified by {family} at radius {e!r}" for e in eps for family in (family_a, family_b)]
    pair, prod = _lockstep_distances(f0s, [(2 * j, 2 * j + 1) for j in range(len(eps))], p, T, labels)
    return ConvergenceTable(eps, pair, prod, mode="cross")
