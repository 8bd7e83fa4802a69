"""Rough-data machinery: mollification, approximating sequences, Cauchy
measurements, uniqueness probes, and the cone/grid decomposition planner.

Rough square-integrable data are smoothed by discrete convolution with a
compactly supported unit-mass kernel; evolving a ladder of smoothing radii
and measuring pairwise distances operationalizes the construction of
strong solutions as limits of classical ones.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PlanningError, ResolutionError, UsageError
from .fields import GridSpec, InitialDatum, SpinorField, TriangleDomain, charge, l2_distance, sample_initial
from .model import EstimateConstants, ModelParams
from .solver import SolverConfig, evolve

log = logging.getLogger(__name__)


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


def mollify(
    datum: InitialDatum | SpinorField,
    epsilon: float,
    grid: GridSpec,
    kernel: str = "bump",
) -> SpinorField:
    """Smooth the datum by unit-mass convolution at radius epsilon.

    The convolution is performed on the lattice; smoothing never increases
    the charge (discrete Young inequality), up to rounding.
    """
    if kernel not in KERNELS:
        raise UsageError(f"unknown mollifier kernel {kernel!r}")
    f = datum if isinstance(datum, SpinorField) else sample_initial(datum, grid)
    if f.grid != grid:
        raise UsageError("datum sampled on a different grid")
    w = _kernel_taps(epsilon, grid.dx, kernel)
    periodic = grid.boundary == "periodic"
    return SpinorField(
        grid, 0.0, _convolve(f.u, w, periodic, grid.dx), _convolve(f.v, w, periodic, grid.dx)
    )


# ---------------------------------------------------------------------------
# Cone decomposition planning


@dataclass(frozen=True)
class ConePlan:
    """Tail cutoff, small-interval length, and the induction triangle grid.

    B + 2T = 2 * n_tri * r holds exactly; triangles at level j are the
    domains (m r, (m+4) r) based at time j r footing the induction that
    advances the horizon by r per level.
    """

    B: float
    r: float
    n_tri: int
    T: float
    C0: float
    delta: float
    levels: int
    triangles: tuple[TriangleDomain, ...]


def _tail_charge(f: SpinorField, B: float) -> float:
    x = f.grid.sites()
    dens = f.density()
    return float(np.sum(dens[np.abs(x) > B])) * f.grid.dx


def _max_window_charge(f: SpinorField, lo: float, hi: float, width_cells: int) -> float:
    """Largest charge among sliding windows of width_cells sites within [lo, hi]."""
    x = f.grid.sites()
    dens = f.density() * f.grid.dx
    pre = np.concatenate([[0.0], np.cumsum(dens)])
    n = f.grid.n_points
    starts = np.arange(0, n - width_cells + 1)
    keep = (x[starts] >= lo - 1e-12) & (x[starts] + width_cells * f.grid.dx <= hi + 1e-12)
    starts = starts[keep]
    if len(starts) == 0:
        return 0.0
    return float(np.max(pre[starts + width_cells] - pre[starts]))


def plan_cones(
    limit: SpinorField,
    members: Sequence[SpinorField],
    T: float,
    p: ModelParams,
    k: EstimateConstants,
    C0: Optional[float] = None,
) -> ConePlan:
    """Choose the tail cutoff B and interval length r for the decomposition.

    B is the smallest lattice multiple with tail charge below delta/4 for the
    limit datum and delta/3 for every sequence member; r is the largest value
    with B + 2T = 2 n r (whole cells) whose weighted 4r-interval charges stay
    below delta/8 (limit) and delta/4 (members) across [-B-4T, B+4T].
    """
    grid = limit.grid
    for f in members:
        if f.grid != grid:
            raise UsageError("sequence members live on a different grid")
    dx = grid.dx
    delta = k.delta
    if C0 is None:
        member_charges = [charge(f) for f in members]
        C0 = 1.0 + (max(member_charges) if member_charges else 0.0) + charge(limit)

    # Scan tail cutoffs ascending; for each, look for the largest r of the
    # form B + 2T = 2 n r in whole cells (whole cells keep the triangle
    # corners lattice-aligned and the budget identity exact). The first
    # workable pair keeps B minimal.
    weight = float(np.exp(2.0 * abs(p.beta) * C0 + p.m * T))
    max_b_cells = int(min(-grid.x_min, grid.x_max) / dx)
    tail_seen = False
    chosen = None
    for bc in range(1, max_b_cells + 1):
        B = bc * dx
        if not (
            _tail_charge(limit, B) < delta / 4.0
            and all(_tail_charge(f, B) < delta / 3.0 for f in members)
        ):
            continue
        tail_seen = True
        span_cells = round((B + 2.0 * T) / dx)
        if abs(span_cells * dx - (B + 2.0 * T)) > 1e-9 * dx:
            raise PlanningError(
                "B + 2T is not a whole number of cells; choose a lattice-aligned horizon"
            )
        lo, hi = -B - 4.0 * T, B + 4.0 * T
        for n_tri in range(1, span_cells // 2 + 1):
            if span_cells % (2 * n_tri) != 0:
                continue
            r_cells = span_cells // (2 * n_tri)
            r = r_cells * dx
            win = min(4 * r_cells, grid.n_points)
            ok = weight * (_max_window_charge(limit, lo, hi, win) + p.m * C0 * 4.0 * r) < delta / 8.0
            if ok:
                ok = all(
                    weight * (_max_window_charge(f, lo, hi, win) + p.m * C0 * 4.0 * r) < delta / 4.0
                    for f in members
                )
            if ok:
                chosen = (B, n_tri, r_cells, r)
                break
        if chosen is not None:
            break
    if chosen is None:
        if not tail_seen:
            raise PlanningError(
                "no tail cutoff B inside the grid window meets the tail conditions; "
                "enlarge the window or reduce the data charge"
            )
        raise PlanningError(
            "no interval length r meets the weighted small-interval conditions "
            "(with m > 0 the mass term forces r below the lattice spacing unless "
            "the lattice is fine enough); refine the lattice, enlarge the window, "
            "shorten the horizon, or reduce the data charge"
        )
    B, n_tri, r_cells, r = chosen

    levels = max(1, int(np.ceil(T / r - 1e-12)))
    triangles = []
    for j in range(levels):
        for mm in range(-2 * n_tri + j, 2 * n_tri - 4 - j + 1):
            triangles.append(TriangleDomain(mm * r, (mm + 4) * r, j * r))
    return ConePlan(
        B=B, r=r, n_tri=n_tri, T=T, C0=C0, delta=delta, levels=levels,
        triangles=tuple(triangles),
    )


def verify_plan(
    plan: ConePlan,
    limit: SpinorField,
    members: Sequence[SpinorField],
    p: ModelParams,
) -> bool:
    """Recheck every planning condition by direct summation."""
    if _tail_charge(limit, plan.B) >= plan.delta / 4.0:
        return False
    if any(_tail_charge(f, plan.B) >= plan.delta / 3.0 for f in members):
        return False
    if abs(plan.B + 2.0 * plan.T - 2.0 * plan.n_tri * plan.r) > 1e-9 * limit.grid.dx:
        return False
    weight = float(np.exp(2.0 * abs(p.beta) * plan.C0 + p.m * plan.T))
    lo, hi = -plan.B - 4.0 * plan.T, plan.B + 4.0 * plan.T
    win = min(round(4.0 * plan.r / limit.grid.dx), limit.grid.n_points)
    slack = p.m * plan.C0 * 4.0 * plan.r
    if weight * (_max_window_charge(limit, lo, hi, win) + slack) >= plan.delta / 8.0:
        return False
    return all(
        weight * (_max_window_charge(f, lo, hi, win) + slack) < plan.delta / 4.0
        for f in members
    )


# ---------------------------------------------------------------------------
# Convergence and uniqueness measurements


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
        eps = np.array(self.epsilons)
        # equal consecutive radii are tolerated (they compare identical runs)
        if np.any(eps <= 0) or np.any(np.diff(eps) > 0):
            raise UsageError("epsilons must be nonincreasing and positive")
        if any(d < 0 for d in self.pair_distances + self.product_distances):
            raise UsageError("distances must be nonnegative")


class _PairDistance:
    """Distances between two lockstep runs, fed one level of each at a time:
    the max-in-time L2 field distance and the space-time L2 distance of the
    pointwise products u v, trapezoid in time (a level's weight is known
    once the next level arrives, so the latest row waits)."""

    def __init__(self):
        self.field = None
        self.total = 0.0
        self.levels = 0
        self.last = None

    def feed(self, a: SpinorField, b: SpinorField):
        d = l2_distance(a, b)
        self.field = d if self.field is None else max(self.field, d)
        if self.last is not None:
            w = 0.5 if self.levels == 1 else 1.0
            self.total += w * self.last * a.grid.dt
        prod = a.u * a.v - b.u * b.v
        self.last = float(np.sum(prod.real**2 + prod.imag**2)) * a.grid.dx
        self.levels += 1
        self.dt = a.grid.dt

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
                if levels[i] is not None and levels[j] is not None:
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
    eps = tuple(float(e) for e in epsilons)
    f0s = [mollify(datum, e, grid, kernel) for e in eps]
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
    eps = tuple(float(e) for e in epsilons)
    f0s = [mollify(datum, e, grid, family) for e in eps for family in (family_a, family_b)]
    pair, prod = _lockstep_distances(f0s, [(2 * j, 2 * j + 1) for j in range(len(eps))], p, T)
    return ConvergenceTable(eps, pair, prod, mode="cross")


# ---------------------------------------------------------------------------
# Ensemble data


def random_bump_profile(
    rng: np.random.Generator,
    support: tuple[float, float],
    n_bumps: int = 3,
) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form random superposition of complex Gaussian bumps.

    Grid independent, so the same profile can be sampled across refinement
    levels; centers stay inside the support so the data are effectively
    compact.
    """
    lo, hi = support
    pad = 0.15 * (hi - lo)
    terms = [
        (
            rng.normal() + 1j * rng.normal(),
            rng.uniform(lo + pad, hi - pad),
            rng.uniform(0.25, 0.6) * (hi - lo) / 4.0,
        )
        for _ in range(n_bumps)
    ]

    def profile(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=np.complex128)
        for amp, c, w in terms:
            out += amp * np.exp(-(((x - c) / w) ** 2))
        return out

    return profile


def datum_from_profiles(
    pu: Callable[[np.ndarray], np.ndarray],
    pv: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    target_charge: Optional[float] = None,
    reference_n: int = 4096,
) -> InitialDatum:
    """Sample two closed-form profiles onto the grid, optionally rescaled.

    The charge normalization is computed on a fixed fine reference lattice
    so the scale does not change under grid refinement.
    """
    from .fields import ComponentSpec

    scale = 1.0
    if target_charge is not None:
        ref = GridSpec(grid.x_min, grid.x_max, reference_n, grid.boundary)
        xr = ref.sites()
        total = float(np.sum(np.abs(pu(xr)) ** 2 + np.abs(pv(xr)) ** 2)) * ref.dx
        scale = np.sqrt(target_charge / total) if total > 0 else 0.0
    x = grid.sites()
    return InitialDatum(
        ComponentSpec("sampled", values=pu(x) * scale),
        ComponentSpec("sampled", values=pv(x) * scale),
    )


def random_smooth_datum(
    rng: np.random.Generator,
    grid: GridSpec,
    target_charge: float,
    support: tuple[float, float],
    n_bumps: int = 3,
) -> InitialDatum:
    """Random compact smooth datum with the given charge; ensemble helper."""
    pu = random_bump_profile(rng, support, n_bumps)
    pv = random_bump_profile(rng, support, n_bumps)
    return datum_from_profiles(pu, pv, grid, target_charge, reference_n=grid.n_points)
