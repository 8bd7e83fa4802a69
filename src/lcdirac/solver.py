"""Time stepping on the light-cone lattice, residual evaluation, and oracles.

One step couples exact characteristic transport (dt = dx moves every sample
one cell) with an explicit-midpoint source update whose stage values are
paired across neighbor sites so each stage sits at the midpoint of the
characteristic segment it integrates. The pairing is what makes the scheme
second order for spatially varying fields; transport itself contributes no
error at all.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .errors import BlowUpError, ConfigurationError, FrequencyDomainError, UsageError
from .fields import GridSpec, SpinorField
from .model import ModelParams, eval_nonlinearity

log = logging.getLogger(__name__)

Forcing = Callable[[np.ndarray, float], np.ndarray]
# Called with the lockstep runs' levels at one time.
Observer = Callable[[tuple], None]


@dataclass(frozen=True)
class SolverConfig:
    forcing: Optional[tuple[Forcing, Forcing]] = None
    record_every: int = 1

    def __post_init__(self):
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")


def _blow_up(u: np.ndarray, v: np.ndarray, grid: GridSpec, t: float) -> BlowUpError:
    """The error naming the first site of a level with a non-finite value."""
    bad = ~(np.isfinite(u.real) & np.isfinite(u.imag) & np.isfinite(v.real) & np.isfinite(v.imag))
    site = int(np.argmax(bad))
    return BlowUpError(t, site, grid.x_min + site * grid.dx, partial=None)


def step(f: SpinorField, p: ModelParams, cfg: SolverConfig) -> SpinorField:
    """Advance one light-cone step; returns the field at t + dt."""
    grid = f.grid
    h = grid.dt
    forcing = None
    if cfg.forcing is not None:
        F1, F2 = cfg.forcing
        x = grid.sites()
        t_half = f.t + 0.5 * h
        forcing = (F1(x, f.t), F2(x, f.t), F1(x - 0.5 * h, t_half), F2(x + 0.5 * h, t_half))
    u_new, v_new = kernels.step_unforced(
        f.u, f.v, h, p.m, p.alpha, p.beta, grid.boundary == "periodic", forcing=forcing
    )
    t_new = f.t + h
    try:  # the constructor's finiteness check is the level's only scan
        return SpinorField(grid, t_new, u_new, v_new)
    except ConfigurationError:
        raise _blow_up(u_new, v_new, grid, t_new) from None


def horizon_steps(T: float, dt: float) -> tuple[int, bool]:
    """The number of steps evolve takes to horizon T, and whether T is a
    step multiple: T / dt rounded when it is within 1e-12 relative of an
    integer, otherwise rounded down."""
    ratio = T / dt
    n = round(ratio)
    if abs(ratio - n) <= 1e-12 * max(1.0, abs(ratio)):
        return n, True
    return int(np.floor(ratio)), False


def evolve(
    f0: Union[SpinorField, Sequence[SpinorField]],
    p: ModelParams,
    cfg: SolverConfig,
    T: float,
    observers: Optional[Sequence[Observer]] = None,
) -> list[SpinorField]:
    """Iterate step up to horizon T.

    f0 is one field or, with observers, a sequence of fields on one grid,
    advanced in lockstep. Each observer is called with the tuple of the
    runs' levels at t=0, after every record_every-th step and after the
    final step; no level is kept beyond the current one, and the result is
    the list of the runs' final levels. The first step that gives a
    non-finite level stops every run: its BlowUpError is raised with
    ``run`` set to the index of the run that blew up.

    Without observers, f0 is one field and the result is the list of the
    levels an observer would see; a blow-up carries them as ``partial``.

    T must be a nonnegative integer multiple of dt up to 1e-12 relative;
    otherwise it is rounded down and the shortfall logged (horizon_steps).
    """
    if T < 0:
        raise UsageError(f"horizon must be nonnegative, got {T}")
    levels = [f0] if isinstance(f0, SpinorField) else list(f0)
    if not levels or observers is None and len(levels) > 1:
        raise UsageError("evolve needs one field, or observers for several")
    grid = levels[0].grid
    if any(f.grid != grid for f in levels):
        raise UsageError("lockstep runs need one grid")
    n, exact = horizon_steps(T, grid.dt)
    if not exact:
        log.warning("horizon %s is not a step multiple; evolving to %s", T, n * grid.dt)

    recorded = None
    if observers is None:
        recorded = []
        observers = [lambda lv: recorded.append(lv[0])]
    for k in range(n + 1):
        if k > 0:
            for j, f in enumerate(levels):
                try:
                    levels[j] = step(f, p, cfg)
                except BlowUpError as exc:
                    exc.run = j
                    if recorded is not None:
                        exc.partial = recorded
                    raise
        if k % cfg.record_every == 0 or k == n:
            for observe in observers:
                observe(tuple(levels))
    return levels if recorded is None else recorded


# ---------------------------------------------------------------------------
# Discrete residual of the first-order system


def pde_residual(candidate, p: ModelParams, grid: GridSpec, T: float) -> tuple[float, float]:
    """Space-time L2 norms of the discrete equation defects.

    The transport derivatives are centered differences along the two
    characteristic directions; candidate is either a list of every-step
    snapshots covering [0, T] or a callable t -> SpinorField.
    """
    dt = grid.dt
    K = round(T / dt)
    if K < 2:
        raise UsageError("need at least two steps for a centered residual")
    if callable(candidate):
        snaps = [candidate(k * dt) for k in range(K + 1)]
    else:
        snaps = list(candidate)
        if len(snaps) < K + 1:
            raise UsageError("candidate does not cover the requested horizon at every step")
    U = np.stack([s.u for s in snaps[: K + 1]])
    V = np.stack([s.v for s in snaps[: K + 1]])

    periodic = grid.boundary == "periodic"
    # centered along x - t = const: (u[k+1, i+1] - u[k-1, i-1]) / (2h)
    if periodic:
        du = (np.roll(U[2:], -1, axis=1) - np.roll(U[:-2], 1, axis=1)) / (2 * dt)
        dv = (np.roll(V[2:], 1, axis=1) - np.roll(V[:-2], -1, axis=1)) / (2 * dt)
        cols = slice(None)
    else:
        du = (U[2:, 2:] - U[:-2, :-2]) / (2 * dt)
        dv = (V[2:, :-2] - V[:-2, 2:]) / (2 * dt)
        cols = slice(1, -1)
    _, n1, n2 = eval_nonlinearity(U[1:-1, cols], V[1:-1, cols], p)
    res_u = 1j * du + p.m * V[1:-1, cols] - n1
    res_v = 1j * dv + p.m * U[1:-1, cols] - n2
    w = grid.dx * dt
    ru = float(np.sqrt(np.sum(res_u.real**2 + res_u.imag**2) * w))
    rv = float(np.sqrt(np.sum(res_v.real**2 + res_v.imag**2) * w))
    return ru, rv


# ---------------------------------------------------------------------------
# Manufactured solutions


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form two-mode pair with the forcing that makes it exact."""

    u_exact: Callable[[np.ndarray, float], np.ndarray]
    v_exact: Callable[[np.ndarray, float], np.ndarray]
    forcing: tuple[Forcing, Forcing]

    def initial(self, grid: GridSpec) -> SpinorField:
        x = grid.sites()
        return SpinorField(grid, 0.0, self.u_exact(x, 0.0), self.v_exact(x, 0.0))

    def at(self, grid: GridSpec, t: float) -> SpinorField:
        x = grid.sites()
        return SpinorField(grid, t, self.u_exact(x, t), self.v_exact(x, t))


def manufactured_case(p: ModelParams, length: float) -> ManufacturedCase:
    """Two plane-wave modes per component, periodic over the given length."""
    k1 = 2.0 * np.pi / length
    k2 = -4.0 * np.pi / length
    s1, s2 = 1.3, 0.7
    mu = ((0.8, k1, s1), (0.3, k2, s2))
    mv = ((0.5, k2, s1), (0.25, k1, -s2))

    def u_exact(x, t):
        return sum(a * np.exp(1j * (kk * x + ss * t)) for a, kk, ss in mu)

    def v_exact(x, t):
        return sum(a * np.exp(1j * (kk * x + ss * t)) for a, kk, ss in mv)

    def du_char(x, t):  # u_t + u_x
        return sum(a * 1j * (ss + kk) * np.exp(1j * (kk * x + ss * t)) for a, kk, ss in mu)

    def dv_char(x, t):  # v_t - v_x
        return sum(a * 1j * (ss - kk) * np.exp(1j * (kk * x + ss * t)) for a, kk, ss in mv)

    def F1(x, t):
        us, vs = u_exact(x, t), v_exact(x, t)
        _, n1, _ = eval_nonlinearity(us, vs, p)
        return -1j * du_char(x, t) - p.m * vs + n1

    def F2(x, t):
        us, vs = u_exact(x, t), v_exact(x, t)
        _, _, n2 = eval_nonlinearity(us, vs, p)
        return -1j * dv_char(x, t) - p.m * us + n2

    return ManufacturedCase(u_exact, v_exact, (F1, F2))


# ---------------------------------------------------------------------------
# Standing-wave oracle for the alpha = 1, beta = 0 model


def _standing_profile(x: np.ndarray, m: float, omega: float, flip: bool) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form standing-wave profile (u, v) at t = 0.

    Derived by reducing the stationary system with v = -conj(u) to the phase
    ODE g' = -2(omega/m + cos g) / ... on the scaled coordinate; flip mirrors
    the internal phase (one of the trial sign variants).
    """
    gam = np.arccos(omega / m)
    w = m * np.sin(gam) * x
    amp2 = 2.0 * np.sin(gam) ** 2 / (np.cosh(2.0 * w) - np.cos(gam))
    g = -2.0 * np.arctan(np.tan(0.5 * (np.pi - gam)) * np.tanh(w))
    if flip:
        g = -g
    amp = np.sqrt(m) * np.sqrt(amp2)
    u = 1j * amp * np.exp(0.5j * g)
    v = 1j * amp * np.exp(-0.5j * g)
    return u, v


@dataclass(frozen=True)
class SolitonOracle:
    """Validated standing-wave solution, or the record of why none passed."""

    available: bool
    m: float
    frequency: float
    grid: GridSpec
    variant: Optional[tuple[bool, int]] = None
    residual_orders: tuple = ()
    trials: tuple = ()
    field: Optional[SpinorField] = None

    def at(self, t: float) -> SpinorField:
        if not self.available:
            raise UsageError("standing-wave oracle unavailable; use a manufactured solution")
        flip, phase_sign = self.variant
        u0, v0 = _standing_profile(self.grid.sites(), self.m, self.frequency, flip)
        ph = np.exp(1j * phase_sign * self.frequency * t)
        return SpinorField(self.grid, t, ph * u0, ph * v0)


def thirring_soliton(m: float, frequency: float, grid: GridSpec, min_order: float = 1.8) -> SolitonOracle:
    """Standing-wave profile for alpha = 1, beta = 0, validated empirically.

    Four sign variants of the ansatz (internal phase mirror x time-phase
    direction) are screened by requiring the discrete residual to shrink at
    second order under refinement; the first variant that passes is sampled
    onto the requested grid. If none passes, the oracle reports unavailable.
    """
    if not (0.0 < frequency < m):
        raise FrequencyDomainError(f"frequency must lie in (0, m) = (0, {m}), got {frequency}")

    variants = [(False, -1), (True, -1), (False, +1), (True, +1)]
    base_n = 256
    horizon_cells = 16  # T = window / 16 at every trial resolution
    trials = []
    for variant in variants:
        flip, phase_sign = variant
        residuals = []
        for mult in (1, 2, 4):
            n = base_n * mult
            g = GridSpec(grid.x_min, grid.x_max, n, "zero_inflow")
            T = (g.x_max - g.x_min) / horizon_cells
            x = g.sites()
            u0, v0 = _standing_profile(x, m, frequency, flip)

            def provider(t, g=g, u0=u0, v0=v0):
                ph = np.exp(1j * phase_sign * frequency * t)
                return SpinorField(g, t, ph * u0, ph * v0)

            ru, rv = pde_residual(provider, ModelParams(m, 1.0, 0.0), g, T)
            residuals.append(np.hypot(ru, rv))
        orders = tuple(
            float(np.log2(residuals[i] / residuals[i + 1])) for i in range(len(residuals) - 1)
        )
        trials.append((variant, tuple(residuals), orders))
        if all(o >= min_order for o in orders):
            x = grid.sites()
            u0, v0 = _standing_profile(x, m, frequency, flip)
            return SolitonOracle(
                available=True,
                m=m,
                frequency=frequency,
                grid=grid,
                variant=variant,
                residual_orders=orders,
                trials=tuple(trials),
                field=SpinorField(grid, 0.0, u0, v0),
            )
    return SolitonOracle(
        available=False, m=m, frequency=frequency, grid=grid, trials=tuple(trials)
    )
