"""Time stepping on the light-cone lattice, residual evaluation, and oracles.

One step couples exact characteristic transport (dt = dx moves every sample
one cell) with an explicit-midpoint source update whose stage values are
paired across neighbor sites so each stage sits at the midpoint of the
characteristic segment it integrates. The pairing is what makes the scheme
second order for spatially varying fields; transport itself contributes no
error at all.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import kernels
from ._records import record
from .errors import BlowUpError, ConfigurationError, FrequencyDomainError, UsageError
from .fields import GridSpec, SpinorField
from .model import ModelParams, eval_nonlinearity

Forcing = Callable[[np.ndarray, float], np.ndarray]
# Called with the lockstep runs' levels at one time; see evolve for how long
# they stay valid.
Observer = Callable[[tuple], None]


@record
class SolverConfig:
    forcing: Optional[tuple[Forcing, Forcing]] = None
    record_every: int = 1

    def __post_init__(self):
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")


def _forcing(forcing: tuple[Forcing, Forcing], x: np.ndarray, t: float, h: float):
    """The four forcing samples of a step from t: F1 and F2 at (x_i, t), F1
    at (x_i - h/2, t + h/2) and F2 at (x_i + h/2, t + h/2)."""
    F1, F2 = forcing
    t_half = t + 0.5 * h
    return F1(x, t), F2(x, t), F1(x - 0.5 * h, t_half), F2(x + 0.5 * h, t_half)


def step(f: SpinorField, p: ModelParams, cfg: SolverConfig) -> SpinorField:
    """Advance one light-cone step; returns the field at t + dt."""
    grid = f.grid
    h = grid.dt
    forcing = None if cfg.forcing is None else _forcing(cfg.forcing, grid.sites(), f.t, h)
    u_new, v_new, bad = kernels.step_unforced(
        f.u, f.v, h, p.m, p.alpha, p.beta, grid.boundary == "periodic", forcing=forcing
    )
    t_new = f.t + h
    if bad >= 0:  # the kernel's verdict is the level's only finiteness check
        raise BlowUpError(t_new, bad, grid.x_min + bad * grid.dx)
    return SpinorField._evolved(grid, t_new, u_new, v_new)


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

    f0 is one field or, with observers, a sequence of fields on one grid at
    one time, advanced in lockstep. Each observer is called with the tuple
    of the runs' levels at t=0, after every record_every-th step and after
    the final step; the result is the list of the runs' final levels. The
    first step that gives a non-finite level stops every run, before any
    observer sees that level: its BlowUpError is raised with ``run`` set to
    the index of the first run that blew up.

    The runs are stepped together in one ``kernels.LevelPool``: runs + 1
    level pairs, two generations one pair apart. The t=0 fields are copied
    into the first generation, which finds each run's extent (the sites
    outside which it is all +0.0), and each step is one
    ``kernels.step_unforced(u, v, ..., out=pool)`` call on one generation's
    (runs, n) u and v, which writes the runs' new levels into the other,
    over the levels it has read, computing on ``compiled`` only each run's
    extent widened by its light cone (a wrapped step that returns arrays of
    its own has them copied there, extents found anew). So an observer gets read-only levels that
    are valid only during its call: whatever it keeps past the call must be
    numbers or copies. The t=0 fields are never written (observers get
    those objects themselves), and the final levels stay valid once evolve
    returns.

    Without observers, f0 is one field and the result is the list of the
    levels an observer would see, each level after t=0 a copy; a blow-up
    carries them as ``partial``.

    T must be a nonnegative integer multiple of dt up to 1e-12 relative;
    otherwise it is rounded down and the shortfall logged (horizon_steps)
    once the t=0 observers return, so a run they refuse logs nothing.
    """
    if T < 0:
        raise UsageError(f"horizon must be nonnegative, got {T}")
    levels = [f0] if isinstance(f0, SpinorField) else list(f0)
    if not levels or observers is None and len(levels) > 1:
        raise UsageError("evolve needs one field, or observers for several")
    grid, t = levels[0].grid, levels[0].t
    if any(f.grid != grid or f.t != t for f in levels):
        raise UsageError("lockstep runs need one grid and one start time")
    n, exact = horizon_steps(T, grid.dt)
    recorded = None
    if observers is None:
        recorded, first = [], levels[0]
        observers = [lambda lv: recorded.append(lv[0] if lv[0] is first else _copied(lv[0]))]
    for observe in observers:
        observe(tuple(levels))
    if not exact:  # once the t=0 observers, which may refuse the run, accept it
        import logging  # only here: the warning is all lcdirac logs, and logging costs milliseconds to import

        logging.getLogger(__name__).warning("horizon %s is not a step multiple; evolving to %s", T, n * grid.dt)
    if n == 0:
        return levels if recorded is None else recorded
    h, sites = grid.dt, grid.n_points
    args = (h, p.m, p.alpha, p.beta, grid.boundary == "periodic")
    x = None if cfg.forcing is None else grid.sites()
    with kernels.LevelPool(len(levels), sites) as pool:
        pool.load((f.u, f.v) for f in levels)
        for k in range(1, n + 1):
            new = k % 2
            forcing = None if x is None else _forcing(cfg.forcing, x, t, h)
            u, v, bad = kernels.step_unforced(pool.u[1 - new], pool.v[1 - new], *args, forcing=forcing, out=pool)
            t = t + h
            if bad >= 0:  # the kernel's verdict is the level's only finiteness check
                run, site = divmod(bad, sites)
                exc = BlowUpError(t, site, grid.x_min + site * grid.dx)
                exc.run = run
                if recorded is not None:
                    exc.partial = recorded
                raise exc
            if u is not pool.u[new]:  # a wrapped step that returned a level of its own: step on from it
                pool.load(zip(u, v), new)
            if k % cfg.record_every == 0 or k == n:
                levels = [SpinorField._evolved(grid, t, a, b) for a, b in pool.rows[new]]
                for observe in observers:
                    observe(tuple(levels))
    return levels if recorded is None else recorded


def _copied(f: SpinorField) -> SpinorField:
    return SpinorField._evolved(f.grid, f.t, f.u.copy(), f.v.copy())


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


@record
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


def _standing_profile(x: np.ndarray, m: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form standing-wave profile (U, V) at t = 0; the wave is
    e^{-i omega t} (U, V).

    Substituting e^{-i omega t} (U, V) into the alpha = 1, beta = 0 system
    i(u_t + u_x) + m v = |v|^2 u, i(v_t - v_x) + m u = |u|^2 v gives the
    stationary system

        omega U + i U' + m V = |V|^2 U,    omega V - i V' + m U = |U|^2 V.

    With U = i a e^{ig/2} and V = i a e^{-ig/2} (so V = -conj(U)), both
    equations reduce to a' = m a sin g and g' = 2(omega + m cos g - a^2).
    Their first integral a^2 (omega + m cos g - a^2 / 2) is zero on the
    orbit that decays at both ends, so a^2 = 2(omega + m cos g) and
    g' = -2(omega + m cos g). With cos(gam) = omega / m, g falls from
    pi - gam at -inf to gam - pi at +inf, and a^2 peaks at 2(m + omega).

    Only these signs solve the system. A time phase e^{+i omega t} turns
    omega into -omega in both equations, off the orbit above. A mirrored
    phase g -> -g swaps U and V, which is the profile reflected in x: it
    solves the system whose transport terms have the other sign, and
    a' = m a sin g fails on it.
    """
    gam = np.arccos(omega / m)
    w = m * np.sin(gam) * x
    amp2 = 2.0 * np.sin(gam) ** 2 / (np.cosh(2.0 * w) - np.cos(gam))
    g = -2.0 * np.arctan(np.tan(0.5 * (np.pi - gam)) * np.tanh(w))
    amp = np.sqrt(m) * np.sqrt(amp2)
    u = 1j * amp * np.exp(0.5j * g)
    v = 1j * amp * np.exp(-0.5j * g)
    return u, v


def _standing_wave(f0: SpinorField, omega: float, t: float) -> SpinorField:
    """The standing wave through f0 (at t = 0) at time t: e^{-i omega t} f0."""
    ph = np.exp(-1j * omega * t)
    return SpinorField(f0.grid, t, ph * f0.u, ph * f0.v)


@record
class SolitonOracle:
    """Checked standing-wave solution, or the record of why the check failed.

    residuals are the discrete residuals on the three trial grids, coarse to
    fine; residual_orders their two refinement orders.
    """

    available: bool
    m: float
    frequency: float
    grid: GridSpec
    residuals: tuple
    residual_orders: tuple
    field: Optional[SpinorField] = None

    def at(self, t: float) -> SpinorField:
        if not self.available:
            raise UsageError("standing-wave oracle unavailable; use a manufactured solution")
        return _standing_wave(self.field, self.frequency, t)


def thirring_soliton(m: float, frequency: float, grid: GridSpec) -> SolitonOracle:
    """Standing-wave solution for alpha = 1, beta = 0, checked on the lattice.

    The discrete residual of the wave (_standing_profile) over grid's window
    must shrink at second order from 256 to 512 to 1024 sites; if it does,
    the profile is sampled onto grid, otherwise the oracle reports
    unavailable. The residual order is what fails when the window does not
    resolve the wave, or when the profile's signs are wrong.
    """
    if not (0.0 < frequency < m):
        raise FrequencyDomainError(f"frequency must lie in (0, m) = (0, {m}), got {frequency}")

    horizon_cells = 16  # T = window / 16 at every trial resolution
    min_order = 1.8  # smallest residual order under refinement that accepts the profile
    sizes = (256, 512, 1024)
    if not (grid.x_max - grid.x_min) / sizes[-1] > 0.0:
        raise ConfigurationError(
            f"soliton window [{grid.x_min}, {grid.x_max}] is too narrow for the trial grids of "
            f"{sizes[0]} to {sizes[-1]} sites: (x_max - x_min) / {sizes[-1]} rounds to 0"
        )
    grids = [GridSpec(grid.x_min, grid.x_max, n, "zero_inflow") for n in sizes]
    residuals = []
    # A window the trial grids cannot resolve overflows here; its residuals
    # come out non-finite or zero, so an order is NaN or infinite, and the
    # order check refuses both.
    with np.errstate(all="ignore"):
        for g in grids:
            f0 = SpinorField(g, 0.0, *_standing_profile(g.sites(), m, frequency))
            ru, rv = pde_residual(lambda t, f0=f0: _standing_wave(f0, frequency, t),
                                  ModelParams(m, 1.0, 0.0), g, (g.x_max - g.x_min) / horizon_cells)
            residuals.append(np.hypot(ru, rv))
        orders = tuple(float(np.log2(residuals[i] / residuals[i + 1])) for i in range(2))
        available = all(min_order <= o < np.inf for o in orders)
        field = SpinorField(grid, 0.0, *_standing_profile(grid.sites(), m, frequency)) if available else None
    return SolitonOracle(available, m, frequency, grid, tuple(residuals), orders, field)
