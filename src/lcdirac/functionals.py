"""Cone-restricted functionals of fields and the inequality audits.

Over a cross-section I(t) of a triangle domain (or the full line):

    L0 = sum (|u|^2 + |v|^2) dx          (charge level)
    D0 = sum |u|^2 |v|^2 dx              (interaction dissipation)
    Q0 = sum_{x<y} |u(x)|^2 |v(y)|^2 dx^2    (ordered interaction potential)

and for a pair of fields, with U = uA - uB, V = vA - vB:

    L1 = sum (|U|^2 + |V|^2) dx
    D1 = sum r2(x, x) dx
    Q1 = sum_{x<y} r2(x, y) dx^2

Q0/Q1 are evaluated in O(N) by suffix scans; a direct O(N^2) mode is kept
as an oracle. Each audit verifies a continuum inequality (or, for the
total charge, a conservation law) on the discrete solution within a
resolution-dependent budget.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import PreconditionError, UsageError
from .fields import SpinorField, TriangleDomain, charge
from .model import EstimateConstants, ModelParams
from .reports import AuditReport, tolerance_budget

log = logging.getLogger(__name__)

__all__ = [
    "AuditPass",
    "AuditReport",
    "FunctionalTrace",
    "base_functionals",
    "difference_functionals",
    "trace_base",
    "trace_pair",
    "total_charge_audit",
    "triangle_charge_audit",
    "pointwise_audit",
    "bony_decay_audit",
    "gronwall_audit",
]


def _section(f: SpinorField, dom: Optional[TriangleDomain]) -> tuple[int, int]:
    if dom is None:
        return 0, f.grid.n_points
    i0, i1 = dom.section_indices(f.grid, f.t)
    if i0 >= i1:
        log.debug("degenerate cross-section at t=%s", f.t)
    return i0, i1


def base_functionals(
    f: SpinorField, dom: Optional[TriangleDomain] = None, naive: bool = False
) -> tuple[float, float, float]:
    """(L0, D0, Q0) over the cross-section of dom at f.t, or the full line."""
    i0, i1 = _section(f, dom)
    if i0 >= i1:
        return 0.0, 0.0, 0.0
    u = f.u[i0:i1]
    v = f.v[i0:i1]
    au2 = u.real**2 + u.imag**2
    av2 = v.real**2 + v.imag**2
    dx = f.grid.dx
    L0 = float(np.sum(au2 + av2)) * dx
    D0 = float(np.sum(au2 * av2)) * dx
    q = kernels.q_upper_naive(au2, av2) if naive else kernels.q_upper(au2, av2)
    return L0, D0, q * dx * dx


def difference_functionals(
    fA: SpinorField,
    fB: SpinorField,
    dom: Optional[TriangleDomain],
    k: EstimateConstants,
    naive: bool = False,
) -> tuple[float, float, float]:
    """(L1, D1, Q1) for the pair over the cross-section."""
    if fA.grid != fB.grid or fA.t != fB.t:
        raise UsageError("pair functionals need matching grids and times")
    i0, i1 = _section(fA, dom)
    if i0 >= i1:
        return 0.0, 0.0, 0.0
    U = fA.u[i0:i1] - fB.u[i0:i1]
    V = fA.v[i0:i1] - fB.v[i0:i1]
    aU2 = U.real**2 + U.imag**2
    aV2 = V.real**2 + V.imag**2
    vmod = (fA.v[i0:i1].real**2 + fA.v[i0:i1].imag**2) + (fB.v[i0:i1].real**2 + fB.v[i0:i1].imag**2)
    umod = (fA.u[i0:i1].real**2 + fA.u[i0:i1].imag**2) + (fB.u[i0:i1].real**2 + fB.u[i0:i1].imag**2)
    dx = fA.grid.dx
    L1 = float(np.sum(aU2 + aV2)) * dx
    D1 = float(np.sum(aU2 * vmod + umod * aV2)) * dx
    qfn = kernels.q_upper_naive if naive else kernels.q_upper
    Q1 = (qfn(aU2, vmod) + qfn(umod, aV2)) * dx * dx
    return L1, D1, Q1


def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if len(values) > 1:
        out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
    return out


@dataclass(frozen=True)
class FunctionalTrace:
    """Time series of the cone functionals with running time integrals.

    The charge and max-modulus columns are filled by trace_base and
    trace_pair; the audits' traces leave them out.
    """

    times: np.ndarray
    L0: np.ndarray
    D0: np.ndarray
    Q0: np.ndarray
    cumD0: np.ndarray
    charge: Optional[np.ndarray] = None
    max_abs_u: Optional[np.ndarray] = None
    max_abs_v: Optional[np.ndarray] = None
    domain: Optional[TriangleDomain] = None
    L1: Optional[np.ndarray] = None
    D1: Optional[np.ndarray] = None
    Q1: Optional[np.ndarray] = None
    cumD1: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.times)
        for name in ("L0", "D0", "Q0", "cumD0", "charge", "max_abs_u", "max_abs_v", "L1", "D1", "Q1", "cumD1"):
            arr = getattr(self, name)
            if arr is None:
                continue
            if len(arr) != n:
                raise UsageError(f"trace column {name} has length {len(arr)}, expected {n}")
            if np.any(arr < 0):
                raise UsageError(f"trace column {name} has negative entries")

    @property
    def has_pair(self) -> bool:
        return self.L1 is not None


def trace_base(snapshots: Sequence[SpinorField], dom: Optional[TriangleDomain] = None) -> FunctionalTrace:
    times = np.array([s.t for s in snapshots])
    rows = [base_functionals(s, dom) for s in snapshots]
    L0, D0, Q0 = (np.array(col) for col in zip(*rows))
    ch = np.array([charge(s, dom) for s in snapshots])
    mau = np.array([float(np.max(np.abs(s.u))) if s.grid.n_points else 0.0 for s in snapshots])
    mav = np.array([float(np.max(np.abs(s.v))) for s in snapshots])
    return FunctionalTrace(times, L0, D0, Q0, _cumtrapz(times, D0), ch, mau, mav, dom)


def trace_pair(
    snapsA: Sequence[SpinorField],
    snapsB: Sequence[SpinorField],
    dom: Optional[TriangleDomain],
    k: EstimateConstants,
) -> FunctionalTrace:
    """Base functionals of the first field plus the pair functionals."""
    if len(snapsA) != len(snapsB):
        raise UsageError("pair traces need snapshot sequences of equal length")
    base = trace_base(snapsA, dom)
    rows = [difference_functionals(a, b, dom, k) for a, b in zip(snapsA, snapsB)]
    L1, D1, Q1 = (np.array(col) for col in zip(*rows))
    return FunctionalTrace(
        base.times, base.L0, base.D0, base.Q0, base.cumD0, base.charge,
        base.max_abs_u, base.max_abs_v, dom,
        L1=L1, D1=D1, Q1=Q1, cumD1=_cumtrapz(base.times, D1),
    )


# ---------------------------------------------------------------------------
# Audits
#
# Each audit is a reduction fed one level at a time, t = 0 included: the
# charge, triangle and pointwise audits have their own, and the bony and
# gronwall audits report from the shared cone rows (L0/D0/Q0 of each run,
# L1/D1/Q1 of the pair). The sequence-taking functions below feed a list to
# the same reductions; AuditPass feeds the levels of runs evolved in
# lockstep, so no level is stored.


def _require_every_step(snapshots: Sequence[SpinorField]):
    dt = snapshots[0].grid.dt
    ts = np.array([s.t for s in snapshots])
    if len(ts) > 1 and np.max(np.abs(np.diff(ts) - dt)) > 1e-9 * dt:
        raise UsageError("audit needs snapshots recorded at every step")


def _check_cone_start(f0: SpinorField, dom: TriangleDomain, t_end: float):
    """The first level must lie in the cone up to t_end, at its base time."""
    if f0.t > min(t_end, dom.apex_time) + 1e-12 or abs(f0.t - dom.t0) > 1e-12:
        raise UsageError("snapshots must start at the domain's base time")


def _fed(reduction, snapshots: Sequence[SpinorField]):
    for s in snapshots:
        reduction.feed(s)
    return reduction


class TotalCharge:
    """Drift of the total charge over the run against an O(dx^2) budget."""

    def __init__(self, T: float, c_tol: float = 10.0):
        self.T, self.c_tol = T, c_tol
        self.q0 = None
        self.drift = 0.0

    def feed(self, f: SpinorField):
        q = charge(f)
        if self.q0 is None:
            self.q0, self.dx = q, f.grid.dx
        self.drift = max(self.drift, abs(q - self.q0))

    def report(self) -> AuditReport:
        # NumPy's power: inf, not OverflowError, for a grid spacing past 1e154
        budget = self.c_tol * np.float64(self.dx) ** 2 * (1.0 + self.q0) * max(self.T, 1.0)
        return AuditReport(
            inequality="total charge conservation over the run",
            passed=self.drift <= budget,
            max_violation=self.drift,
            tolerance_budget=budget,
            info={"initial_charge": float(self.q0)},
        )


class TriangleCharge:
    """Cone charge balance up to tau: keeps the edge flux densities of each
    level and the last level inside the truncated cone."""

    def __init__(self, dom: TriangleDomain, tau: float, c_tol: float = 10.0):
        self.dom, self.tau, self.c_tol = dom, tau, c_tol
        self.f0 = None
        self.flux_u: list[float] = []
        self.flux_v: list[float] = []

    def _start(self, f0: SpinorField):
        dom = self.dom
        self.ia = f0.grid.index_of(dom.a)  # also validates lattice alignment
        self.ib = f0.grid.index_of(dom.b)
        if abs(dom.t0 - f0.t) > 1e-12:
            raise UsageError("snapshots must start at the cone's base time")
        if self.tau > dom.apex_time + 1e-12:
            raise UsageError(f"tau={self.tau} beyond the cone apex {dom.apex_time}")
        _check_cone_start(f0, dom, self.tau)
        self.f0 = f0

    def feed(self, f: SpinorField):
        if self.f0 is None:
            self._start(f)
        dom = self.dom
        if f.t > min(self.tau, dom.apex_time) + 1e-12:
            return
        kshift = round((f.t - dom.t0) / f.grid.dt)
        zu = f.u[self.ib - kshift]
        zv = f.v[self.ia + kshift]
        self.flux_u.append(zu.real**2 + zu.imag**2)
        self.flux_v.append(zv.real**2 + zv.imag**2)
        self.last = f

    def report(self) -> AuditReport:
        tau, dom = self.tau, self.dom
        if abs(self.last.t - tau) > 1e-9 * max(1.0, abs(tau)):
            raise UsageError("snapshots do not reach tau")
        dx = self.f0.grid.dx
        dt = self.f0.grid.dt
        interior0 = charge(self.f0, dom)
        interior_tau = charge(self.last, dom)
        w = np.full(len(self.flux_u), dt)
        w[0] = w[-1] = 0.5 * dt
        boundary = 2.0 * float(np.sum(np.array(self.flux_u) * w)) + 2.0 * float(
            np.sum(np.array(self.flux_v) * w)
        )
        residual = abs(interior_tau + boundary - interior0)
        budget = tolerance_budget(dx, interior0, self.c_tol)
        return AuditReport(
            inequality="cone charge balance (interior + edge fluxes = initial charge)",
            passed=residual <= budget,
            max_violation=residual,
            tolerance_budget=budget,
            witness=(tau, None) if residual > 0 else None,
            info={"interior_initial": interior0, "interior_final": interior_tau, "boundary_flux": boundary},
        )


class PointwiseGrowth:
    """Largest margin of the pointwise and dyadic-window growth bounds over
    the levels inside the cone, with the first place it is attained."""

    def __init__(self, dom: TriangleDomain, C0: float, p: ModelParams, c_tol: float = 10.0):
        self.dom, self.C0, self.p, self.c_tol = dom, C0, p, c_tol
        self.f0 = None
        self.worst = 0.0
        self.witness = None
        self.n_template = -1

    def _start(self, f0: SpinorField):
        dom, grid = self.dom, f0.grid
        ia = grid.index_of(dom.a)
        ib = grid.index_of(dom.b)
        if abs(dom.t0 - f0.t) > 1e-12:
            raise UsageError("snapshots must start at the cone's base time")
        dens0 = f0.density()
        self.charge0 = float(np.sum(dens0[ia : ib + 1])) * grid.dx
        if not self.charge0 < self.C0:
            raise PreconditionError(
                f"initial charge {self.charge0} over [{dom.a}, {dom.b}] is not below C0={self.C0}"
            )
        _check_cone_start(f0, dom, dom.apex_time)
        self.au0 = f0.u.real**2 + f0.u.imag**2
        self.av0 = f0.v.real**2 + f0.v.imag**2
        self.pre_u0 = np.concatenate([[0.0], np.cumsum(self.au0)])
        self.pre_v0 = np.concatenate([[0.0], np.cumsum(self.av0)])
        self.f0 = f0

    def _windows(self, i0: int, n_sec: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, widths) of every dyadic window of the section of n_sec
        sites from i0: widths 2, 4, ... up to n_sec, stride half a width,
        width-major, then by start. Cut from a template built for the
        widest section seen (the first, as the cone narrows)."""
        if n_sec > self.n_template:
            rel, wid = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
            width = 2
            while width <= n_sec:
                rel.append(np.arange(0, n_sec - width + 1, width // 2))
                wid.append(np.full(len(rel[-1]), width))
                width *= 2
            self.n_template = n_sec
            self.rel, self.wid = np.concatenate(rel), np.concatenate(wid)
        keep = self.rel + self.wid <= n_sec
        return i0 + self.rel[keep], self.wid[keep]

    def feed(self, s: SpinorField):
        if self.f0 is None:
            self._start(s)
        dom, p, C0, grid = self.dom, self.p, self.C0, s.grid
        if s.t > dom.apex_time + 1e-12:
            return
        dx = grid.dx
        tau = s.t - dom.t0
        kshift = round(tau / grid.dt)
        E = float(np.exp(2.0 * abs(p.beta) * C0 + p.m * tau))
        i0, i1 = dom.section_indices(grid, s.t)
        if i0 >= i1:
            return
        au = s.u.real**2 + s.u.imag**2
        av = s.v.real**2 + s.v.imag**2
        vio_u = au[i0:i1] - E * (self.au0[i0 - kshift : i1 - kshift] + p.m * C0)
        vio_v = av[i0:i1] - E * (self.av0[i0 + kshift : i1 + kshift] + p.m * C0)
        for vio in (vio_u, vio_v):
            j = int(np.argmax(vio))
            if vio[j] > self.worst:
                self.worst = float(vio[j])
                self.witness = (s.t, grid.x_min + (i0 + j) * dx)

        # interval forms over every sliding dyadic window of the section at once
        starts, width = self._windows(i0, i1 - i0)
        if len(starts) == 0:
            return
        pre_u = np.concatenate([[0.0], np.cumsum(au)])
        pre_v = np.concatenate([[0.0], np.cumsum(av)])
        ends = starts + width
        su_t = (pre_u[ends] - pre_u[starts]) * dx
        sv_t = (pre_v[ends] - pre_v[starts]) * dx
        lo_u, lo_v = starts - kshift, starts + kshift  # the windows' feet at t0
        su_0 = (self.pre_u0[lo_u + width] - self.pre_u0[lo_u]) * dx
        sv_0 = (self.pre_v0[lo_v + width] - self.pre_v0[lo_v]) * dx
        slack = E * p.m * C0 * (width * dx)
        vio_w = np.maximum(su_t - E * su_0, sv_t - E * sv_0) - slack
        j = int(np.argmax(vio_w))
        if vio_w[j] > self.worst:
            self.worst = float(vio_w[j])
            self.witness = (s.t, grid.x_min + starts[j] * dx)

    def report(self) -> AuditReport:
        budget = tolerance_budget(self.f0.grid.dx, self.charge0, self.c_tol)
        return AuditReport(
            inequality="exponential pointwise/interval growth bounds in the cone",
            passed=self.worst <= budget,
            max_violation=self.worst,
            tolerance_budget=budget,
            witness=self.witness,
            info={"C0": self.C0, "initial_charge": self.charge0},
        )


class ConeRows:
    """One row per level inside the cone up to its apex: (L0, D0, Q0) of a
    run, or (L1, D1, Q1) of a pair of runs when k is given."""

    def __init__(self, dom: TriangleDomain, k: Optional[EstimateConstants] = None):
        self.dom, self.k = dom, k
        self.dx = None
        self.times: list[float] = []
        self.rows: list[tuple[float, float, float]] = []

    def feed(self, f: SpinorField, g: Optional[SpinorField] = None):
        if self.dx is None:
            _check_cone_start(f, self.dom, self.dom.apex_time)
            self.dx = f.grid.dx
        if f.t > self.dom.apex_time + 1e-12:
            return
        self.times.append(f.t)
        if self.k is None:
            self.rows.append(base_functionals(f, self.dom))
        else:
            self.rows.append(difference_functionals(f, g, self.dom, self.k))

    def columns(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Times and the three columns of the first n rows."""
        rows = self.rows[:n]
        return (np.array(self.times[:n]), *(np.array(col) for col in zip(*rows)))


def _bony_report(rows: ConeRows, dom: TriangleDomain, k: EstimateConstants, p: ModelParams, c_tol: float):
    times, L0, D0, Q0 = rows.columns(len(rows.rows))
    tr = FunctionalTrace(times, L0, D0, Q0, _cumtrapz(times, D0), domain=dom)
    L00 = tr.L0[0]
    if not L00 <= k.delta0:
        raise PreconditionError(
            f"charge level {L00} over the base section exceeds the smallness threshold delta0={k.delta0}"
        )
    elapsed = tr.times - tr.times[0]
    rhs = 2.0 * p.m * L00**2 * elapsed + tr.Q0[0]
    vio = tr.Q0 + tr.cumD0 - rhs
    j = int(np.argmax(vio))
    worst = float(max(vio[j], 0.0))
    seed_vio = tr.Q0[0] - L00**2
    worst = max(worst, float(seed_vio))
    budget = tolerance_budget(rows.dx, L00, c_tol)
    return AuditReport(
        inequality="interaction-potential decay net of dissipation",
        passed=worst <= budget,
        max_violation=worst,
        tolerance_budget=budget,
        witness=(float(tr.times[j]), None) if worst > 0 else None,
        constants_used=k,
        info={
            "L0_initial": float(L00),
            "Q0_initial": float(tr.Q0[0]),
            "seed_ratio_measured": float(tr.Q0[0] / L00**2) if L00 > 0 else 0.0,
        },
    )


def _gronwall_report(
    rowsA: ConeRows,
    rowsB: ConeRows,
    pair: ConeRows,
    dom: TriangleDomain,
    k: EstimateConstants,
    p: ModelParams,
    c_tol: float,
):
    n = min(len(rowsA.rows), len(rowsB.rows))
    times, L0, D0, Q0 = rowsA.columns(n)
    trA = FunctionalTrace(times, L0, D0, Q0, _cumtrapz(times, D0), domain=dom)
    times_b, L0b, D0b, Q0b = rowsB.columns(n)
    trB = FunctionalTrace(times_b, L0b, D0b, Q0b, _cumtrapz(times_b, D0b), domain=dom)
    _, L1, D1, Q1 = pair.columns(n)
    tr = FunctionalTrace(
        trA.times, trA.L0, trA.D0, trA.Q0, trA.cumD0, domain=dom,
        L1=L1, D1=D1, Q1=Q1, cumD1=_cumtrapz(trA.times, D1),
    )
    L0A, L0B = trA.L0[0], trB.L0[0]
    if not (L0A < k.delta and L0B < k.delta):
        raise PreconditionError(
            f"charge levels ({L0A}, {L0B}) not both below the pair smallness threshold delta={k.delta}"
        )
    elapsed = tr.times - tr.times[0]
    h3 = 2.0 * p.m * (L0A + L0B) * elapsed + _cumtrapz(tr.times, k.c * (trA.D0 + trB.D0))
    seed = tr.L1[0] + k.K * tr.Q1[0]
    env = seed * np.exp(h3)

    vio_env = tr.L1 + k.K * tr.Q1 - env
    d = k.delta
    factor = (4.0 * p.m * d + 4.0 * p.m * d * d * k.c) * elapsed + 2.0 * k.c * d * d + 1.0
    vio_d1 = tr.cumD1 - seed * factor * np.exp(h3)
    vio_h3 = h3 - (4.0 * p.m * (d + d * d) * elapsed + 2.0 * d * d)

    budget = tolerance_budget(rowsA.dx, L0A + L0B, c_tol)
    worst = 0.0
    witness = None
    for name, vio in (("envelope", vio_env), ("dissipation", vio_d1), ("exponent_ceiling", vio_h3)):
        j = int(np.argmax(vio))
        if vio[j] > worst:
            worst = float(vio[j])
            witness = (float(tr.times[j]), name)
    return AuditReport(
        inequality="pair-difference growth envelope and exponent ceiling",
        passed=worst <= budget,
        max_violation=worst,
        tolerance_budget=budget,
        witness=witness,
        constants_used=k,
        info={"seed": float(seed), "h3_final": float(h3[-1])},
    )


def total_charge_audit(snapshots: Sequence[SpinorField], T: float, c_tol: float = 10.0) -> AuditReport:
    """Largest drift of the total charge from its initial value over the
    recorded levels, against c_tol dx^2 (1 + initial charge) max(T, 1)."""
    return _fed(TotalCharge(T, c_tol), snapshots).report()


def triangle_charge_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    tau: float,
    c_tol: float = 10.0,
) -> AuditReport:
    """Charge balance over the truncated cone: interior charge at tau plus
    twice the outgoing edge fluxes must return the initial interior charge."""
    _require_every_step(snapshots)
    return _fed(TriangleCharge(dom, tau, c_tol), snapshots).report()


def pointwise_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    C0: float,
    p: ModelParams,
    c_tol: float = 10.0,
) -> AuditReport:
    """Exponential pointwise and interval bounds on |u|^2, |v|^2 in the cone.

    With E(t) = exp(2|beta| C0 + m (t - t0)):
        |u(x,t)|^2 <= E(t) (|u0(x - (t-t0))|^2 + m C0)    (and v with x + t)
    plus the windowed integral forms on subintervals of the cross-section.
    Requires the initial charge over [a, b] to be below C0.
    """
    _require_every_step(snapshots)
    return _fed(PointwiseGrowth(dom, C0, p, c_tol), snapshots).report()


def bony_decay_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    k: EstimateConstants,
    p: ModelParams,
    c_tol: float = 10.0,
) -> AuditReport:
    """Decay of the interaction potential net of dissipation:

        Q0(t) + int_{t0}^t D0 <= 2 m L0(t0)^2 (t - t0) + Q0(t0)

    under the smallness hypothesis L0(t0) <= delta0, plus the coarse seed
    bound Q0(t0) <= L0(t0)^2. The sharper product constant actually measured
    is recorded informationally.
    """
    _require_every_step(snapshots)
    return _bony_report(_fed(ConeRows(dom), snapshots), dom, k, p, c_tol)


def gronwall_audit(
    snapsA: Sequence[SpinorField],
    snapsB: Sequence[SpinorField],
    dom: TriangleDomain,
    k: EstimateConstants,
    p: ModelParams,
    c_tol: float = 10.0,
) -> AuditReport:
    """Difference-functional envelope under the pair smallness hypothesis.

    With h3(t) = 2m (L0(t0) + L0'(t0)) (t - t0) + int c (D0 + D0'), checks

        L1 + K Q1 <= (L1(t0) + K Q1(t0)) exp(h3)
        int D1    <= (L1(t0) + K Q1(t0)) ((4 m delta + 4 m delta^2 c)(t-t0)
                                          + 2 c delta^2 + 1) exp(h3)
        h3(t)     <= 4 m (delta + delta^2)(t - t0) + 2 delta^2

    each within the tolerance budget; requires L0(t0), L0'(t0) < delta.
    """
    _require_every_step(snapsA)
    _require_every_step(snapsB)
    rowsA = _fed(ConeRows(dom), snapsA)
    rowsB = _fed(ConeRows(dom), snapsB)
    pair = ConeRows(dom, k)
    for a, b in zip(snapsA, snapsB):
        pair.feed(a, b)
    return _gronwall_report(rowsA, rowsB, pair, dom, k, p, c_tol)


class AuditPass:
    """Observer of run A, or of runs A and B in lockstep, that feeds each
    level once to one reduction per selected evolved audit.

    names are among charge, triangle, pointwise, bony and gronwall; run B
    (the perturbed run) is read only for gronwall. A usage or precondition
    error a reduction raises while it is fed is kept and raised by report()
    for that audit, so the audits fail in the caller's order whatever the
    pass met first, and a blow-up of the run still wins over them.
    """

    def __init__(
        self,
        names: Sequence[str],
        dom: TriangleDomain,
        k: EstimateConstants,
        p: ModelParams,
        *,
        T: float,
        tau: float,
        C0: Optional[float],
        c_tol: float = 10.0,
    ):
        self.dom, self.k, self.p, self.c_tol = dom, k, p, c_tol
        self.feeds: dict[str, list] = {}  # key -> [reduction, run indices, error raised while fed]
        if "charge" in names:
            self.feeds["charge"] = [TotalCharge(T, c_tol), (0,), None]
        if "triangle" in names:
            self.feeds["triangle"] = [TriangleCharge(dom, tau, c_tol), (0,), None]
        if "pointwise" in names:
            self.feeds["pointwise"] = [PointwiseGrowth(dom, C0, p, c_tol), (0,), None]
        if "bony" in names or "gronwall" in names:
            self.feeds["rows_a"] = [ConeRows(dom), (0,), None]
        if "gronwall" in names:
            self.feeds["rows_b"] = [ConeRows(dom), (1,), None]
            self.feeds["pair"] = [ConeRows(dom, k), (0, 1), None]

    def __call__(self, levels: tuple):
        # A huge but finite level may overflow in these products without a
        # warning: its run blows up at the next step, or the report carries the inf.
        with np.errstate(over="ignore", invalid="ignore"):
            for feed in self.feeds.values():
                reduction, runs, error = feed
                fields = [levels[i] for i in runs]
                if error is not None or any(f is None for f in fields):
                    continue  # a run that blew up is reported by the caller
                try:
                    reduction.feed(*fields)
                except (UsageError, PreconditionError) as exc:
                    feed[2] = exc

    def report(self, name: str) -> AuditReport:
        keys = {"bony": ("rows_a",), "gronwall": ("rows_a", "rows_b", "pair")}.get(name, (name,))
        for key in keys:
            if self.feeds[key][2] is not None:
                raise self.feeds[key][2]
        parts = [self.feeds[key][0] for key in keys]
        if name == "bony":
            return _bony_report(*parts, self.dom, self.k, self.p, self.c_tol)
        if name == "gronwall":
            return _gronwall_report(*parts, self.dom, self.k, self.p, self.c_tol)
        return parts[0].report()
