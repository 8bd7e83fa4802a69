"""Cone-restricted functionals of fields and the inequality audits.

Over a cross-section I(t) of a triangle domain (or the full line):

    L0 = sum (|u|^2 + |v|^2) dx          (charge level)
    D0 = sum |u|^2 |v|^2 dx              (interaction dissipation)
    Q0 = sum_{x<y} |u(x)|^2 |v(y)|^2 dx^2    (ordered interaction potential)

and for a pair of fields, with U = uA - uB, V = vA - vB:

    L1 = sum (|U|^2 + |V|^2) dx
    D1 = sum r2(x, x) dx
    Q1 = sum_{x<y} r2(x, y) dx^2

Q0/Q1 are evaluated in O(N) by suffix scans (kernels.q_upper; the direct
O(N^2) kernels.q_upper_naive is its oracle). Each audit verifies a
continuum inequality (or, for the total charge, a conservation law) on the
discrete solution within a resolution-dependent budget.
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


def base_functionals(f: SpinorField, dom: Optional[TriangleDomain] = None) -> tuple[float, float, float]:
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
    return L0, D0, kernels.q_upper(au2, av2) * dx * dx


def difference_functionals(
    fA: SpinorField,
    fB: SpinorField,
    dom: Optional[TriangleDomain],
    k: EstimateConstants,
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
    Q1 = (kernels.q_upper(aU2, vmod) + kernels.q_upper(umod, aV2)) * dx * dx
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
    trace_pair; a trace built by hand may leave them out.
    """

    times: np.ndarray
    L0: np.ndarray
    D0: np.ndarray
    Q0: np.ndarray
    cumD0: np.ndarray
    charge: Optional[np.ndarray] = None
    max_abs_u: Optional[np.ndarray] = None
    max_abs_v: Optional[np.ndarray] = None
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
    """Base functionals of each snapshot; the charge column is L0, which is
    charge(s, dom) bit for bit."""
    times = np.array([s.t for s in snapshots])
    rows = [base_functionals(s, dom) for s in snapshots]
    L0, D0, Q0 = (np.array(col) for col in zip(*rows))
    mau = np.array([float(np.max(np.abs(s.u))) for s in snapshots])
    mav = np.array([float(np.max(np.abs(s.v))) for s in snapshots])
    return FunctionalTrace(times, L0, D0, Q0, _cumtrapz(times, D0), L0, mau, mav)


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
        base.max_abs_u, base.max_abs_v,
        L1=L1, D1=D1, Q1=Q1, cumD1=_cumtrapz(base.times, D1),
    )


# ---------------------------------------------------------------------------
# Audits
#
# Each evolved audit is a reduction with three methods. start(levels) takes
# the runs' levels at t = 0 and raises every usage or precondition error, so
# a refused audit costs no step; feed(levels) takes the runs' levels at one
# time, t = 0 included; report() returns the AuditReport. A reduction keeps
# numbers, never a level. AuditPass drives one reduction per selected audit
# over runs evolved in lockstep, and the sequence-taking functions below
# feed the same pass from lists.


def _require_every_step(snapshots: Sequence[SpinorField]):
    dt = snapshots[0].grid.dt
    ts = np.array([s.t for s in snapshots])
    if len(ts) > 1 and np.max(np.abs(np.diff(ts) - dt)) > 1e-9 * dt:
        raise UsageError("audit needs snapshots recorded at every step")


class TotalCharge:
    """Drift of the total charge over the run against an O(dx^2) budget."""

    def __init__(self, T: float, c_tol: float = 10.0):
        self.T, self.c_tol = T, c_tol
        self.drift = 0.0

    def start(self, levels: tuple):
        self.q0, self.dx = charge(levels[0]), levels[0].grid.dx

    def feed(self, levels: tuple):
        self.drift = max(self.drift, abs(charge(levels[0]) - self.q0))

    def report(self) -> AuditReport:
        # NumPy's power: inf, not OverflowError, for a grid spacing past 1e154;
        # a zero C_tol times an inf charge is nan, and the audit fails
        with np.errstate(over="ignore", invalid="ignore"):
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
    level and the interior charges at t = 0 and at tau."""

    def __init__(self, dom: TriangleDomain, tau: float, c_tol: float = 10.0):
        self.dom, self.tau, self.c_tol = dom, tau, c_tol
        self.flux_u: list[float] = []
        self.flux_v: list[float] = []
        self.interior_tau = None

    def start(self, levels: tuple):
        f0, dom = levels[0], self.dom
        self.ia = f0.grid.index_of(dom.a)  # also validates lattice alignment
        self.ib = f0.grid.index_of(dom.b)
        if not -1e-12 <= self.tau <= dom.apex_time + 1e-12:
            raise UsageError(f"tau={self.tau} outside the cone's span [0.0, {dom.apex_time}]")
        self.dx, self.dt = f0.grid.dx, f0.grid.dt
        self.interior0 = charge(f0, dom)

    def feed(self, levels: tuple):
        f, tau = levels[0], self.tau
        if f.t > tau + 1e-12:
            return
        kshift = round(f.t / self.dt)
        zu = f.u[self.ib - kshift]
        zv = f.v[self.ia + kshift]
        self.flux_u.append(zu.real**2 + zu.imag**2)
        self.flux_v.append(zv.real**2 + zv.imag**2)
        # the last level fed must be the one at tau
        at_tau = abs(f.t - tau) <= 1e-9 * max(1.0, abs(tau))
        self.interior_tau = charge(f, self.dom) if at_tau else None

    def report(self) -> AuditReport:
        if self.interior_tau is None:
            raise UsageError("snapshots do not reach tau")
        interior0, interior_tau, dt = self.interior0, self.interior_tau, self.dt
        w = np.full(len(self.flux_u), dt)
        w[0] = w[-1] = 0.5 * dt
        boundary = 2.0 * float(np.sum(np.array(self.flux_u) * w)) + 2.0 * float(
            np.sum(np.array(self.flux_v) * w)
        )
        residual = abs(interior_tau + boundary - interior0)
        budget = tolerance_budget(self.dx, interior0, self.c_tol)
        return AuditReport(
            inequality="cone charge balance (interior + edge fluxes = initial charge)",
            passed=residual <= budget,
            max_violation=residual,
            tolerance_budget=budget,
            witness=(self.tau, None) if residual > 0 else None,
            info={"interior_initial": interior0, "interior_final": interior_tau, "boundary_flux": boundary},
        )


class PointwiseGrowth:
    """Largest margin of the pointwise and dyadic-window growth bounds over
    the levels inside the cone, with the first place it is attained."""

    def __init__(self, dom: TriangleDomain, C0: float, p: ModelParams, c_tol: float = 10.0):
        self.dom, self.C0, self.p, self.c_tol = dom, C0, p, c_tol
        self.worst = 0.0
        self.witness = None
        self.n_template = -1

    def start(self, levels: tuple):
        f0, dom = levels[0], self.dom
        grid = f0.grid
        ia = grid.index_of(dom.a)
        ib = grid.index_of(dom.b)
        self.dx = grid.dx
        self.charge0 = float(np.sum(f0.density()[ia : ib + 1])) * grid.dx
        if not self.charge0 < self.C0:
            raise PreconditionError(
                f"initial charge {self.charge0} over [{dom.a}, {dom.b}] is not below C0={self.C0}"
            )
        self.au0 = f0.u.real**2 + f0.u.imag**2
        self.av0 = f0.v.real**2 + f0.v.imag**2
        self.pre_u0 = np.concatenate([[0.0], np.cumsum(self.au0)])
        self.pre_v0 = np.concatenate([[0.0], np.cumsum(self.av0)])

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

    def feed(self, levels: tuple):
        s = levels[0]
        dom, p, C0, grid = self.dom, self.p, self.C0, s.grid
        if s.t > dom.apex_time + 1e-12:
            return
        dx = grid.dx
        kshift = round(s.t / grid.dt)
        E = float(np.exp(2.0 * abs(p.beta) * C0 + p.m * s.t))
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
        lo_u, lo_v = starts - kshift, starts + kshift  # the windows' feet at t = 0
        su_0 = (self.pre_u0[lo_u + width] - self.pre_u0[lo_u]) * dx
        sv_0 = (self.pre_v0[lo_v + width] - self.pre_v0[lo_v]) * dx
        slack = E * p.m * C0 * (width * dx)
        vio_w = np.maximum(su_t - E * su_0, sv_t - E * sv_0) - slack
        j = int(np.argmax(vio_w))
        if vio_w[j] > self.worst:
            self.worst = float(vio_w[j])
            self.witness = (s.t, grid.x_min + starts[j] * dx)

    def report(self) -> AuditReport:
        budget = tolerance_budget(self.dx, self.charge0, self.c_tol)
        return AuditReport(
            inequality="exponential pointwise/interval growth bounds in the cone",
            passed=self.worst <= budget,
            max_violation=self.worst,
            tolerance_budget=budget,
            witness=self.witness,
            info={"C0": self.C0, "initial_charge": self.charge0},
        )


class ConeRows:
    """One row per level inside the cone up to its apex: (L0, D0, Q0) of one
    run, or (L1, D1, Q1) of runs 0 and 1 when k is given. Bony and gronwall
    share run A's rows, so a level at a time already held is skipped."""

    def __init__(self, dom: TriangleDomain, k: Optional[EstimateConstants] = None, run: int = 0):
        self.dom, self.k, self.run = dom, k, run
        self.times: list[float] = []
        self.rows: list[tuple[float, float, float]] = []

    def feed(self, levels: tuple):
        f = levels[self.run]
        if f.t > self.dom.apex_time + 1e-12 or self.times and self.times[-1] == f.t:
            return
        self.times.append(f.t)
        if self.k is None:
            self.rows.append(base_functionals(f, self.dom))
        else:
            self.rows.append(difference_functionals(levels[0], levels[1], self.dom, self.k))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Times and the three columns of the rows."""
        return (np.array(self.times), *(np.array(col) for col in zip(*self.rows)))


class BonyDecay:
    """Decay of the interaction potential net of dissipation, from run A's
    cone rows; the smallness hypothesis is checked at start."""

    def __init__(self, rows: ConeRows, k: EstimateConstants, p: ModelParams, c_tol: float = 10.0):
        self.rows, self.k, self.p, self.c_tol = rows, k, p, c_tol

    def start(self, levels: tuple):
        L00 = charge(levels[0], self.rows.dom)  # the base row's L0, bit for bit
        if not L00 <= self.k.delta0:
            raise PreconditionError(
                f"charge level {L00} over the base section exceeds the smallness threshold delta0={self.k.delta0}"
            )
        self.dx = levels[0].grid.dx

    def feed(self, levels: tuple):
        self.rows.feed(levels)

    def report(self) -> AuditReport:
        p = self.p
        times, L0, D0, Q0 = self.rows.columns()
        L00 = L0[0]
        elapsed = times - times[0]
        rhs = 2.0 * p.m * L00**2 * elapsed + Q0[0]
        vio = Q0 + _cumtrapz(times, D0) - rhs
        j = int(np.argmax(vio))
        worst = float(max(vio[j], 0.0))
        seed_vio = Q0[0] - L00**2
        worst = max(worst, float(seed_vio))
        budget = tolerance_budget(self.dx, L00, self.c_tol)
        return AuditReport(
            inequality="interaction-potential decay net of dissipation",
            passed=worst <= budget,
            max_violation=worst,
            tolerance_budget=budget,
            witness=(float(times[j]), None) if worst > 0 else None,
            constants_used=self.k,
            info={
                "L0_initial": float(L00),
                "Q0_initial": float(Q0[0]),
                "seed_ratio_measured": float(Q0[0] / L00**2) if L00**2 > 0 else 0.0,  # L00**2 may underflow
            },
        )


class GronwallEnvelope:
    """Pair-difference envelope from the cone rows of runs A and B and of the
    pair; the pair smallness hypothesis is checked at start."""

    def __init__(self, rows_a: ConeRows, k: EstimateConstants, p: ModelParams, c_tol: float = 10.0):
        self.rows_a, self.k, self.p, self.c_tol = rows_a, k, p, c_tol
        self.rows_b = ConeRows(rows_a.dom, run=1)
        self.pair = ConeRows(rows_a.dom, k)

    def start(self, levels: tuple):
        dom, k = self.rows_a.dom, self.k
        L0A, L0B = charge(levels[0], dom), charge(levels[1], dom)
        if not (L0A < k.delta and L0B < k.delta):
            raise PreconditionError(
                f"charge levels ({L0A}, {L0B}) not both below the pair smallness threshold delta={k.delta}"
            )
        self.dx = levels[0].grid.dx

    def feed(self, levels: tuple):
        for rows in (self.rows_a, self.rows_b, self.pair):
            rows.feed(levels)

    def report(self) -> AuditReport:
        k, p = self.k, self.p
        times, L0A, D0A, _ = self.rows_a.columns()
        _, L0B, D0B, _ = self.rows_b.columns()
        _, L1, D1, Q1 = self.pair.columns()
        elapsed = times - times[0]
        h3 = 2.0 * p.m * (L0A[0] + L0B[0]) * elapsed + _cumtrapz(times, k.c * (D0A + D0B))
        seed = L1[0] + k.K * Q1[0]
        env = seed * np.exp(h3)

        vio_env = L1 + k.K * Q1 - env
        d = k.delta
        factor = (4.0 * p.m * d + 4.0 * p.m * d * d * k.c) * elapsed + 2.0 * k.c * d * d + 1.0
        vio_d1 = _cumtrapz(times, D1) - seed * factor * np.exp(h3)
        vio_h3 = h3 - (4.0 * p.m * (d + d * d) * elapsed + 2.0 * d * d)

        budget = tolerance_budget(self.dx, L0A[0] + L0B[0], self.c_tol)
        worst = 0.0
        witness = None
        for name, vio in (("envelope", vio_env), ("dissipation", vio_d1), ("exponent_ceiling", vio_h3)):
            j = int(np.argmax(vio))
            if vio[j] > worst:
                worst = float(vio[j])
                witness = (float(times[j]), name)
        return AuditReport(
            inequality="pair-difference growth envelope and exponent ceiling",
            passed=worst <= budget,
            max_violation=worst,
            tolerance_budget=budget,
            witness=witness,
            constants_used=k,
            info={"seed": float(seed), "h3_final": float(h3[-1])},
        )


class AuditPass:
    """Observer of run A, or of runs A and B in lockstep, that feeds each
    level once to one reduction per selected evolved audit.

    names are among charge, triangle, pointwise, bony and gronwall; run B
    (the perturbed run) is read only by gronwall. start() takes the runs'
    levels at t = 0 and raises the first usage or precondition error in the
    order charge, triangle, pointwise, bony, gronwall, before any step.
    """

    def __init__(
        self,
        names: Sequence[str],
        dom: Optional[TriangleDomain],
        k: Optional[EstimateConstants],
        p: Optional[ModelParams],
        *,
        T: Optional[float] = None,
        tau: Optional[float] = None,
        C0: Optional[float] = None,
        c_tol: float = 10.0,
    ):
        self.audits: dict = {}
        rows_a = ConeRows(dom)  # run A's rows, shared by bony and gronwall
        if "charge" in names:
            self.audits["charge"] = TotalCharge(T, c_tol)
        if "triangle" in names:
            self.audits["triangle"] = TriangleCharge(dom, tau, c_tol)
        if "pointwise" in names:
            self.audits["pointwise"] = PointwiseGrowth(dom, C0, p, c_tol)
        if "bony" in names:
            self.audits["bony"] = BonyDecay(rows_a, k, p, c_tol)
        if "gronwall" in names:
            self.audits["gronwall"] = GronwallEnvelope(rows_a, k, p, c_tol)

    def start(self, levels: tuple):
        cones = any(name != "charge" for name in self.audits)
        if cones and abs(levels[0].t) > 1e-12:
            raise UsageError("snapshots must start at the cone's base time t = 0")
        # a huge but finite datum's charges overflow to inf without a warning;
        # the cone audits' preconditions refuse them
        with np.errstate(over="ignore", invalid="ignore"):
            for audit in self.audits.values():
                audit.start(levels)

    def __call__(self, levels: tuple):
        # A huge but finite level may overflow in these products without a
        # warning: its run blows up at the next step, or the report carries the inf.
        with np.errstate(over="ignore", invalid="ignore"):
            for audit in self.audits.values():
                audit.feed(levels)

    def report(self, name: str) -> AuditReport:
        return self.audits[name].report()


def _audited(name: str, runs: Sequence[Sequence[SpinorField]], dom, k=None, p=None, **kw) -> AuditReport:
    """One audit of snapshot lists (run A, and run B for gronwall), fed to an
    AuditPass as a lockstep run would be. The cone audits need every step;
    the total charge takes any recorded levels."""
    if name != "charge":
        for snaps in runs:
            _require_every_step(snaps)
    audits = AuditPass([name], dom, k, p, **kw)
    audits.start(tuple(snaps[0] for snaps in runs))
    for levels in zip(*runs):
        audits(levels)
    return audits.report(name)


def total_charge_audit(snapshots: Sequence[SpinorField], T: float, c_tol: float = 10.0) -> AuditReport:
    """Largest drift of the total charge from its initial value over the
    recorded levels, against c_tol dx^2 (1 + initial charge) max(T, 1)."""
    return _audited("charge", [snapshots], None, T=T, c_tol=c_tol)


def triangle_charge_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    tau: float,
    c_tol: float = 10.0,
) -> AuditReport:
    """Charge balance over the truncated cone: interior charge at tau plus
    twice the outgoing edge fluxes must return the initial interior charge."""
    return _audited("triangle", [snapshots], dom, tau=tau, c_tol=c_tol)


def pointwise_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    C0: float,
    p: ModelParams,
    c_tol: float = 10.0,
) -> AuditReport:
    """Exponential pointwise and interval bounds on |u|^2, |v|^2 in the cone.

    With E(t) = exp(2|beta| C0 + m t):
        |u(x,t)|^2 <= E(t) (|u0(x - t)|^2 + m C0)    (and v with x + t)
    plus the windowed integral forms on subintervals of the cross-section.
    Requires the initial charge over [a, b] to be below C0.
    """
    return _audited("pointwise", [snapshots], dom, p=p, C0=C0, c_tol=c_tol)


def bony_decay_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    k: EstimateConstants,
    p: ModelParams,
    c_tol: float = 10.0,
) -> AuditReport:
    """Decay of the interaction potential net of dissipation:

        Q0(t) + int_0^t D0 <= 2 m L0(0)^2 t + Q0(0)

    under the smallness hypothesis L0(0) <= delta0, plus the coarse seed
    bound Q0(0) <= L0(0)^2. The sharper product constant actually measured
    is recorded informationally.
    """
    return _audited("bony", [snapshots], dom, k, p, c_tol=c_tol)


def gronwall_audit(
    snapsA: Sequence[SpinorField],
    snapsB: Sequence[SpinorField],
    dom: TriangleDomain,
    k: EstimateConstants,
    p: ModelParams,
    c_tol: float = 10.0,
) -> AuditReport:
    """Difference-functional envelope under the pair smallness hypothesis.

    With h3(t) = 2m (L0(0) + L0'(0)) t + int c (D0 + D0'), checks

        L1 + K Q1 <= (L1(0) + K Q1(0)) exp(h3)
        int D1    <= (L1(0) + K Q1(0)) ((4 m delta + 4 m delta^2 c) t
                                         + 2 c delta^2 + 1) exp(h3)
        h3(t)     <= 4 m (delta + delta^2) t + 2 delta^2

    each within the tolerance budget; requires L0(0), L0'(0) < delta.
    """
    return _audited("gronwall", [snapsA, snapsB], dom, k, p, c_tol=c_tol)
