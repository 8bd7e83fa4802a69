"""Cone-restricted functionals of fields and the inequality audits.

Over a cross-section I(t) of a triangle domain (or the full line):

    L0 = sum (|u|^2 + |v|^2) dx          (charge level)
    D0 = sum |u|^2 |v|^2 dx              (interaction dissipation)
    Q0 = sum_{x<y} |u(x)|^2 |v(y)|^2 dx^2    (ordered interaction potential)

and for a pair of fields, with U = uA - uB, V = vA - vB:

    L1 = sum (|U|^2 + |V|^2) dx
    D1 = sum r2(x, x) dx
    Q1 = sum_{x<y} r2(x, y) dx^2

Every one of them is a NumPy sum of the elementwise terms that one
kernels.level_terms pass writes per level; Q0/Q1 take O(N) by suffix
scans inside that pass. The single-level functions, the traces and the
audits share that pass and the row rule _row. Each audit verifies a
continuum inequality (or, for the total charge, a conservation law) on the
discrete solution within a resolution-dependent budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import PreconditionError, UsageError
from .fields import SpinorField, TriangleDomain, _check_same_frame, charge
from .model import EstimateConstants, ModelParams
from .reports import C_TOL, AuditReport, tolerance_budget

__all__ = [
    "AuditPass",
    "AuditReport",
    "FunctionalTrace",
    "base_functionals",
    "difference_functionals",
    "trace_base",
    "trace_pair",
    "triangle_charge_audit",
    "pointwise_audit",
    "bony_decay_audit",
    "gronwall_audit",
]


def _row(terms: kernels.LevelTerms, run: int = 0, pair: bool = False) -> tuple[float, float, float]:
    """(L0, D0, Q0) of one run, or (L1, D1, Q1) of runs 0 and 1 when pair is
    set, summed from the terms over the section they were last written for."""
    i0, i1, dx = terms.i0, terms.i1, terms.dx
    if i0 >= i1:
        return 0.0, 0.0, 0.0
    if pair:
        q = _upper_sum(terms.q1u[i0:i1]) + _upper_sum(terms.q1v[i0:i1])
        return _sum(terms.l1[i0:i1]) * dx, _sum(terms.d1[i0:i1]) * dx, q * dx * dx
    return (_sum(terms.dens[run, i0:i1]) * dx, _sum(terms.prod[run, i0:i1]) * dx,
            _upper_sum(terms.q[run, i0:i1]) * dx * dx)


def _sum(terms: np.ndarray) -> float:
    return float(np.add.reduce(terms))


def _upper_sum(terms: np.ndarray) -> float:
    """q_upper(a, b) from the terms a_i suffix(b)_i: 0 below two sites."""
    return _sum(terms) if len(terms) >= 2 else 0.0


def _terms(f: SpinorField, runs: int) -> kernels.LevelTerms:
    return kernels.LevelTerms(f.grid.n_points, runs, f.grid.dx)


def _functionals(terms: kernels.LevelTerms, levels: tuple,
                 dom: Optional[TriangleDomain]) -> tuple[float, float, float]:
    """Write levels (one run, or a pair) into terms over the cross-section of
    dom at their time, or the full line, and sum their row."""
    if len(levels) == 2:
        _check_same_frame(*levels)
    f = levels[0]
    i0, i1 = (0, f.grid.n_points) if dom is None else dom.section_indices(f.grid, f.t)
    kernels.level_terms(terms, [(lv.u, lv.v) for lv in levels], i0, i1, 0, None)
    return _row(terms, pair=len(levels) == 2)


def base_functionals(f: SpinorField, dom: Optional[TriangleDomain] = None) -> tuple[float, float, float]:
    """(L0, D0, Q0) over the cross-section of dom at f.t, or the full line."""
    return _functionals(_terms(f, 1), (f,), dom)


def difference_functionals(
    fA: SpinorField,
    fB: SpinorField,
    dom: Optional[TriangleDomain],
) -> tuple[float, float, float]:
    """(L1, D1, Q1) for the pair over the cross-section."""
    return _functionals(_terms(fA, 2), (fA, fB), dom)


def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if len(values) > 1:
        out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
    return out


@dataclass(frozen=True)
class FunctionalTrace:
    """Time series of the cone functionals with running time integrals;
    the pair columns L1, D1, Q1, cumD1 are set by trace_pair only."""

    times: np.ndarray
    L0: np.ndarray
    D0: np.ndarray
    Q0: np.ndarray
    cumD0: np.ndarray
    charge: np.ndarray
    max_abs_u: np.ndarray
    max_abs_v: np.ndarray
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
    terms = _terms(snapshots[0], 1)
    rows = [_functionals(terms, (s,), dom) for s in snapshots]
    L0, D0, Q0 = (np.array(col) for col in zip(*rows))
    mau = np.array([float(np.max(np.abs(s.u))) for s in snapshots])
    mav = np.array([float(np.max(np.abs(s.v))) for s in snapshots])
    return FunctionalTrace(times, L0, D0, Q0, _cumtrapz(times, D0), L0, mau, mav)


def trace_pair(
    snapsA: Sequence[SpinorField],
    snapsB: Sequence[SpinorField],
    dom: Optional[TriangleDomain],
) -> FunctionalTrace:
    """Base functionals of the first field plus the pair functionals."""
    if len(snapsA) != len(snapsB):
        raise UsageError("pair traces need snapshot sequences of equal length")
    base = trace_base(snapsA, dom)
    terms = _terms(snapsA[0], 2)
    rows = [_functionals(terms, (a, b), dom) for a, b in zip(snapsA, snapsB)]
    L1, D1, Q1 = (np.array(col) for col in zip(*rows))
    return FunctionalTrace(
        base.times, base.L0, base.D0, base.Q0, base.cumD0, base.charge,
        base.max_abs_u, base.max_abs_v,
        L1=L1, D1=D1, Q1=Q1, cumD1=_cumtrapz(base.times, D1),
    )


# ---------------------------------------------------------------------------
# Audits
#
# Each evolved audit is a reduction. start(levels) takes the runs' levels at
# t = 0 and raises every usage or precondition error, so a refused audit
# costs no step; feed(levels, terms) takes the runs' levels at one time,
# t = 0 included, with their elementwise terms (a kernels.LevelTerms the
# pass writes once per level); report() returns the AuditReport. The
# reductions sum the terms with NumPy's pairwise np.add.reduce, and ConeRows
# sum their rows with _row, so each row is the functionals' above. Bony and
# gronwall have no feed of their own: they report from ConeRows, which are
# fed instead. A reduction keeps numbers, never a level.
# AuditPass drives one reduction per selected audit over runs evolved in
# lockstep, and the sequence-taking functions below feed the same pass from
# lists.


def _require_every_step(snapshots: Sequence[SpinorField]):
    dt = snapshots[0].grid.dt
    ts = np.array([s.t for s in snapshots])
    if len(ts) > 1 and np.max(np.abs(np.diff(ts) - dt)) > 1e-9 * dt:
        raise UsageError("audit needs snapshots recorded at every step")


class TotalCharge:
    """Drift of the total charge over the run against an O(dx^2) budget."""

    def __init__(self, T: float, c_tol: float):
        self.T, self.c_tol = T, c_tol
        self.drift = 0.0

    def start(self, levels: tuple):
        self.q0, self.dx = charge(levels[0]), levels[0].grid.dx

    def feed(self, levels: tuple, terms: kernels.LevelTerms):
        self.drift = max(self.drift, abs(_sum(terms.dens[0]) * self.dx - self.q0))  # charge(levels[0]) bit for bit

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

    def __init__(self, dom: TriangleDomain, tau: float, c_tol: float):
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

    def feed(self, levels: tuple, terms: kernels.LevelTerms):
        f, tau = levels[0], self.tau
        if f.t > tau + 1e-12:
            return
        kshift = round(f.t / self.dt)
        self.flux_u.append(terms.au[0, self.ib - kshift])
        self.flux_v.append(terms.av[0, self.ia + kshift])
        # the last level fed must be the one at tau
        at_tau = abs(f.t - tau) <= 1e-9 * max(1.0, abs(tau))
        self.interior_tau = _sum(terms.dens[0, terms.i0 : terms.i1]) * self.dx if at_tau else None  # charge(f, dom) bit for bit

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
    the levels inside the cone, with the first place it is attained. The
    margins of each level are level_terms' growth margins, with the growth
    factor AuditPass takes from growth()."""

    def __init__(self, dom: TriangleDomain, C0: float, p: ModelParams, c_tol: float):
        self.dom, self.C0, self.p, self.c_tol = dom, C0, p, c_tol
        self.worst = 0.0
        self.witness = None

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

    def growth(self, t: float) -> float:
        """E(t) = exp(2|beta| C0 + m t)."""
        return float(np.exp(2.0 * abs(self.p.beta) * self.C0 + self.p.m * t))

    def feed(self, levels: tuple, terms: kernels.LevelTerms):
        s = levels[0]
        for margin, site in zip(terms.margins.tolist(), terms.sites.tolist()):
            if margin > self.worst:
                self.worst = margin
                self.witness = (s.t, s.grid.x_min + site * s.grid.dx)

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
    run, or (L1, D1, Q1) of runs 0 and 1 when pair is set."""

    def __init__(self, dom: TriangleDomain, run: int = 0, pair: bool = False):
        self.dom, self.run, self.pair = dom, run, pair
        self.times: list[float] = []
        self.rows: list[tuple[float, float, float]] = []

    def feed(self, levels: tuple, terms: kernels.LevelTerms):
        f = levels[self.run]
        if f.t > self.dom.apex_time + 1e-12:
            return
        self.times.append(f.t)
        self.rows.append(_row(terms, self.run, self.pair))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Times and the three columns of the rows."""
        return (np.array(self.times), *(np.array(col) for col in zip(*self.rows)))


class BonyDecay:
    """Decay of the interaction potential net of dissipation, from run A's
    cone rows (fed by AuditPass); the smallness hypothesis is checked at
    start."""

    def __init__(self, rows: ConeRows, k: EstimateConstants, p: ModelParams, c_tol: float):
        self.rows, self.k, self.p, self.c_tol = rows, k, p, c_tol

    def start(self, levels: tuple):
        L00 = charge(levels[0], self.rows.dom)  # the base row's L0, bit for bit
        if not L00 <= self.k.delta0:
            raise PreconditionError(
                f"charge level {L00} over the base section exceeds the smallness threshold delta0={self.k.delta0}"
            )
        self.dx = levels[0].grid.dx

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
            info={
                "L0_initial": float(L00),
                "Q0_initial": float(Q0[0]),
                "seed_ratio_measured": float(Q0[0] / L00**2) if L00**2 > 0 else 0.0,  # L00**2 may underflow
            },
        )


class GronwallEnvelope:
    """Pair-difference envelope from the cone rows of runs A and B and of the
    pair (fed by AuditPass); the pair smallness hypothesis is checked at
    start."""

    def __init__(self, rows_a: ConeRows, rows_b: ConeRows, pair: ConeRows,
                 k: EstimateConstants, p: ModelParams, c_tol: float):
        self.rows_a, self.rows_b, self.pair = rows_a, rows_b, pair
        self.k, self.p, self.c_tol = k, p, c_tol

    def start(self, levels: tuple):
        dom, k = self.rows_a.dom, self.k
        L0A, L0B = charge(levels[0], dom), charge(levels[1], dom)
        if not (L0A < k.delta and L0B < k.delta):
            raise PreconditionError(
                f"charge levels ({L0A}, {L0B}) not both below the pair smallness threshold delta={k.delta}"
            )
        self.dx = levels[0].grid.dx

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
            info={"seed": float(seed), "h3_final": float(h3[-1])},
        )


class AuditPass:
    """Observer of run A, or of runs A and B in lockstep, that feeds each
    level once to one reduction per selected evolved audit.

    names are among charge, triangle, pointwise, bony and gronwall; run B
    (the perturbed run) is read only by gronwall. Bony and gronwall report
    from cone rows the pass builds and feeds: run A's rows, shared by both,
    and for gronwall run B's rows and the pair's. start() takes the runs'
    levels at t = 0 and raises the first usage or precondition error in the
    order charge, triangle, pointwise, bony, gronwall, before any step.

    Each level is written once into the LevelTerms that start() allocates:
    one call to kernels.level_terms computes every elementwise term the
    reductions sum, and the reductions keep only the sums.
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
        c_tol: float = C_TOL,
    ):
        self.dom = dom
        self.audits: dict = {}
        if "charge" in names:
            self.audits["charge"] = TotalCharge(T, c_tol)
        if "triangle" in names:
            self.audits["triangle"] = TriangleCharge(dom, tau, c_tol)
        if "pointwise" in names:
            self.audits["pointwise"] = PointwiseGrowth(dom, C0, p, c_tol)
        # what each level is fed to, once: the reductions above and the
        # cone rows that bony and gronwall report from
        self.fed = list(self.audits.values())
        if "bony" in names or "gronwall" in names:
            rows_a = ConeRows(dom)  # shared by bony and gronwall
            self.fed.append(rows_a)
        if "bony" in names:
            self.audits["bony"] = BonyDecay(rows_a, k, p, c_tol)
        if "gronwall" in names:
            rows_b, pair = ConeRows(dom, run=1), ConeRows(dom, pair=True)
            self.fed += [rows_b, pair]
            self.audits["gronwall"] = GronwallEnvelope(rows_a, rows_b, pair, k, p, c_tol)

    def start(self, levels: tuple):
        cones = any(name != "charge" for name in self.audits)
        if cones and abs(levels[0].t) > 1e-12:
            raise UsageError("snapshots must start at the cone's base time t = 0")
        # a huge but finite datum's charges overflow to inf without a warning;
        # the cone audits' preconditions refuse them
        with np.errstate(over="ignore", invalid="ignore"):
            for audit in self.audits.values():
                audit.start(levels)
        f0, pointwise = levels[0], self.audits.get("pointwise")
        growth = {}
        if pointwise is not None:
            growth = {"origin": (f0.u, f0.v), "m": pointwise.p.m, "C0": pointwise.C0}
        runs = 2 if "gronwall" in self.audits else 1
        self.terms = kernels.LevelTerms(f0.grid.n_points, runs, f0.grid.dx, **growth)

    def __call__(self, levels: tuple):
        # A huge but finite level may overflow in these products without a
        # warning: its run blows up at the next step, or the report carries the inf.
        with np.errstate(over="ignore", invalid="ignore"):
            self._write_terms(levels)
            for reduction in self.fed:
                reduction.feed(levels, self.terms)

    def _write_terms(self, levels: tuple):
        """The section of the cone at this level (empty past the apex), and
        every term over it in one pass; growth margins when pointwise runs."""
        f, dom, terms = levels[0], self.dom, self.terms
        runs = levels[: terms.runs]
        if len(runs) == 2:
            _check_same_frame(*runs)
        i0 = i1 = kshift = 0
        E = None
        if dom is not None and f.t <= dom.apex_time + 1e-12:
            i0, i1 = dom.section_indices(f.grid, f.t)
            kshift = round(f.t / f.grid.dt)
            if "pointwise" in self.audits:
                E = self.audits["pointwise"].growth(f.t)
        kernels.level_terms(terms, [(lv.u, lv.v) for lv in runs], i0, i1, kshift, E)

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


def triangle_charge_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    tau: float,
    c_tol: float = C_TOL,
) -> AuditReport:
    """Charge balance over the truncated cone: interior charge at tau plus
    twice the outgoing edge fluxes must return the initial interior charge."""
    return _audited("triangle", [snapshots], dom, tau=tau, c_tol=c_tol)


def pointwise_audit(
    snapshots: Sequence[SpinorField],
    dom: TriangleDomain,
    C0: float,
    p: ModelParams,
    c_tol: float = C_TOL,
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
    c_tol: float = C_TOL,
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
    c_tol: float = C_TOL,
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
