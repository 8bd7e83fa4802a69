"""Cone-restricted functionals of fields and the inequality audits.

Over a cross-section I(t) of a triangle domain (or the full line):

    L0 = sum (|u|^2 + |v|^2) dx          (charge level)
    D0 = sum |u|^2 |v|^2 dx              (interaction dissipation)
    Q0 = sum_{x<y} |u(x)|^2 |v(y)|^2 dx^2    (ordered interaction potential)

and for a pair of fields, with U = uA - uB, V = vA - vB:

    L1 = sum (|U|^2 + |V|^2) dx
    D1 = sum r2(x, x) dx
    Q1 = sum_{x<y} r2(x, y) dx^2

Every one of them is a sum, in NumPy's pairwise order, of the elementwise
terms that one kernels.level_terms pass writes and sums per level; Q0/Q1
take O(N) by suffix scans inside that pass. The single-level functions,
the traces and the audits share that pass and the rule _cone_columns.
Each audit verifies a continuum inequality (or, for the total charge, a
conservation law) on the discrete solution within a resolution-dependent
budget.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import kernels
from ._records import record
from .errors import PreconditionError, UsageError
from .fields import SpinorField, TriangleDomain, _check_same_frame
from .fields import charge  # noqa: F401  (perfbench/child.py wraps it here)
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


def _cone_columns(sums: Sequence[list], dx: float, run: int = 0, pair: bool = False) -> tuple[list, list, list]:
    """The columns (L0, D0, Q0) of one run, or (L1, D1, Q1) of runs 0 and 1
    when pair is set, over levels given by the sums of their level_terms
    calls (0.0 each over no section)."""
    if pair:
        at = kernels.PAIR_SUMS
        return ([s[at] * dx for s in sums], [s[at + 1] * dx for s in sums],
                [(s[at + 2] + s[at + 3]) * dx * dx for s in sums])
    at = kernels.SECTION_SUMS[run]
    return [s[at] * dx for s in sums], [s[at + 1] * dx for s in sums], [s[at + 2] * dx * dx for s in sums]


def _cone_row(sums: list, dx: float, run: int = 0, pair: bool = False) -> tuple[float, float, float]:
    """_cone_columns of one level."""
    (L,), (D,), (Q,) = _cone_columns([sums], dx, run, pair)
    return L, D, Q


def _terms(f: SpinorField, runs: int) -> kernels.LevelTerms:
    return kernels.LevelTerms(f.grid.n_points, runs, f.grid.dx)


def _level_sums(terms: kernels.LevelTerms, levels: tuple, dom: Optional[TriangleDomain]) -> list:
    """Write levels (one run, or a pair) into terms over the cross-section of
    dom at their time, or the full line, and return their sums."""
    if len(levels) == 2:
        _check_same_frame(*levels)
    f = levels[0]
    i0, i1 = (0, f.grid.n_points) if dom is None else dom.section_indices(f.grid, f.t)
    return kernels.level_terms(terms, [(lv.u, lv.v) for lv in levels], i0, i1, 0, None)


def base_functionals(f: SpinorField, dom: Optional[TriangleDomain] = None) -> tuple[float, float, float]:
    """(L0, D0, Q0) over the cross-section of dom at f.t, or the full line."""
    return _cone_row(_level_sums(_terms(f, 1), (f,), dom), f.grid.dx)


def difference_functionals(
    fA: SpinorField,
    fB: SpinorField,
    dom: Optional[TriangleDomain],
) -> tuple[float, float, float]:
    """(L1, D1, Q1) for the pair over the cross-section."""
    return _cone_row(_level_sums(_terms(fA, 2), (fA, fB), dom), fA.grid.dx, pair=True)


def _cumtrapz(times: Sequence[float], values: Sequence[float]) -> list[float]:
    """Running trapezoid integral of values over times from 0, each area and
    each running sum rounded as NumPy's elementwise terms and np.cumsum
    round them."""
    out = [0.0] * min(len(values), 1)
    for i in range(1, len(values)):
        area = 0.5 * (values[i] + values[i - 1]) * (times[i] - times[i - 1])
        out.append(area if i == 1 else out[-1] + area)
    return out


def _argmax(values: Sequence[float]) -> int:
    """np.argmax of values: the first largest one, or the first nan."""
    j = 0
    for i, x in enumerate(values):
        if x != x:
            return i
        if x > values[j]:
            j = i
    return j


@record
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


def _trace(snapshots: Sequence[SpinorField], rows: list, pair_rows: Optional[list] = None) -> FunctionalTrace:
    times = [s.t for s in snapshots]
    L0, D0, Q0 = zip(*rows)
    mau = np.array([float(np.max(np.abs(s.u))) for s in snapshots])
    mav = np.array([float(np.max(np.abs(s.v))) for s in snapshots])
    pair = {}
    if pair_rows is not None:
        L1, D1, Q1 = zip(*pair_rows)
        pair = dict(L1=np.array(L1), D1=np.array(D1), Q1=np.array(Q1), cumD1=np.array(_cumtrapz(times, D1)))
    L0 = np.array(L0)
    return FunctionalTrace(np.array(times), L0, np.array(D0), np.array(Q0), np.array(_cumtrapz(times, D0)),
                           L0, mau, mav, **pair)


def trace_base(snapshots: Sequence[SpinorField], dom: Optional[TriangleDomain] = None) -> FunctionalTrace:
    """Base functionals of each snapshot; the charge column is L0, which is
    charge(s, dom) bit for bit."""
    terms = _terms(snapshots[0], 1)
    return _trace(snapshots, [_cone_row(_level_sums(terms, (s,), dom), terms.dx) for s in snapshots])


def trace_pair(
    snapsA: Sequence[SpinorField],
    snapsB: Sequence[SpinorField],
    dom: Optional[TriangleDomain],
) -> FunctionalTrace:
    """Base functionals of the first field plus the pair functionals, from
    one two-run pass per level; the base columns are trace_base's."""
    if len(snapsA) != len(snapsB):
        raise UsageError("pair traces need snapshot sequences of equal length")
    terms = _terms(snapsA[0], 2)
    rows, pair_rows = [], []
    for a, b in zip(snapsA, snapsB):
        sums = _level_sums(terms, (a, b), dom)
        pair_rows.append(_cone_row(sums, terms.dx, pair=True))
        rows.append(_cone_row(sums, terms.dx))
    return _trace(snapsA, rows, pair_rows)


# ---------------------------------------------------------------------------
# Audits
#
# Each evolved audit is a reduction over the rows AuditPass keeps, one per
# level, t = 0 included: (t, sums, margins, sites, edge_u, edge_v), where
# sums, margins and sites are what the level's kernels.level_terms pass left
# in its LevelTerms, as Python numbers, and edge_u and edge_v are run A's
# |u|^2 at the cone's right edge and |v|^2 at its left edge (None past tau,
# or without the triangle audit). start(levels, terms, sums) takes the runs'
# levels at t = 0 with their terms and sums and raises every usage or
# precondition error: AuditPass calls it on its first call, which evolve
# makes before any step, so a refused audit costs no step. report(rows)
# reads the rows once and returns the AuditReport, with the float
# operations, in the order, that a reduction fed each level as it came
# would make; _cone_columns turns the sums of the levels inside the cone
# into the functionals' columns. A reduction keeps numbers, never a level.
# AuditPass serves every selected audit from one pass over runs evolved in
# lockstep, and the sequence-taking functions below feed the same pass from
# lists.


def _require_every_step(snapshots: Sequence[SpinorField]):
    dt = snapshots[0].grid.dt
    ts = np.array([s.t for s in snapshots])
    if len(ts) > 1 and np.max(np.abs(np.diff(ts) - dt)) > 1e-9 * dt:
        raise UsageError("audit needs snapshots recorded at every step")


def _inside(rows: list, dom: TriangleDomain) -> tuple[list, list]:
    """The times and the sums of the rows of the levels inside the cone up
    to its apex."""
    apex = dom.apex_time + 1e-12
    inside = [row for row in rows if row[0] <= apex]
    return [row[0] for row in inside], [row[1] for row in inside]


class TotalCharge:
    """Drift of the total charge over the run against an O(dx^2) budget."""

    def __init__(self, T: float, c_tol: float):
        self.T, self.c_tol = T, c_tol

    def start(self, levels: tuple, terms: kernels.LevelTerms, sums: list):
        self.q0, self.dx = sums[0] * terms.dx, terms.dx  # charge(levels[0]) bit for bit

    def report(self, rows: list) -> AuditReport:
        drift = 0.0
        for _, sums, _, _, _, _ in rows:
            drift = max(drift, abs(sums[0] * self.dx - self.q0))  # charge() of each level bit for bit
        # NumPy's power: inf, not OverflowError, for a grid spacing past 1e154;
        # a zero C_tol times an inf charge is nan, and the audit fails
        with np.errstate(over="ignore", invalid="ignore"):
            budget = self.c_tol * np.float64(self.dx) ** 2 * (1.0 + self.q0) * max(self.T, 1.0)
        return AuditReport(
            inequality="total charge conservation over the run",
            passed=drift <= budget,
            max_violation=drift,
            tolerance_budget=budget,
            info={"initial_charge": float(self.q0)},
        )


class TriangleCharge:
    """Cone charge balance up to tau, from the edge flux densities of each
    level up to tau and the interior charges at t = 0 and at tau."""

    def __init__(self, dom: TriangleDomain, tau: float, c_tol: float):
        self.dom, self.tau, self.c_tol = dom, tau, c_tol

    def start(self, levels: tuple, terms: kernels.LevelTerms, sums: list):
        f0, dom = levels[0], self.dom
        self.ia = f0.grid.index_of(dom.a)  # also validates lattice alignment
        self.ib = f0.grid.index_of(dom.b)
        if not -1e-12 <= self.tau <= dom.apex_time + 1e-12:
            raise UsageError(f"tau={self.tau} outside the cone's span [0.0, {dom.apex_time}]")
        self.dx, self.dt = f0.grid.dx, f0.grid.dt
        self.interior0 = sums[kernels.SECTION_SUMS[0]] * self.dx  # charge(f0, dom) bit for bit

    def report(self, rows: list) -> AuditReport:
        tau, interior0, dt = self.tau, self.interior0, self.dt
        flux_u, flux_v, interior_tau = [], [], None
        for t, sums, _, _, edge_u, edge_v in rows:
            if t > tau + 1e-12:
                continue
            flux_u.append(edge_u)
            flux_v.append(edge_v)
            # the last level up to tau must be the one at tau
            at_tau = abs(t - tau) <= 1e-9 * max(1.0, abs(tau))
            interior_tau = sums[kernels.SECTION_SUMS[0]] * self.dx if at_tau else None
        if interior_tau is None:
            raise UsageError("snapshots do not reach tau")
        n = len(flux_u)
        # the trapezoid weights; a single level (tau = 0) spans no time and has none
        w = [0.5 * dt] + [dt] * (n - 2) + [0.5 * dt] if n > 1 else []
        # each edge's trapezoid sum: the products rounded as NumPy's, summed by np.add.reduce
        flux_u, flux_v = (np.array([f * x for f, x in zip(flux, w)]) for flux in (flux_u, flux_v))
        boundary = 2.0 * float(np.add.reduce(flux_u)) + 2.0 * float(np.add.reduce(flux_v))
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

    def start(self, levels: tuple, terms: kernels.LevelTerms, sums: list):
        grid, dom = levels[0].grid, self.dom
        ia = grid.index_of(dom.a)
        ib = grid.index_of(dom.b)
        self.x_min, self.dx = grid.x_min, grid.dx
        # over the closed [a, b], not the section: one NumPy sum per pass
        self.charge0 = float(np.add.reduce(terms.dens[0, ia : ib + 1])) * grid.dx
        if not self.charge0 < self.C0:
            raise PreconditionError(
                f"initial charge {self.charge0} over [{dom.a}, {dom.b}] is not below C0={self.C0}"
            )

    def growth(self, t: float) -> float:
        """E(t) = exp(2|beta| C0 + m t)."""
        x = 2.0 * abs(self.p.beta) * self.C0 + self.p.m * t
        if x < 709.0:  # exp(x) is finite: no overflow for an errstate to silence
            return float(np.exp(x))
        with np.errstate(over="ignore"):
            return float(np.exp(x))

    def report(self, rows: list) -> AuditReport:
        worst, witness = 0.0, None
        for t, _, margins, sites, _, _ in rows:
            for margin, site in zip(margins, sites):
                if margin > worst:
                    worst = margin
                    witness = (t, self.x_min + site * self.dx)
        budget = tolerance_budget(self.dx, self.charge0, self.c_tol)
        return AuditReport(
            inequality="exponential pointwise/interval growth bounds in the cone",
            passed=worst <= budget,
            max_violation=worst,
            tolerance_budget=budget,
            witness=witness,
            info={"C0": self.C0, "initial_charge": self.charge0},
        )


class BonyDecay:
    """Decay of the interaction potential net of dissipation, from run A's
    rows inside the cone; the smallness hypothesis is checked at start."""

    def __init__(self, dom: TriangleDomain, k: EstimateConstants, p: ModelParams, c_tol: float):
        self.dom, self.k, self.p, self.c_tol = dom, k, p, c_tol

    def start(self, levels: tuple, terms: kernels.LevelTerms, sums: list):
        L00 = sums[kernels.SECTION_SUMS[0]] * terms.dx  # the base row's L0
        if not L00 <= self.k.delta0:
            raise PreconditionError(
                f"charge level {L00} over the base section exceeds the smallness threshold delta0={self.k.delta0}"
            )
        self.dx = levels[0].grid.dx

    def report(self, rows: list) -> AuditReport:
        p = self.p
        times, sums = _inside(rows, self.dom)
        L0, D0, Q0 = _cone_columns(sums, self.dx)
        L00 = np.float64(L0[0])  # squared to inf, not OverflowError, past 1e154
        rise = float(2.0 * p.m * L00**2)
        vio = [q + c - (rise * (t - times[0]) + Q0[0]) for t, q, c in zip(times, Q0, _cumtrapz(times, D0))]
        j = _argmax(vio)
        worst = max(vio[j], 0.0)
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
    """Pair-difference envelope from the rows inside the cone of runs A and
    B and of the pair; the pair smallness hypothesis is checked at start."""

    def __init__(self, dom: TriangleDomain, k: EstimateConstants, p: ModelParams, c_tol: float):
        self.dom, self.k, self.p, self.c_tol = dom, k, p, c_tol

    def start(self, levels: tuple, terms: kernels.LevelTerms, sums: list):
        k = self.k
        L0A, L0B = (sums[at] * terms.dx for at in kernels.SECTION_SUMS)  # charge(f, dom) of each run
        if not (L0A < k.delta and L0B < k.delta):
            raise PreconditionError(
                f"charge levels ({L0A}, {L0B}) not both below the pair smallness threshold delta={k.delta}"
            )
        self.dx = levels[0].grid.dx

    def report(self, rows: list) -> AuditReport:
        k, p = self.k, self.p
        times, sums = _inside(rows, self.dom)
        L0A, D0A, _ = _cone_columns(sums, self.dx)
        L0B, D0B, _ = _cone_columns(sums, self.dx, run=1)
        L1, D1, Q1 = _cone_columns(sums, self.dx, pair=True)
        # each term is rounded as the elementwise NumPy expression in its comment
        elapsed = [t - times[0] for t in times]
        rise = 2.0 * p.m * (L0A[0] + L0B[0])
        # h3 = rise * elapsed + cumtrapz(times, c (D0A + D0B))
        h3 = [rise * e + c for e, c in zip(elapsed, _cumtrapz(times, [k.c * (a + b) for a, b in zip(D0A, D0B)]))]
        seed = L1[0] + k.K * Q1[0]
        growth = np.exp(np.array(h3)).tolist()

        # L1 + K Q1 - seed exp(h3)
        vio_env = [l1 + k.K * q1 - seed * g for l1, q1, g in zip(L1, Q1, growth)]
        d = k.delta
        slope = 4.0 * p.m * d + 4.0 * p.m * d * d * k.c
        # cumtrapz(times, D1) - seed ((slope elapsed + 2 c delta^2) + 1) exp(h3)
        vio_d1 = [c - seed * (slope * e + 2.0 * k.c * d * d + 1.0) * g
                  for e, c, g in zip(elapsed, _cumtrapz(times, D1), growth)]
        # h3 - (4 m (delta + delta^2) elapsed + 2 delta^2)
        vio_h3 = [h - (4.0 * p.m * (d + d * d) * e + 2.0 * d * d) for e, h in zip(elapsed, h3)]

        budget = tolerance_budget(self.dx, L0A[0] + L0B[0], self.c_tol)
        worst = 0.0
        witness = None
        for name, vio in (("envelope", vio_env), ("dissipation", vio_d1), ("exponent_ceiling", vio_h3)):
            j = _argmax(vio)
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
    """Observer of run A, or of runs A and B in lockstep, that keeps one row
    of numbers per level, from which each selected evolved audit reports.

    names are among charge, triangle, pointwise, bony and gronwall; run B
    (the perturbed run) is read only by gronwall. The first call, with the
    runs' levels at t = 0 that evolve passes before any step, starts each
    audit on their terms and raises the first usage or precondition error in
    the order charge, triangle, pointwise, bony, gronwall. The constructor
    refuses a cone audit without a domain, before any level. The runs of one
    call share one grid and one time, as evolve's lockstep runs do.

    Each level costs one ``LevelTerms.write`` into the terms the first call
    allocates, which computes every term and sum the audits read (on a
    ``LevelPool``'s views, with the addresses checked once per generation),
    and one row appended to ``rows``: (t, sums, margins, sites, edge_u,
    edge_v), as the comment at the head of the audits lays out.
    ``report(name)`` reduces the rows once.
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
        cone = [name for name in ("triangle", "pointwise", "bony", "gronwall") if name in names]
        if cone and dom is None:
            raise UsageError(f"the {cone[0]} audit needs a cone domain, got None")
        self.dom, self.tau = dom, tau
        self.runs = 2 if "gronwall" in names else 1
        self.terms: Optional[kernels.LevelTerms] = None  # allocated by the first call
        self.rows: list[tuple] = []
        self.audits: dict = {}
        if "charge" in names:
            self.audits["charge"] = TotalCharge(T, c_tol)
        if "triangle" in names:
            self.audits["triangle"] = TriangleCharge(dom, tau, c_tol)
        if "pointwise" in names:
            self.audits["pointwise"] = PointwiseGrowth(dom, C0, p, c_tol)
        if "bony" in names:
            self.audits["bony"] = BonyDecay(dom, k, p, c_tol)
        if "gronwall" in names:
            self.audits["gronwall"] = GronwallEnvelope(dom, k, p, c_tol)
        self._growth = self.audits["pointwise"].growth if "pointwise" in names else None
        self._edges = None  # the triangle audit's (ia, ib), once started

    def __call__(self, levels: tuple):
        f, dom = levels[0], self.dom
        t = f.t
        i0 = i1 = kshift = 0
        E = None
        if dom is not None:
            kshift = round(t / f.grid.dt)  # the feet, kshift sites back along each characteristic
            if t <= dom.apex_time + 1e-12:  # the cone's section at this level, empty past the apex
                i0, i1 = dom.section_indices(f.grid, t)
                if self._growth is not None:
                    E = self._growth(t)
        fields = (f.u, f.v) if self.runs == 1 else (f.u, f.v, levels[1].u, levels[1].v)
        terms = self.terms
        if terms is None:
            terms = self._start(levels, fields, i0, i1, kshift, E)
        else:
            terms.write(fields, i0, i1, kshift, E)
        edge_u = edge_v = None
        if self._edges is not None and t <= self.tau + 1e-12:
            ia, ib = self._edges
            edge_u, edge_v = terms.au.item(0, ib - kshift), terms.av.item(0, ia + kshift)
        self.rows.append((t, terms.sums.tolist(), terms.margins.tolist(), terms.sites.tolist(), edge_u, edge_v))

    def _start(self, levels: tuple, fields: tuple, i0: int, i1: int, kshift: int, E) -> kernels.LevelTerms:
        """The first call's terms, written for the levels at t = 0, with
        every audit started on them."""
        f0, pointwise = levels[0], self.audits.get("pointwise")
        if any(name != "charge" for name in self.audits) and abs(f0.t) > 1e-12:
            raise UsageError("snapshots must start at the cone's base time t = 0")
        growth = {} if pointwise is None else {"origin": (f0.u, f0.v), "m": pointwise.p.m, "C0": pointwise.C0}
        # A huge but finite datum may overflow in the terms and the start
        # values without a warning: the preconditions refuse an inf charge.
        # A later level's run blows up at the next step, or its report
        # carries the inf.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = kernels.LevelTerms(f0.grid.n_points, self.runs, f0.grid.dx, **growth)
            terms.write(fields, i0, i1, kshift, E)
            sums = terms.sums.tolist()
            for audit in self.audits.values():
                audit.start(levels, terms, sums)
        self.terms = terms  # the pass is started once every start passed
        if "triangle" in self.audits:
            self._edges = self.audits["triangle"].ia, self.audits["triangle"].ib
        return terms

    def report(self, name: str) -> AuditReport:
        if self.terms is None:
            raise UsageError("the audit pass has been fed no level")
        return self.audits[name].report(self.rows)


def _audited(name: str, runs: Sequence[Sequence[SpinorField]], dom, k=None, p=None, **kw) -> AuditReport:
    """One audit of snapshot lists (run A, and run B for gronwall), fed to an
    AuditPass as a lockstep run would be. The cone audits need every step;
    the total charge takes any recorded levels."""
    if name != "charge":
        for snaps in runs:
            _require_every_step(snaps)
    audits = AuditPass([name], dom, k, p, **kw)
    for levels in zip(*runs):
        if len(levels) == 2:
            _check_same_frame(*levels)
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
