"""The evolved audits as streaming reductions: each level is fed to every
audit as it comes, and the audits keep running values (the largest drift,
the edge fluxes, the worst margin, the cone rows). This is the arithmetic
``functionals.AuditPass`` had before it kept one row per level and reduced
the rows at report time; ``tests/test_audit_rows.py`` requires the two to
report the same bits.

``StreamingAuditPass`` takes the constructor arguments of
``functionals.AuditPass`` and is fed the same levels. Each level is written
with ``kernels.level_terms``, the kernels' checked entry, so only the
reductions differ from the pass under test.
"""
from __future__ import annotations

import numpy as np

from lcdirac import kernels
from lcdirac.errors import PreconditionError, UsageError
from lcdirac.fields import _check_same_frame
from lcdirac.functionals import _argmax, _cumtrapz
from lcdirac.reports import C_TOL, AuditReport, tolerance_budget


def _cone_row(sums, dx, run=0, pair=False):
    if pair:
        l1, d1, q1u, q1v = sums[kernels.PAIR_SUMS :]
        return l1 * dx, d1 * dx, (q1u + q1v) * dx * dx
    at = kernels.SECTION_SUMS[run]
    dens, prod, q = sums[at : at + 3]
    return dens * dx, prod * dx, q * dx * dx


class TotalCharge:
    def __init__(self, T, c_tol):
        self.T, self.c_tol = T, c_tol
        self.drift = 0.0

    def start(self, levels, terms, sums):
        self.q0, self.dx = sums[0] * terms.dx, terms.dx

    def feed(self, levels, terms, sums):
        self.drift = max(self.drift, abs(sums[0] * self.dx - self.q0))

    def report(self):
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
    def __init__(self, dom, tau, c_tol):
        self.dom, self.tau, self.c_tol = dom, tau, c_tol
        self.flux_u, self.flux_v = [], []
        self.interior_tau = None

    def start(self, levels, terms, sums):
        f0, dom = levels[0], self.dom
        self.ia = f0.grid.index_of(dom.a)
        self.ib = f0.grid.index_of(dom.b)
        if not -1e-12 <= self.tau <= dom.apex_time + 1e-12:
            raise UsageError(f"tau={self.tau} outside the cone's span [0.0, {dom.apex_time}]")
        self.dx, self.dt = f0.grid.dx, f0.grid.dt
        self.interior0 = sums[kernels.SECTION_SUMS[0]] * self.dx

    def feed(self, levels, terms, sums):
        f, tau = levels[0], self.tau
        if f.t > tau + 1e-12:
            return
        kshift = round(f.t / self.dt)
        self.flux_u.append(terms.au[0, self.ib - kshift])
        self.flux_v.append(terms.av[0, self.ia + kshift])
        at_tau = abs(f.t - tau) <= 1e-9 * max(1.0, abs(tau))
        self.interior_tau = sums[kernels.SECTION_SUMS[0]] * self.dx if at_tau else None

    def report(self):
        if self.interior_tau is None:
            raise UsageError("snapshots do not reach tau")
        interior0, interior_tau, dt = self.interior0, self.interior_tau, self.dt
        n = len(self.flux_u)
        w = [0.5 * dt] + [dt] * (n - 2) + [0.5 * dt] if n > 1 else []
        flux_u, flux_v = (np.array([float(f) * x for f, x in zip(flux, w)]) for flux in (self.flux_u, self.flux_v))
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
    def __init__(self, dom, C0, p, c_tol):
        self.dom, self.C0, self.p, self.c_tol = dom, C0, p, c_tol
        self.worst = 0.0
        self.witness = None

    def start(self, levels, terms, sums):
        grid, dom = levels[0].grid, self.dom
        ia = grid.index_of(dom.a)
        ib = grid.index_of(dom.b)
        self.dx = grid.dx
        self.charge0 = float(np.add.reduce(terms.dens[0, ia : ib + 1])) * grid.dx
        if not self.charge0 < self.C0:
            raise PreconditionError(
                f"initial charge {self.charge0} over [{dom.a}, {dom.b}] is not below C0={self.C0}"
            )

    def growth(self, t):
        return float(np.exp(2.0 * abs(self.p.beta) * self.C0 + self.p.m * t))

    def feed(self, levels, terms, sums):
        s = levels[0]
        for margin, site in zip(terms.margins.tolist(), terms.sites.tolist()):
            if margin > self.worst:
                self.worst = margin
                self.witness = (s.t, s.grid.x_min + site * s.grid.dx)

    def report(self):
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
    def __init__(self, dom, run=0, pair=False):
        self.dom, self.run, self.pair = dom, run, pair
        self.times, self.rows = [], []

    def feed(self, levels, terms, sums):
        f = levels[self.run]
        if f.t > self.dom.apex_time + 1e-12:
            return
        self.times.append(f.t)
        self.rows.append(_cone_row(sums, terms.dx, self.run, self.pair))

    def columns(self):
        return (self.times, *zip(*self.rows))


class BonyDecay:
    def __init__(self, rows, k, p, c_tol):
        self.rows, self.k, self.p, self.c_tol = rows, k, p, c_tol

    def start(self, levels, terms, sums):
        L00 = sums[kernels.SECTION_SUMS[0]] * terms.dx
        if not L00 <= self.k.delta0:
            raise PreconditionError(
                f"charge level {L00} over the base section exceeds the smallness threshold delta0={self.k.delta0}"
            )
        self.dx = levels[0].grid.dx

    def report(self):
        p = self.p
        times, L0, D0, Q0 = self.rows.columns()
        L00 = np.float64(L0[0])
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
                "seed_ratio_measured": float(Q0[0] / L00**2) if L00**2 > 0 else 0.0,
            },
        )


class GronwallEnvelope:
    def __init__(self, rows_a, rows_b, pair, k, p, c_tol):
        self.rows_a, self.rows_b, self.pair = rows_a, rows_b, pair
        self.k, self.p, self.c_tol = k, p, c_tol

    def start(self, levels, terms, sums):
        k = self.k
        L0A, L0B = (sums[at] * terms.dx for at in kernels.SECTION_SUMS)
        if not (L0A < k.delta and L0B < k.delta):
            raise PreconditionError(
                f"charge levels ({L0A}, {L0B}) not both below the pair smallness threshold delta={k.delta}"
            )
        self.dx = levels[0].grid.dx

    def report(self):
        k, p = self.k, self.p
        times, L0A, D0A, _ = self.rows_a.columns()
        _, L0B, D0B, _ = self.rows_b.columns()
        _, L1, D1, Q1 = self.pair.columns()
        elapsed = [t - times[0] for t in times]
        rise = 2.0 * p.m * (L0A[0] + L0B[0])
        h3 = [rise * e + c for e, c in zip(elapsed, _cumtrapz(times, [k.c * (a + b) for a, b in zip(D0A, D0B)]))]
        seed = L1[0] + k.K * Q1[0]
        growth = np.exp(np.array(h3)).tolist()
        vio_env = [l1 + k.K * q1 - seed * g for l1, q1, g in zip(L1, Q1, growth)]
        d = k.delta
        slope = 4.0 * p.m * d + 4.0 * p.m * d * d * k.c
        vio_d1 = [c - seed * (slope * e + 2.0 * k.c * d * d + 1.0) * g
                  for e, c, g in zip(elapsed, _cumtrapz(times, D1), growth)]
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


class StreamingAuditPass:
    """Feeds each level once to one reduction per selected audit."""

    def __init__(self, names, dom, k, p, *, T=None, tau=None, C0=None, c_tol=C_TOL):
        cone = [name for name in ("triangle", "pointwise", "bony", "gronwall") if name in names]
        if cone and dom is None:
            raise UsageError(f"the {cone[0]} audit needs a cone domain, got None")
        self.dom = dom
        self.terms = None
        self.audits = {}
        if "charge" in names:
            self.audits["charge"] = TotalCharge(T, c_tol)
        if "triangle" in names:
            self.audits["triangle"] = TriangleCharge(dom, tau, c_tol)
        if "pointwise" in names:
            self.audits["pointwise"] = PointwiseGrowth(dom, C0, p, c_tol)
        self.fed = list(self.audits.values())
        if "bony" in names or "gronwall" in names:
            rows_a = ConeRows(dom)
            self.fed.append(rows_a)
        if "bony" in names:
            self.audits["bony"] = BonyDecay(rows_a, k, p, c_tol)
        if "gronwall" in names:
            rows_b, pair = ConeRows(dom, run=1), ConeRows(dom, pair=True)
            self.fed += [rows_b, pair]
            self.audits["gronwall"] = GronwallEnvelope(rows_a, rows_b, pair, k, p, c_tol)

    def __call__(self, levels):
        f, dom = levels[0], self.dom
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.terms or self._allocate(f)
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
            sums = kernels.level_terms(terms, [(lv.u, lv.v) for lv in runs], i0, i1, kshift, E)
            if self.terms is None:
                for audit in self.audits.values():
                    audit.start(levels, terms, sums)
                self.terms = terms
            for reduction in self.fed:
                reduction.feed(levels, terms, sums)

    def _allocate(self, f0):
        pointwise = self.audits.get("pointwise")
        if any(name != "charge" for name in self.audits) and abs(f0.t) > 1e-12:
            raise UsageError("snapshots must start at the cone's base time t = 0")
        growth = {}
        if pointwise is not None:
            growth = {"origin": (f0.u, f0.v), "m": pointwise.p.m, "C0": pointwise.C0}
        runs = 2 if "gronwall" in self.audits else 1
        return kernels.LevelTerms(f0.grid.n_points, runs, f0.grid.dx, **growth)

    def report(self, name):
        if self.terms is None:
            raise UsageError("the audit pass has been fed no level")
        return self.audits[name].report()
