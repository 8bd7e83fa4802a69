"""AuditPass keeps one row of numbers per level and its audits reduce the
rows at report time. Their reports must be, bit for bit and on every
backend, those of the same audits as streaming reductions fed each level as
it comes (``streaming_oracle.py``): on every golden audit config, on a cone
whose apex comes before T, with tau before T, on a run of one level
(T = 0), and on a gain mutant that fails the pointwise audit.
"""
import numpy as np
import pytest

import lcdirac as lc
from lcdirac import cli, functionals, kernels
from lcdirac.errors import PreconditionError, UsageError

from conftest import backend
from make_golden import CONFIGS, run_config
from streaming_oracle import StreamingAuditPass

GN_DATUM = lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", 0.07, center=-0.5, width=0.8),
                          lc.ComponentSpec("gaussian_pulse", 0.055, center=0.5, width=0.9))


def _bits(x):
    """x with every float as its exact hex digits (NaN as 'nan'), through
    containers and records."""
    if isinstance(x, (float, np.floating)):
        return "nan" if x != x else float(x).hex()
    if isinstance(x, dict):
        return {key: _bits(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(value) for value in x]
    if hasattr(x, "__dict__"):
        return type(x).__name__, _bits(vars(x))
    return x


def _outcome(audits, name):
    """The bits of one report, or the error it raises."""
    try:
        return _bits(audits.report(name))
    except (UsageError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


class Both:
    """An observer that feeds every level to an AuditPass and to the
    streaming oracle; it reports as the AuditPass does."""

    def __init__(self, *args, **kw):
        self.rows = functionals.AuditPass(*args, **kw)
        self.streaming = StreamingAuditPass(*args, **kw)

    def __call__(self, levels):
        self.rows(levels)
        self.streaming(levels)

    def report(self, name):
        return self.rows.report(name)

    def outcomes(self):
        """{name: (the row reduction's outcome, the oracle's)} for every audit."""
        return {name: (_outcome(self.rows, name), _outcome(self.streaming, name)) for name in self.rows.audits}


def _assert_same(both: Both):
    outcomes = both.outcomes()
    assert outcomes
    for name, (rows, streaming) in outcomes.items():
        assert rows == streaming, name
    return {name: rows for name, (rows, _) in outcomes.items()}


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("config", sorted(c for c in CONFIGS if CONFIGS[c]["command"] == "audit"))
def test_golden_audit_configs_report_the_streaming_bits(tmp_path, monkeypatch, name, config):
    made = []
    monkeypatch.setattr(cli, "AuditPass", lambda *args, **kw: made.append(Both(*args, **kw)) or made[-1])
    with backend(name):
        run_config(CONFIGS[config], tmp_path)
        (both,) = made
        _assert_same(both)


def _evolved(name, gn, gn_constants, grid, dom, T, tau):
    """Both passes over runs A and B of the Gross-Neveu pulses evolved to T
    in lockstep, every evolved audit selected."""
    f0 = lc.sample_initial(GN_DATUM, grid)
    with backend(name):
        both = Both(cli.EVOLVED_AUDITS, dom, gn_constants, gn, T=T, tau=tau, C0=lc.charge(f0) + 1.0)
        lc.evolve([f0, cli._perturbed(f0, 1e-3)], gn, lc.SolverConfig(), T, observers=[both])
        return _assert_same(both), both


@pytest.mark.parametrize("name", kernels.available_backends())
def test_cone_whose_apex_comes_before_T(name, gn, gn_constants):
    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    dom = lc.TriangleDomain(-1.0, 1.0)
    reports, both = _evolved(name, gn, gn_constants, g, dom, 1.5, cli._snap_tau(dom, 1.5, g.dt))
    times = [row[0] for row in both.rows.rows]
    assert times[-1] == 1.5 and max(t for t in times if t <= dom.apex_time) == dom.apex_time
    assert all(reports[a][1]["passed"] for a in reports)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_tau_before_T(name, gn, gn_constants):
    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    dom = lc.TriangleDomain(-4.0, 4.0)
    reports, both = _evolved(name, gn, gn_constants, g, dom, 1.0, 0.5)
    assert reports["triangle"][1]["witness"] in (None, [(0.5).hex(), None])
    # the edge samples of the 5 levels up to tau are read, those past it never
    at, rows = both.rows.terms.edges_at, both.rows.rows
    assert sum(t <= 0.5 + 1e-12 and np.isfinite(row[at : at + 2]).all() for t, row in rows) == 5
    for t, row in rows:
        if t > 0.5 + 1e-12:
            row[at] = row[at + 1] = np.nan
    assert _outcome(both.rows, "triangle") == reports["triangle"]


@pytest.mark.parametrize("name", kernels.available_backends())
def test_run_of_one_level(name, gn, gn_constants):
    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    reports, both = _evolved(name, gn, gn_constants, g, lc.TriangleDomain(-4.0, 4.0), 0.0, 0.0)
    assert len(both.rows.rows) == 1 and len(reports) == len(cli.EVOLVED_AUDITS)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_gain_mutant_that_fails_pointwise(name, gn_constants):
    """Levels that grew by 5 % a step, fed from lists (fresh arrays, not
    a pool's), on a cone whose edges are the grid's first and last site: the
    pointwise audit fails, with the same worst margin and witness."""
    g = lc.make_grid(-6, 6, 192, "zero_inflow")
    dom = lc.TriangleDomain(g.x_min, g.x_min + (g.n_points - 1) * g.dx)
    model = lc.ModelParams(0.0, 1.0, 0.0)
    datum = lc.InitialDatum(lc.ComponentSpec("indicator_jump", 0.7, center=-0.5, halfwidth=2.0),
                            lc.ComponentSpec("gaussian_pulse", 0.9, center=0.5, width=0.8))
    snaps = lc.evolve(lc.sample_initial(datum, g), model, lc.SolverConfig(), dom.apex_time)
    mutant = [lc.SpinorField(g, s.t, s.u * 1.05**k, s.v) for k, s in enumerate(snaps)]
    with backend(name):
        both = Both(["charge", "triangle", "pointwise"], dom, gn_constants, model, T=dom.apex_time,
                    tau=snaps[-1].t, C0=lc.charge(mutant[0]) * 1.01)
        for level in mutant:
            both((level,))
        reports = _assert_same(both)
    assert reports["pointwise"][1]["passed"] == np.False_ and reports["pointwise"][1]["witness"] is not None


@pytest.mark.parametrize("name", kernels.available_backends())
def test_free_transport_ties_every_pointwise_margin(name, gn_constants):
    """Without mass or coupling the data are carried along the
    characteristics exactly, so every pointwise margin is 0.0 at every
    level, a tie with the starting worst: it names no witness."""
    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    dom = lc.TriangleDomain(-4.0, 4.0)
    free = lc.ModelParams(0.0, 0.0, 0.0)
    f0 = lc.sample_initial(GN_DATUM, g)
    with backend(name):
        both = Both(["pointwise"], dom, gn_constants, free, T=1.0, C0=lc.charge(f0) + 1.0)
        lc.evolve(f0, free, lc.SolverConfig(), 1.0, observers=[both])
        reports = _assert_same(both)
    at = both.rows.terms.margins_at
    assert all(row[at : at + 2] == [0.0, 0.0] for _, row in both.rows.rows)
    assert reports["pointwise"][1]["witness"] is None
