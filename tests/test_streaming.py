"""The one-pass audit, converge and unique commands against list-based runs.

The CLI evolves its runs in lockstep and feeds each level to per-level
reductions; these tests recompute the same artifacts from full snapshot
lists (the sequence-taking audit functions, and distances computed here),
check the blow-up and error precedence through ``main``, and bound the
levels and memory the audit pass keeps.
"""
import contextlib
import csv
import io
import json
import logging
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lcdirac as lc
from lcdirac import cli, functionals, kernels
from lcdirac.cli import main
from lcdirac.errors import BlowUpError, UsageError

from conftest import backend

GN_DATUM = lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", 0.07, center=-0.5, width=0.8),
                          lc.ComponentSpec("gaussian_pulse", 0.055, center=0.5, width=0.9))
GN_INIT = {
    "u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "center": -0.5, "width": 0.8},
    "v0": {"kind": "gaussian_pulse", "amplitude": 0.055, "center": 0.5, "width": 0.9},
}


def audit_doc(path, **over):
    doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 192, "boundary": "zero_inflow"},
        "time": {"T": 2.0},
        "init": GN_INIT,
        "domain": {"a": -4.0, "b": 4.0},
        "command": "audit",
        "audit_selection": list(cli.AUDITS),
        "audit": {"samples": 2000},
        "output": {"path": str(path / "run"), "format": "csv"},
    }
    doc.update(over)
    return doc


def keep_copies(seen):
    """An observer that appends copies of the levels it gets to seen: evolve's
    levels are valid only during the call."""
    return lambda levels: seen.append(tuple(lc.SpinorField(f.grid, f.t, f.u.copy(), f.v.copy()) for f in levels))


def run_main(tmp_path, doc, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    status = main([str(cfg_path)])
    return status, capsys.readouterr().err


def sequence_audits(cfg):
    """The audits file of cfg, computed from evolve's full snapshot lists."""
    p, k = cfg.model, cfg.constants
    dom = cfg.domain if cfg.domain is not None else cli._default_domain(cfg)
    f0 = lc.sample_initial(cfg.init, cfg.grid)
    snaps = lc.evolve(f0, p, lc.SolverConfig(), cfg.T)
    snaps_b = lc.evolve(cli._perturbed(f0, cfg.audit_perturbation), p, lc.SolverConfig(), cfg.T)
    tau = cli._snap_tau(dom, cfg.T, cfg.grid.dt)
    c0 = cfg.audit_c0 if cfg.audit_c0 is not None else lc.charge(f0) + 1.0
    reports = {
        "algebraic": lambda: lc.check_algebraic_bounds(cfg.audit_samples, p, k),
        "charge": lambda: functionals._audited("charge", [snaps], None, T=cfg.T, c_tol=cfg.c_tol),
        "triangle": lambda: lc.triangle_charge_audit(snaps, dom, tau, cfg.c_tol),
        "pointwise": lambda: lc.pointwise_audit(snaps, dom, c0, p, cfg.c_tol),
        "bony": lambda: lc.bony_decay_audit(snaps, dom, k, p, cfg.c_tol),
        "gronwall": lambda: lc.gronwall_audit(snaps, snaps_b, dom, k, p, cfg.c_tol),
    }
    records = []
    for name in cli.AUDITS:
        if name in cfg.audit_selection:
            records.append(cli._report_record(name, reports[name](), k))
    return cli.reports_csv(records)


STREAMING_CASES = {
    "gross_neveu": {},
    "thirring_periodic": {
        "model": {"m": 1.0, "alpha": 1.0, "beta": 0.0},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 192, "boundary": "periodic"},
    },
    "apex_before_T": {"domain": {"a": -1.0, "b": 1.0}, "time": {"T": 3.0}},
    "default_domain": {"domain": None, "time": {"T": 1.0}},
}


@pytest.mark.parametrize("case", sorted(STREAMING_CASES))
def test_cli_audits_equal_sequence_audits(tmp_path, capsys, case):
    over = dict(STREAMING_CASES[case])
    doc = audit_doc(tmp_path, **over)
    if doc["domain"] is None:
        del doc["domain"]
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0, err
    expected = sequence_audits(cli.parse_config(json.dumps(doc)))
    assert (tmp_path / "run_audits.csv").read_text() == expected


def test_nonzero_base_time_is_a_configuration_error(tmp_path, capsys):
    # every cone is based at t = 0; a base time is no key of the domain
    doc = audit_doc(tmp_path, domain={"a": -4.0, "b": 4.0, "t0": 0.5})
    with counted_steps() as steps:
        status, err = run_main(tmp_path, doc, capsys)
    assert status == 2 and "unknown key 'domain.t0'" in err and steps == [0]
    assert not (tmp_path / "run_audits.csv").exists()
    # snapshot lists that start later are refused by the list-form audits
    g = lc.make_grid(-6, 6, 192, "zero_inflow")
    snaps = lc.evolve(lc.sample_initial(GN_DATUM, g), lc.GROSS_NEVEU, lc.SolverConfig(), 1.0)
    with pytest.raises(UsageError, match="base time"):
        lc.triangle_charge_audit(snaps[8:], lc.TriangleDomain(-4.0, 4.0), 0.5)


def _pointwise_per_width(snaps, dom, C0, p):
    """Largest pointwise-audit margin and its witness, one window width at a
    time; also says whether a window (not a single site) attains it."""
    f0, grid = snaps[0], snaps[0].grid
    dx = grid.dx
    au0, av0 = np.abs(f0.u) ** 2, np.abs(f0.v) ** 2
    pre_u0 = np.concatenate([[0.0], np.cumsum(au0)])
    pre_v0 = np.concatenate([[0.0], np.cumsum(av0)])
    worst, witness, by_window = 0.0, None, False
    for s in snaps:
        if s.t > dom.apex_time + 1e-12:
            break
        kshift = round(s.t / grid.dt)
        E = float(np.exp(2.0 * abs(p.beta) * C0 + p.m * s.t))
        i0, i1 = dom.section_indices(grid, s.t)
        if i0 >= i1:
            continue
        au = s.u.real**2 + s.u.imag**2
        av = s.v.real**2 + s.v.imag**2
        for vio in (au[i0:i1] - E * (au0[i0 - kshift : i1 - kshift] + p.m * C0),
                    av[i0:i1] - E * (av0[i0 + kshift : i1 + kshift] + p.m * C0)):
            j = int(np.argmax(vio))
            if vio[j] > worst:
                worst, witness, by_window = float(vio[j]), (s.t, grid.x_min + (i0 + j) * dx), False
        pre_u = np.concatenate([[0.0], np.cumsum(au)])
        pre_v = np.concatenate([[0.0], np.cumsum(av)])
        width = 2
        while width <= i1 - i0:
            starts = np.arange(i0, i1 - width + 1, width // 2)
            su_t = (pre_u[starts + width] - pre_u[starts]) * dx
            sv_t = (pre_v[starts + width] - pre_v[starts]) * dx
            su_0 = (pre_u0[starts - kshift + width] - pre_u0[starts - kshift]) * dx
            sv_0 = (pre_v0[starts + kshift + width] - pre_v0[starts + kshift]) * dx
            vio = np.maximum(su_t - E * su_0, sv_t - E * sv_0) - E * p.m * C0 * (width * dx)
            j = int(np.argmax(vio))
            if vio[j] > worst:
                worst, witness, by_window = float(vio[j]), (s.t, grid.x_min + starts[j] * dx), True
            width *= 2
    return worst, witness, by_window


WINDOW_DATUM = lc.InitialDatum(lc.ComponentSpec("indicator_jump", 0.7, center=-0.5, halfwidth=2.0),
                              lc.ComponentSpec("gaussian_pulse", 0.9, center=0.5, width=0.8))


@pytest.mark.parametrize("model, gain, ramp, by_window", [
    (lc.GROSS_NEVEU, 0.0, False, False),
    (lc.ModelParams(0.0, 1.0, 0.0), 0.0, False, False),
    (lc.ModelParams(0.0, 1.0, 0.0), 1e-3, False, True),
    (lc.ModelParams(0.0, 1.0, 0.0), 1e-3, True, True),
])
def test_pointwise_windows_match_per_width_reference(model, gain, ramp, by_window):
    # gain > 0 inflates |u| by (1 + gain) per step, a broken solver whose
    # excess adds up over a window; massless, so no slack grows with the
    # window and a window is the witness. With the ramp the gain grows to
    # the right, so the worst window is the last one of its width.
    g = lc.make_grid(-6, 6, 384, "zero_inflow")
    dom = lc.TriangleDomain(-4.0, 4.0)
    snaps = lc.evolve(lc.sample_initial(WINDOW_DATUM, g), model, lc.SolverConfig(), 1.5)
    x = g.sites()
    shape = np.clip((x + 4.0) / 8.0, 0.0, 1.0) if ramp else 1.0
    snaps = [lc.SpinorField(g, s.t, s.u * (1.0 + gain * shape) ** k, s.v) for k, s in enumerate(snaps)]
    C0 = lc.charge(snaps[0]) * 1.01
    worst, witness, window_won = _pointwise_per_width(snaps, dom, C0, model)
    assert window_won == by_window
    for name in kernels.available_backends():
        with backend(name):
            rep = lc.pointwise_audit(snaps, dom, C0, model)
        assert (rep.max_violation, rep.witness) == (worst, witness), name


@pytest.mark.parametrize("name", kernels.available_backends())
def test_pointwise_cone_on_the_whole_grid(name):
    # The cone's edges sit on the grid's first and last site, so the feet of
    # the first and last window fall next to the ends of the level at t = 0,
    # and the bounds check lets every level through; a gain makes a window
    # the witness.
    g = lc.make_grid(-6, 6, 192, "zero_inflow")
    dom = lc.TriangleDomain(g.x_min, g.x_min + (g.n_points - 1) * g.dx)
    model = lc.ModelParams(0.0, 1.0, 0.0)
    snaps = lc.evolve(lc.sample_initial(WINDOW_DATUM, g), model, lc.SolverConfig(), dom.apex_time)
    snaps = [lc.SpinorField(g, s.t, s.u * 1.001**k, s.v) for k, s in enumerate(snaps)]
    C0 = lc.charge(snaps[0]) * 1.01
    worst, witness, window_won = _pointwise_per_width(snaps, dom, C0, model)
    with backend(name):
        rep = lc.pointwise_audit(snaps, dom, C0, model)
    assert (rep.max_violation, rep.witness) == (worst, witness)
    assert worst > 0 and window_won


def _cone_rows_oracle(levels, dom):
    """(L0, D0, Q0) of one run's levels, or (L1, D1, Q1) of a pair's, from
    the densities over each section with the O(N^2) ordered pair sum."""
    rows = []
    for lv in levels:
        f, dx = lv[0], lv[0].grid.dx
        sec = slice(*dom.section_indices(f.grid, f.t))
        au, av = ([np.abs(getattr(x, c)[sec]) ** 2 for x in lv] for c in "uv")
        if len(lv) == 1:
            a, b, c = au[0] + av[0], au[0] * av[0], kernels.q_upper_naive(au[0], av[0])
        else:
            aU2 = np.abs(lv[0].u[sec] - lv[1].u[sec]) ** 2
            aV2 = np.abs(lv[0].v[sec] - lv[1].v[sec]) ** 2
            umod, vmod = au[0] + au[1], av[0] + av[1]
            a, b = aU2 + aV2, aU2 * vmod + umod * aV2
            c = kernels.q_upper_naive(aU2, vmod) + kernels.q_upper_naive(umod, aV2)
        rows.append((np.sum(a) * dx, np.sum(b) * dx, c * dx * dx))
    return np.array(rows)


def _no_charge(*args):
    raise AssertionError("the audit pass called charge()")


@pytest.mark.parametrize("name", kernels.available_backends())
def test_cone_rows_equal_the_list_functionals(name, gn, gn_constants):
    """The rows the pass sums from level_terms' buffers are base_functionals
    and difference_functionals on every backend bit for bit, and an
    independent NumPy oracle's within rounding, down to the apex's sections
    of three, one and no sites; the charge drift is charge()'s. The pass
    calls charge() nowhere: every start value is a sum of the t = 0 terms
    and equals charge()'s bit for bit, and the reports are the list-form
    audits'."""
    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    f0 = lc.sample_initial(GN_DATUM, g)
    dom = lc.TriangleDomain(-1.0, 1.0)
    runs = [f0, cli._perturbed(f0, 1e-3)]
    tau, C0 = cli._snap_tau(dom, 1.5, g.dt), lc.charge(f0) + 1.0
    seen = []
    with backend(name), pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "charge", _no_charge)
        audits = functionals.AuditPass(cli.EVOLVED_AUDITS, dom, gn_constants, gn, T=1.5, tau=tau, C0=C0)
        with pytest.raises(UsageError, match="fed no level"):
            audits.report("charge")
        lc.evolve(runs, gn, lc.SolverConfig(), 1.5, observers=[audits, keep_copies(seen)])
        reports = {a: audits.report(a) for a in cli.EVOLVED_AUDITS}
        # gronwall's section charges of runs A and B, as its refusal prints them
        k = lc.EstimateConstants(gn_constants.c, gn_constants.delta0, gn_constants.c_star, gn_constants.K, 1e-9)
        with pytest.raises(lc.PreconditionError) as refused:
            functionals.AuditPass(["gronwall"], dom, k, gn)(tuple(runs))
    a0, b0 = runs
    started = audits.audits
    assert started["charge"].q0 == lc.charge(a0)
    assert started["triangle"].interior0 == lc.charge(a0, dom)
    closed = lc.TriangleDomain(dom.a - g.dx, dom.b + g.dx)  # the sites of [a, b] at t = 0
    assert started["pointwise"].charge0 == lc.charge(a0, closed)
    assert reports["bony"].info["L0_initial"] == lc.charge(a0, dom)
    assert f"({lc.charge(a0, dom)!r}, {lc.charge(b0, dom)!r}) not both below" in str(refused.value)
    snaps_a, snaps_b = [a for a, _ in seen], [b for _, b in seen]
    with backend(name):
        assert reports == {
            "charge": functionals._audited("charge", [snaps_a], None, T=1.5),
            "triangle": lc.triangle_charge_audit(snaps_a, dom, tau),
            "pointwise": lc.pointwise_audit(snaps_a, dom, C0, gn),
            "bony": lc.bony_decay_audit(snaps_a, dom, gn_constants, gn),
            "gronwall": lc.gronwall_audit(snaps_a, snaps_b, dom, gn_constants, gn),
        }
    inside = [lv for lv in seen if lv[0].t <= dom.apex_time + 1e-12]
    assert {len(range(*dom.section_indices(g, a.t))) for a, _ in inside} >= {0, 1, 3}
    _, sums = functionals._inside(audits.rows, dom)
    rows_a, rows_b, pair = (list(zip(*functionals._cone_columns(sums, g.dx, **kw)))
                            for kw in ({}, {"run": 1}, {"pair": True}))
    for other in kernels.available_backends():
        with backend(other):
            assert rows_a == [lc.base_functionals(a, dom) for a, _ in inside]
            assert rows_b == [lc.base_functionals(b, dom) for _, b in inside]
            assert pair == [lc.difference_functionals(a, b, dom) for a, b in inside]
    for rows, levels in ((rows_a, [(a,) for a, _ in inside]), (rows_b, [(b,) for _, b in inside]), (pair, inside)):
        np.testing.assert_allclose(np.array(rows), _cone_rows_oracle(levels, dom), rtol=1e-12, atol=0)
    q0 = lc.charge(f0)
    assert reports["charge"].max_violation == max(abs(lc.charge(a) - q0) for a, _ in seen)


def test_charge_audit_takes_the_largest_drift():
    g = lc.make_grid(-2, 2, 64, "periodic")
    f0 = lc.sample_initial(GN_DATUM, g)
    levels = [lc.SpinorField(g, k * g.dt, f0.u * c, f0.v) for k, c in enumerate([1.0, 1.2, 1.1, 0.95])]
    q = [lc.charge(f) for f in levels]
    rep = functionals._audited("charge", [levels], None, T=1.0)
    assert rep.max_violation == max(abs(x - q[0]) for x in q) == abs(q[1] - q[0])
    assert rep.info["initial_charge"] == q[0]


def test_pair_distance_weights_and_maximum():
    from lcdirac.harness import _PairDistances

    g = lc.make_grid(-2, 2, 64, "periodic")
    f0 = lc.sample_initial(GN_DATUM, g)
    scales = [(1.0, 1.0), (1.5, 1.0), (1.1, 0.95), (1.0, 0.9)]
    a = [lc.SpinorField(g, k * g.dt, f0.u, f0.v) for k in range(4)]
    b = [lc.SpinorField(g, k * g.dt, f0.u * su, f0.v * sv) for k, (su, sv) in enumerate(scales)]
    dist = _PairDistances(g, [(0, 1)])
    for x, y in zip(a, b):
        dist((x, y))
    assert dist.field[0] == max(lc.l2_distance(x, y) for x, y in zip(a, b)) == lc.l2_distance(a[1], b[1])
    assert dist.product_distances()[0] == _list_distances(a, b)[1]


def _real_product(a, b):
    """a b in real arithmetic, four products and two sums, as the distance pass forms it."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _list_distances(runs_a, runs_b, product=_real_product):
    field = max(lc.l2_distance(a, b) for a, b in zip(runs_a, runs_b))
    total, n = 0.0, len(runs_a)
    for j, (a, b) in enumerate(zip(runs_a, runs_b)):
        d = product(a.u, a.v) - product(b.u, b.v)
        row = float(np.sum(d.real**2 + d.imag**2)) * a.grid.dx
        total += (0.5 if j in (0, n - 1) else 1.0) * row * a.grid.dt
    return field, float(np.sqrt(total))


def _read_table(path):
    lines = path.read_text().splitlines()[1:]
    return [tuple(float(x) for x in line.split(",")) for line in lines]


@pytest.mark.parametrize("command", ["converge", "unique"])
def test_ladder_tables_equal_list_distances(tmp_path, capsys, command):
    eps = [0.5, 0.25, 0.125]
    doc = audit_doc(tmp_path, command=command, time={"T": 0.75},
                    mollify={"epsilons": eps, "kernel": "bump", "kernel_b": "triangle"})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0, err
    cfg = cli.parse_config(json.dumps(doc))

    def run(e, kernel):
        f0 = lc.mollify(lc.sample_initial(cfg.init, cfg.grid), e, kernel)
        return lc.evolve(f0, cfg.model, lc.SolverConfig(), cfg.T)

    if command == "converge":
        runs = [run(e, "bump") for e in eps]
        pairs = [(eps[j], eps[j + 1], runs[j], runs[j + 1]) for j in range(len(eps) - 1)]
        table = _read_table(tmp_path / "run_convergence.csv")
    else:
        pairs = [(e, e, run(e, "bump"), run(e, "triangle")) for e in eps]
        table = _read_table(tmp_path / "run_uniqueness.csv")
    assert table == [(e1, e2, *_list_distances(a, b)) for e1, e2, a, b in pairs]
    if command == "converge":
        # NumPy's complex product rounds as its CPU dispatch does: the same
        # distance to rounding. (The unique rows compare near-equal runs,
        # whose cancelling products leave a relative gap near 1e-14.)
        numpy_product = [_list_distances(a, b, np.multiply)[1] for *_, a, b in pairs]
        np.testing.assert_allclose([row[3] for row in table], numpy_product, rtol=1e-14, atol=0)


@pytest.mark.parametrize("command", ["converge", "unique"])
def test_ladder_samples_the_datum_once(tmp_path, capsys, monkeypatch, command):
    # every radius mollifies the one sampled field
    real, calls = lc.harness.sample_initial, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lc.harness, "sample_initial", counted)
    doc = audit_doc(tmp_path, command=command, time={"T": 0.125},
                    mollify={"epsilons": [1.0, 0.75, 0.5, 0.25, 0.125]})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0, err
    assert len(calls) == 1


# 64 sites on a periodic window of length 16: a radius past 16 wraps the
# kernel around the grid more than once
WINDOW_16 = {"x_min": -8.0, "x_max": 8.0, "n_points": 64, "boundary": "periodic"}
ROUGH_INIT = {"u0": {"kind": "indicator_jump", "amplitude": 1.0, "center": 0.0, "halfwidth": 2.0},
              "v0": {"kind": "uniform", "amplitude": 0.5}}


@pytest.mark.parametrize("command", ["converge", "unique"])
@pytest.mark.parametrize("eps", [16.5, 30.0, 1e6, 2**63, 1e308])
def test_radius_wider_than_the_window_is_refused(tmp_path, capsys, monkeypatch, command, eps):
    """Refused with exit 2, naming the radius and the window, before the
    datum is sampled: past the window the wrapped sum is wrong, at 1e6 the
    kernel has 8e6 taps on this grid, and 1e308 and 2**63 overflow the tap
    count."""
    calls = []
    monkeypatch.setattr(lc.harness, "sample_initial", lambda *args: calls.append(args))
    doc = audit_doc(tmp_path, command=command, grid=WINDOW_16, init=ROUGH_INIT, time={"T": 0.25},
                    mollify={"epsilons": [eps, 1.0] if command == "converge" else [eps]})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 2 and "Traceback" not in err
    assert f"mollification radius {float(eps)} exceeds the grid window x_max - x_min = 16.0" in err
    assert calls == []


@pytest.mark.parametrize("command", ["converge", "unique"])
def test_radius_equal_to_the_window_is_accepted(tmp_path, capsys, command):
    doc = audit_doc(tmp_path, command=command, grid=WINDOW_16, init=ROUGH_INIT, time={"T": 0.25},
                    mollify={"epsilons": [16.0, 1.0] if command == "converge" else [16.0]})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0, err


def test_mollify_at_the_window_equals_the_direct_periodic_sum():
    """At a radius equal to the window the taps span 2 * 64 - 1 sites, and
    the padded convolution still equals the sum over sites mod n."""
    grid = lc.make_grid(**WINDOW_16)
    f = lc.sample_initial(lc.InitialDatum(lc.ComponentSpec("indicator_jump", 1.0, center=0.0, halfwidth=2.0),
                                          lc.ComponentSpec("uniform", 0.5)), grid)
    w = lc.harness._kernel_taps(16.0, grid.dx, "bump")
    half, n = len(w) // 2, grid.n_points
    assert half == n - 1
    g = lc.mollify(f, 16.0)
    for data, got in ((f.u, g.u), (f.v, g.v)):
        want = [sum(w[j + half] * data[(i - j) % n] for j in range(-half, half + 1)) * grid.dx for i in range(n)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("fmt", ["csv", "structured-report"])
def test_every_audit_record_carries_the_run_constants(tmp_path, capsys, fmt):
    doc = audit_doc(tmp_path, time={"T": 0.5}, constants={"c_star": 20.0, "K": 45.0},
                    output={"path": str(tmp_path / "run"), "format": fmt})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0, err
    k = cli.parse_config(json.dumps(doc)).constants
    if fmt == "csv":
        with open(tmp_path / "run_audits.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
    else:
        records = json.loads((tmp_path / "run_audits.json").read_text())
    assert [r["audit"] for r in records] == list(cli.AUDITS)
    for rec in records:
        for name in ("c", "delta0", "c_star", "K", "delta"):
            assert float(rec[f"constants_{name}"]) == getattr(k, name), (rec["audit"], name)


# ---------------------------------------------------------------------------
# Blow-up and error precedence of the lockstep audit pass

HUGE_B = {"perturbation": 1e110, "samples": 2000}


def outside_cone(amplitude):
    """A narrow pulse at x = 5, outside the cone [-4, 4]: it passes every
    precondition of the audits whatever its amplitude."""
    pulse = {"kind": "gaussian_pulse", "amplitude": amplitude, "center": 5.0, "width": 0.05}
    return {"u0": pulse, "v0": pulse}


@contextlib.contextmanager
def counted_steps():
    """Count the calls of the step kernel; yields a one-element list."""
    real, calls = kernels.step_unforced, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "step_unforced", counted)
        yield calls


@pytest.mark.parametrize("domain", [{"a": -4.0, "b": 4.0}, {"a": -1.0, "b": 1.0}])
def test_blowup_in_a_writes_empty_audits(tmp_path, capsys, domain):
    # A and B blow up at the same step; A, the first run, is reported
    doc = audit_doc(tmp_path, init=outside_cone(10.0), domain=domain)
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 1 and "blow-up" in err and "at t=0.3125" in err and "Traceback" not in err
    assert (tmp_path / "run_audits.csv").read_text() == "\n"


def test_earlier_blowup_in_b_wins_over_later_blowup_in_a(tmp_path, capsys):
    # A (amplitude 10) blows up at its 5th step, B (A x 1e50) at its first:
    # B stops both runs, and no audits file is written
    doc = audit_doc(tmp_path, init=outside_cone(10.0), audit={"perturbation": 1e50, "samples": 2000})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 1 and "at t=0.0625" in err
    assert not (tmp_path / "run_audits.csv").exists()


def test_blowup_in_b_alone_writes_no_audits(tmp_path, capsys):
    doc = audit_doc(tmp_path, init=outside_cone(1e-3), audit=HUGE_B)
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 1 and "blow-up" in err and "Traceback" not in err
    assert not (tmp_path / "run_audits.csv").exists()


def test_blowup_in_b_says_it_is_the_perturbed_run(tmp_path, capsys):
    doc = audit_doc(tmp_path, init=outside_cone(1e-3), audit=HUGE_B)
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 1 and "Traceback" not in err
    assert err.splitlines() == [err.strip()] and err.startswith("blow-up: non-finite field value at x=")
    assert err.strip().endswith(" in the perturbed run B")
    assert not (tmp_path / "run_audits.csv").exists()


# Mollified at radius 1.0 this datum stays finite to T = 1; at radius 0.1
# it blows up, so the run that blows up comes after the first.
LADDER_BLOW_UP = {"u0": {"kind": "indicator_jump", "amplitude": 2.0, "halfwidth": 1.0},
                  "v0": {"kind": "power_singularity_truncated", "amplitude": 2.0, "halfwidth": 1.5,
                         "exponent": 0.3, "cap": 10.0}}


@pytest.mark.parametrize("command, families, label", [
    ("converge", ["bump"], "the run mollified at radius 0.1"),
    ("unique", ["bump", "triangle"], "the run mollified by bump at radius 0.1"),
])
def test_ladder_blowup_names_the_run(tmp_path, capsys, command, families, label):
    """A blow-up in converge or unique names the run's radius, and for
    unique its kernel family: the run that blows up first on its own (the
    first such in the ladder's order), at its own site and time. Exit 1, no
    artifact and no traceback."""
    from lcdirac import harness

    g = lc.make_grid(-8, 8, 512, "periodic")
    doc = {"model": {"m": 1.0, "alpha": 1.0, "beta": 0.0},
           "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 512, "boundary": "periodic"},
           "time": {"T": 1.0}, "init": LADDER_BLOW_UP, "command": command,
           "mollify": {"epsilons": [1.0, 0.1], "kernel": "bump", "kernel_b": "triangle"},
           "output": {"path": str(tmp_path / "run"), "format": "csv"}}
    f0s = harness._mollified(cli.parse_config(json.dumps(doc)).init, g, (1.0, 0.1), families)
    alone = []
    for run, f in enumerate(f0s):
        try:
            lc.evolve(f, lc.THIRRING, lc.SolverConfig(record_every=10**9), 1.0)
        except BlowUpError as exc:
            alone.append((exc.t, run, exc))
    assert [r for _, r, _ in alone] == list(range(len(families), 2 * len(families)))  # the runs at 0.1
    t, run, first = min(alone, key=lambda a: a[:2])
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 1 and "Traceback" not in err
    assert err == f"blow-up: {first} in {label}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("over, message", [
    ({"domain": {"a": -4.01, "b": 4.0}}, "not on the lattice"),
    ({"domain": {"a": -4.0, "b": 4.0, "t0": 0.25}}, "domain.t0"),
    ({"audit": {**HUGE_B, "c0": 0.0}}, "not below C0"),
    ({"constants": {"delta0": 1e-9}, "init": GN_INIT}, "smallness threshold delta0"),
])
def test_cone_audit_errors_win_over_blowup_in_b(tmp_path, capsys, over, message):
    # B alone would blow up; each error is raised before the first step
    doc = audit_doc(tmp_path, init=outside_cone(1e-3), audit=HUGE_B)
    doc.update(over)
    with counted_steps() as steps:
        status, err = run_main(tmp_path, doc, capsys)
    assert status == 2 and message in err and "blow-up" not in err
    assert steps == [0]
    assert not (tmp_path / "run_audits.csv").exists()


def test_pair_precondition_wins_over_blowup_in_b(tmp_path, capsys):
    # B (A x 1e110) fails the pair smallness hypothesis before it can blow up
    with counted_steps() as steps:
        status, err = run_main(tmp_path, audit_doc(tmp_path, audit=HUGE_B), capsys)
    assert status == 2 and "pair smallness" in err and steps == [0]
    status, err = run_main(tmp_path, audit_doc(tmp_path, constants={"delta": 1e-9}), capsys)
    assert status == 2 and "pair smallness" in err


def test_refused_audit_logs_no_horizon_shortfall(tmp_path, capsys, caplog):
    # the pass refuses the run at t = 0, before evolve logs that T = 2.01 is cut to 2.0
    doc = audit_doc(tmp_path, time={"T": 2.01}, constants={"delta0": 1e-9})
    with caplog.at_level(logging.WARNING, logger="lcdirac.solver"):
        status, err = run_main(tmp_path, doc, capsys)
    assert status == 2 and "smallness threshold delta0" in err
    assert not caplog.records
    assert run_main(tmp_path, audit_doc(tmp_path, time={"T": 2.01}), capsys)[0] == 0
    assert [r.message for r in caplog.records] == ["horizon 2.01 is not a step multiple; evolving to 2.0"]


README_AUDIT = {"u0": {"kind": "gaussian_pulse", "amplitude": 1e110, "center": -0.5, "width": 0.8},
                "v0": {"kind": "gaussian_pulse", "amplitude": 1e110, "center": 0.5, "width": 0.9}}
UNIFORM_1E307 = {"u0": {"kind": "uniform", "amplitude": 1e307}, "v0": {"kind": "uniform", "amplitude": 1e307}}
PERIODIC_16 = {"x_min": -8.0, "x_max": 8.0, "n_points": 1024, "boundary": "periodic"}

REFUSED = {
    "c0_zero": ({"audit": {"samples": 2000, "c0": 0.0}}, "not below C0"),
    "delta0": ({"constants": {"delta0": 1e-9}}, "smallness threshold delta0"),
    "delta": ({"constants": {"delta": 1e-9}}, "pair smallness threshold delta"),
    "misaligned_a": ({"domain": {"a": -4.01, "b": 4.0}}, "not on the lattice"),
    "domain_t0": ({"domain": {"a": -4.0, "b": 4.0, "t0": 0.0}}, "unknown key 'domain.t0'"),
    "samples_zero": ({"audit": {"samples": 0}}, "audit.samples must be >= 1"),
    "samples_1e10": ({"audit": {"samples": 10**10}}, "audit.samples 10000000000 exceeds 1e+07"),
    "readme_audit_1e110": ({"init": README_AUDIT, "grid": {**audit_doc(Path())["grid"], "n_points": 384}},
                           "exceeds the smallness threshold delta0"),
    "simulate_apex": ({"command": "simulate", "grid": {**audit_doc(Path())["grid"], "n_points": 768},
                       "domain": {"a": -1.0, "b": 1.0}, "time": {"T": 1.015625}},
                      "comes before the last recorded level at t=1.015625"),
    "converge_increasing": ({"command": "converge", "mollify": {"epsilons": [0.25, 0.5]}},
                            "epsilons must be nonincreasing"),
    "unique_increasing": ({"command": "unique", "mollify": {"epsilons": [0.25, 0.25, 0.5]}},
                          "epsilons must be nonincreasing"),
    "converge_one_radius": ({"command": "converge", "mollify": {"epsilons": [0.25]}},
                            "converge needs at least two mollify.epsilons"),
    "perturbation_overflow": ({"init": {"u0": {"kind": "uniform", "amplitude": 1e300},
                                        "v0": {"kind": "uniform", "amplitude": 0.0}},
                               "audit": {"samples": 2000, "perturbation": 1e10}},
                              "audit.perturbation 10000000000.0 overflows"),
    "mollify_1e307": ({"command": "converge", "grid": PERIODIC_16, "init": UNIFORM_1E307,
                       "mollify": {"epsilons": [4.0, 2.0]}}, "the bump mollifier at radius 4.0 overflows"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_configs_take_no_step(tmp_path, capsys, case):
    over, message = REFUSED[case]
    with counted_steps() as steps:
        status, err = run_main(tmp_path, audit_doc(tmp_path, **over), capsys)
    assert status == 2 and message in err and "Traceback" not in err
    assert steps == [0]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_simulate_domain_check_uses_the_evolved_horizon(tmp_path, capsys):
    # T = 1.01 is 64.64 steps of 1/64: evolve stops at t = 1.0, the apex
    doc = audit_doc(tmp_path, command="simulate", domain={"a": -1.0, "b": 1.0}, time={"T": 1.01},
                    grid={**audit_doc(Path())["grid"], "n_points": 768})
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0, err
    assert _read_table(tmp_path / "run_trace.csv")[-1][0] == 1.0


@pytest.mark.parametrize("section, key", [("grid", "n_points"), ("grid", "boundary"), ("time", "record_every")])
def test_null_for_a_typed_key_is_a_configuration_error(tmp_path, capsys, section, key):
    doc = audit_doc(tmp_path)
    doc.setdefault(section, {})[key] = None
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 2 and "wrong type" in err and "Traceback" not in err


def test_huge_grid_spacing_exits_cleanly(tmp_path, capsys):
    # dx = 1e300 / 7: the charge budget's dx^2 overflows to inf, not to an OverflowError
    doc = audit_doc(tmp_path, grid={"x_min": -1.0, "x_max": 1e300, "n_points": 8, "boundary": "zero_inflow"},
                    audit_selection=["charge"], domain=None)
    del doc["domain"]
    status, err = run_main(tmp_path, doc, capsys)
    assert status == 0 and "Traceback" not in err
    assert ",inf," in (tmp_path / "run_audits.csv").read_text()


@pytest.mark.parametrize("command", ["simulate", "audit"])
@pytest.mark.parametrize("end", ["a", "b"])
def test_domain_endpoint_near_the_double_limit(tmp_path, capsys, command, end):
    """An endpoint of +-1e308 divides past the double range in units of dx,
    where +-1e300 does not; both behave alike: simulate clips the section and
    writes the same trace, audit refuses the endpoint with exit 2."""
    traces = []
    for big in (1e300, 1e308):
        out = tmp_path / str(big)
        out.mkdir()
        domain = {"a": -big, "b": 4.0} if end == "a" else {"a": -4.0, "b": big}
        doc = audit_doc(out, command=command, domain=domain, time={"T": 0.5})
        status, err = run_main(out, doc, capsys)
        assert "Traceback" not in err
        if command == "simulate":
            assert status == 0, err
            traces.append((out / "run_trace.csv").read_bytes())
        else:
            coordinate = -big if end == "a" else big
            assert status == 2 and f"coordinate {coordinate} outside the grid window" in err
    assert traces[:1] == traces[1:]


@pytest.mark.parametrize("end", ["a", "b"])
def test_far_domain_endpoint_leaves_the_near_one(tmp_path, capsys, end):
    """simulate writes the same trace for a domain endpoint 1e9 away as
    for one 1e3 away: the far endpoint's alignment tolerance does not move
    the near endpoint's first or last site."""
    traces = []
    for far in (1e3, 1e9):
        out = tmp_path / str(far)
        out.mkdir()
        domain = {"a": -far, "b": 4.0} if end == "a" else {"a": -4.0, "b": far}
        doc = audit_doc(out, command="simulate", domain=domain, time={"T": 0.5})
        status, err = run_main(out, doc, capsys)
        assert status == 0, err
        traces.append((out / "run_trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_negative_c_tol_is_a_configuration_error(tmp_path, capsys):
    """A negative constants.C_tol would make every budget negative; it is
    refused before the run (exit 2), while C_tol = 0 is accepted."""
    status, err = run_main(tmp_path, audit_doc(tmp_path, constants={"C_tol": -1}), capsys)
    assert status == 2 and "constants.C_tol" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    status, err = run_main(tmp_path, audit_doc(tmp_path, constants={"C_tol": 0}), capsys)
    assert status in (0, 1) and "Traceback" not in err
    assert (tmp_path / "run_audits.csv").exists()


HUGE_SPACING = {"x_min": -1.0, "x_max": 1e300, "n_points": 8, "boundary": "zero_inflow"}


@pytest.mark.parametrize("over, expected", [
    # the Gaussian exponent overflows to inf on sites 1e299 apart; exp(-inf) = 0
    ({"command": "simulate", "grid": HUGE_SPACING}, 0),
    # the charge budget's dx^2 overflows to inf
    ({"audit_selection": ["charge"], "grid": HUGE_SPACING}, 0),
    # the trace's densities of a huge but finite datum overflow; the run blows up
    ({"command": "simulate", "init": {"u0": {"kind": "uniform", "amplitude": 1e200},
                                      "v0": {"kind": "uniform", "amplitude": 1e200}}}, 1),
    # a zero C_tol times the inf charge of a huge datum: a nan budget fails the audit
    ({"audit_selection": ["charge"], "constants": {"C_tol": 0}, "time": {"T": 0.0},
      "init": {"u0": {"kind": "uniform", "amplitude": 1e300}, "v0": {"kind": "uniform", "amplitude": 0.0}}}, 1),
    # the mollified datum overflows; refused before the run
    ({"command": "converge", "grid": PERIODIC_16, "init": UNIFORM_1E307,
      "mollify": {"epsilons": [4.0, 2.0]}}, 2),
], ids=["gaussian_exponent", "charge_budget", "simulate_trace", "nan_budget", "mollifier"])
def test_accepted_extremes_raise_no_runtime_warning(tmp_path, capsys, over, expected):
    doc = audit_doc(tmp_path, **over)
    del doc["domain"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, err = run_main(tmp_path, doc, capsys)
    assert status == expected and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_lockstep_raises_the_first_failed_run(gn):
    g = lc.make_grid(-6, 6, 384, "zero_inflow")

    def field(amp):
        datum = lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", amp, width=0.8),
                                lc.ComponentSpec("gaussian_pulse", amp, width=0.9))
        return lc.sample_initial(datum, g)

    ok, late, early = field(0.07), field(10.0), field(1e110)
    seen = []
    with pytest.raises(BlowUpError) as exc_info:
        lc.evolve([ok, early], gn, lc.SolverConfig(), 0.5, observers=[seen.append])
    assert exc_info.value.run == 1 and exc_info.value.t == pytest.approx(g.dt)
    assert len(seen) == 1 and seen[0] == (ok, early)  # the blow-up stopped run 0 too
    with pytest.raises(BlowUpError) as exc_info:
        lc.evolve([late, early], gn, lc.SolverConfig(), 0.5, observers=[])
    assert exc_info.value.run == 1 and exc_info.value.t == pytest.approx(g.dt)
    # the first blow-up in time is raised, whatever the run's index
    seen.clear()
    with pytest.raises(BlowUpError) as exc_info:
        lc.evolve([ok, late], gn, lc.SolverConfig(), 0.5, observers=[seen.append])
    assert exc_info.value.run == 1 and exc_info.value.t == pytest.approx(4 * g.dt)
    assert len(seen) == 4 and all(None not in levels for levels in seen)


def test_observed_evolve_returns_final_levels(gn):
    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    f0 = lc.sample_initial(lc.InitialDatum(lc.ComponentSpec("gaussian_pulse", 0.07, width=0.8),
                                           lc.ComponentSpec("gaussian_pulse", 0.05, width=0.9)), g)
    full = lc.evolve(f0, gn, lc.SolverConfig(), 1.0)
    times = []
    finals = lc.evolve([f0, f0], gn, lc.SolverConfig(), 1.0,
                       observers=[lambda levels: times.append(levels[0].t)])
    assert times == [s.t for s in full]
    for last in finals:
        assert np.array_equal(last.u, full[-1].u) and np.array_equal(last.v, full[-1].v)
    assert [s.t for s in lc.evolve([f0], gn, lc.SolverConfig(), 1.0)] == times
    with pytest.raises(UsageError):
        lc.evolve([f0, f0], gn, lc.SolverConfig(), 1.0)


def _gn_field(n):
    return lc.sample_initial(GN_DATUM, lc.make_grid(-6, 6, n, "zero_inflow"))


@pytest.mark.parametrize("every", [1, 3, 4, 7])
def test_observers_see_the_recorded_levels(gn, every):
    f0 = _gn_field(96)
    n = 17  # a multiple of none of 3, 4 and 7: the final step is recorded on its own
    full = lc.evolve(f0, gn, lc.SolverConfig(), n * f0.grid.dt)
    assert len(full) == n + 1
    expected = [full[k] for k in sorted({*range(0, n + 1, every), n})]
    cfg = lc.SolverConfig(record_every=every)
    listed = lc.evolve(f0, gn, cfg, n * f0.grid.dt)
    seen = []
    finals = lc.evolve([f0, f0], gn, cfg, n * f0.grid.dt, observers=[keep_copies(seen)])
    assert [s.t for s in listed] == [lv[0].t for lv in seen] == [s.t for s in expected]
    for s, lv, want in zip(listed, seen, expected):
        for got in (s, *lv):
            assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
    assert all(np.array_equal(f.u, full[-1].u) for f in finals)


def _poison_call(monkeypatch, call, run, part, site):
    """Make the given step kernel call (1-based), which steps every run,
    return NaN in one part of the given run's level at site and at a later
    site, and inf in the other component later, with that run's site as the
    blow-up verdict (run * n + site), as the kernel reports it. The
    poisoned level is a copy: the level the kernel writes into a pool is
    read-only."""
    real, calls = kernels.step_unforced, [0]
    comp, attr = part.split(".")

    def poisoned(*args, **kwargs):
        u, v, bad = real(*args, **kwargs)
        calls[0] += 1
        if calls[0] == call:
            u, v = u.copy(), v.copy()
            hit, other = (u[run], v[run]) if comp == "u" else (v[run], u[run])
            getattr(hit, attr)[[site, site + 20]] = np.nan
            other.real[site + 10] = np.inf
            bad = run * u.shape[-1] + site
        return u, v, bad

    monkeypatch.setattr(kernels, "step_unforced", poisoned)


PARTS = ["u.real", "u.imag", "v.real", "v.imag"]


@pytest.mark.parametrize("part", PARTS)
def test_blow_up_names_the_first_bad_site(gn, monkeypatch, part):
    f0 = _gn_field(96)
    g, T = f0.grid, 12 * f0.grid.dt
    full = lc.evolve(f0, gn, lc.SolverConfig(), T)
    _poison_call(monkeypatch, 5, 0, part, 40)
    with pytest.raises(BlowUpError) as exc_info:
        lc.evolve(f0, gn, lc.SolverConfig(record_every=2), T)
    err = exc_info.value
    assert (err.site, err.t, err.x, err.run) == (40, full[5].t, g.x_min + 40 * g.dx, 0)
    assert [s.t for s in err.partial] == [full[k].t for k in (0, 2, 4)]
    assert all(np.array_equal(s.u, full[k].u) for s, k in zip(err.partial, (0, 2, 4)))


@pytest.mark.parametrize("part", PARTS)
def test_lockstep_blow_up_names_the_first_bad_site(gn, monkeypatch, part):
    f0 = _gn_field(96)
    g, T = f0.grid, 12 * f0.grid.dt
    full = lc.evolve(f0, gn, lc.SolverConfig(), T)
    _poison_call(monkeypatch, 5, 1, part, 33)  # run 1 at the fifth step
    seen = []
    with pytest.raises(BlowUpError) as exc_info:
        lc.evolve([f0, f0], gn, lc.SolverConfig(), T, observers=[keep_copies(seen)])
    err = exc_info.value
    assert (err.site, err.t, err.x, err.run, err.partial) == (33, full[5].t, g.x_min + 33 * g.dx, 1, [])
    assert len(seen) == 5 and all(None not in lv for lv in seen)  # both runs stop at the blow-up
    assert np.array_equal(seen[-1][0].u, full[4].u) and np.array_equal(seen[-1][1].u, full[4].u)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_lockstep_blow_up_of_a_later_run_matches_its_run_alone(name):
    """Runs 0 and 2 stay finite, run 1 blows up at step k: the lockstep
    error names run 1, with the site, t and x of run 1 evolved alone, and
    the observers see levels 0 ... k - 1 only."""
    from lcdirac import harness

    g = lc.make_grid(-8, 8, 512, "periodic")
    cfg = cli.parse_config(json.dumps({"model": {"m": 1.0, "alpha": 1.0, "beta": 0.0},
                                       "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 512,
                                                "boundary": "periodic"},
                                       "time": {"T": 1.0}, "init": LADDER_BLOW_UP, "command": "converge",
                                       "mollify": {"epsilons": [1.0, 0.1]}}))
    calm, sharp = harness._mollified(cfg.init, g, (1.0, 0.1), ["bump"])
    with backend(name):
        with pytest.raises(BlowUpError) as alone:
            lc.evolve(sharp, lc.THIRRING, lc.SolverConfig(record_every=10**9), 1.0)
        times = []
        with pytest.raises(BlowUpError) as lockstep:
            lc.evolve([calm, sharp, calm], lc.THIRRING, lc.SolverConfig(), 1.0,
                      observers=[lambda levels: times.append(levels[0].t)])
    a, b = alone.value, lockstep.value
    assert (b.run, b.site, b.t, b.x) == (1, a.site, a.t, a.x) and str(b) == str(a)
    k = round(a.t / g.dt)
    assert k > 1 and times == [j * g.dt for j in range(k)]


# ---------------------------------------------------------------------------
# The audit pass keeps O(1) levels


def _held_arrays(obj, seen=None):
    """Every SpinorField and ndarray reachable from obj's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (lc.SpinorField, np.ndarray)):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [held for child in children for held in _held_arrays(child, seen)]


def test_reductions_hold_no_level(gn, gn_constants):
    from lcdirac.harness import _PairDistances

    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    f0 = lc.sample_initial(GN_DATUM, g)
    dom = lc.TriangleDomain(-4.0, 4.0)
    audits = functionals.AuditPass(cli.EVOLVED_AUDITS, dom, gn_constants, gn, T=1.0, tau=1.0,
                                   C0=lc.charge(f0) + 1.0)
    dist = _PairDistances(g, [(0, 1)])
    fed = []

    def keep(levels):
        fed.extend(levels)
        dist(levels)

    runs = [f0, cli._perturbed(f0, 1e-3)]
    lc.evolve(runs, gn, lc.SolverConfig(), 1.0, observers=[audits, keep])
    assert len(fed) == 2 * 9
    for name in cli.EVOLVED_AUDITS:
        assert audits.report(name).passed
    held = _held_arrays(audits) + _held_arrays(dist)
    assert held and not [h for h in held if isinstance(h, lc.SpinorField)]
    for arr in held:
        assert not any(np.shares_memory(arr, level.u) or np.shares_memory(arr, level.v) for level in fed)


def _recorded_pools(monkeypatch):
    """Make evolve's pools record themselves into the returned list."""
    pools = []

    class Pool(kernels.LevelPool):
        def __init__(self, runs, n):
            super().__init__(runs, n)
            pools.append(self)

    monkeypatch.setattr(kernels, "LevelPool", Pool)
    return pools


def _poison(pools, keep=()):
    """Fill every level pair of the pools with NaN but those holding the
    levels in keep: at an observer call, every pair but the call's levels."""
    for pool in pools:
        for pair in pool.blocks:
            if not any(np.shares_memory(pair, a) for f in keep for a in (f.u, f.v)):
                pair[...] = np.nan


class _Stale:
    """An observer that keeps a level past its call: the largest change of
    each run since the previous call, read from the previous call's levels."""

    def __init__(self):
        self.previous, self.change = None, []

    def __call__(self, levels):
        if self.previous is not None:
            self.change.append([float(np.abs(f.u - p.u).max()) for f, p in zip(levels, self.previous)])
        self.previous = levels


@pytest.mark.parametrize("name", kernels.available_backends())
def test_observers_read_levels_only_during_the_call(monkeypatch, name, gn, gn_constants):
    """AuditPass and _PairDistances keep numbers, never a level. Each
    observer call first fills every level pair of the pool but the call's
    levels with NaN, and every pair is NaN once evolve returns, so a kept
    level reads NaN or another run's level at any later call: still they
    report what they report when fed copies of the levels, bit for bit,
    while an observer that keeps the previous level does not. No observer
    can write into a level."""
    from lcdirac.harness import _PairDistances

    g = lc.make_grid(-6, 6, 96, "zero_inflow")
    f0 = lc.sample_initial(GN_DATUM, g)
    runs = [f0, cli._perturbed(f0, 1e-3), cli._perturbed(f0, -2e-3)]
    dom = lc.TriangleDomain(-4.0, 4.0)
    pairs = [(0, 1), (1, 2), (0, 2)]
    poisoned_levels = []

    def poison_past(levels):
        for f in levels:
            for a in (f.u, f.v):
                with pytest.raises(ValueError):
                    a[0] = 0.0
                with pytest.raises(ValueError):
                    np.copyto(a, 0.0)
        before = [np.isnan(pool.blocks).sum() for pool in pools]
        _poison(pools, keep=levels)
        poisoned_levels.append([np.isnan(pool.blocks).sum() - b for pool, b in zip(pools, before)])

    def measure(copies):
        audits = functionals.AuditPass(cli.EVOLVED_AUDITS, dom, gn_constants, gn, T=1.0, tau=1.0,
                                       C0=lc.charge(f0) + 1.0)
        dists, stale = _PairDistances(g, pairs), _Stale()

        def feed(levels):
            if copies:
                levels = tuple(lc.SpinorField(f.grid, f.t, f.u.copy(), f.v.copy()) for f in levels)
            audits(levels[:2])
            dists(levels)
            stale(levels)

        lc.evolve(runs, gn, lc.SolverConfig(), 1.0, observers=[feed] if copies else [poison_past, feed])
        _poison(pools)
        reports = [audits.report(a) for a in cli.EVOLVED_AUDITS], list(zip(dists.field, dists.product_distances()))
        return reports, stale.change

    pools = []
    with backend(name):
        fed_copies, stale_copies = measure(copies=True)
        pools = _recorded_pools(monkeypatch)
        poisoned, stale_poisoned = measure(copies=False)
    assert len(pools) == 1 and pools[0].blocks.shape == (4, 2, g.n_points)
    assert np.isnan(pools[0].blocks).all()
    # from the first step on (dt = 1/8), each call poisons the one pair its levels leave
    assert poisoned_levels == [[]] + [[2 * g.n_points]] * 8
    assert poisoned == fed_copies
    assert all(r.passed for r in fed_copies[0]) and all(d > 0 for row in fed_copies[1] for d in row)
    # the t = 0 levels are never written; every later level kept past its call is
    assert len(stale_copies) == 8 and stale_poisoned[0] == stale_copies[0]
    assert all(np.isfinite(stale_copies).all(axis=1)) and all(
        p != c for p, c in zip(stale_poisoned[1:], stale_copies[1:]))


@pytest.mark.parametrize("name", kernels.available_backends())
def test_pool_holds_a_pair_per_run_and_one_spare(monkeypatch, name, gn):
    """A pool holds runs + 1 level pairs; a run of no step makes no pool;
    the views are bound only while evolve runs, and nothing keeps the
    blocks once the levels are dropped."""
    import gc
    import weakref

    pools = _recorded_pools(monkeypatch)
    f0 = _gn_field(96)
    with backend(name):
        for runs, steps in ((1, 0), (1, 1), (1, 5), (3, 0), (3, 1), (3, 5)):
            pools.clear()
            if runs == 1:
                lc.evolve(f0, gn, lc.SolverConfig(), steps * f0.grid.dt)
            else:
                lc.evolve([f0] * runs, gn, lc.SolverConfig(), steps * f0.grid.dt, observers=[])
            assert len(pools) == min(steps, 1), (runs, steps)
            if steps:
                (pool,) = pools
                assert pool.blocks.shape == (runs + 1, 2, 96), (runs, steps)
                assert not any(id(a) in kernels._BOUND for a in pool._views)
    refs = [weakref.ref(a) for a in (pool.blocks, *pool._views)]
    pools.clear()
    del pool
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_audit_pass_keeps_constant_levels(tmp_path, capsys, monkeypatch):
    real_evolve, returned = cli.evolve, []

    def spy(*args, **kwargs):
        out = real_evolve(*args, **kwargs)
        returned.append(len(out))
        return out

    monkeypatch.setattr(cli, "evolve", spy)
    doc = audit_doc(tmp_path, grid={"x_min": -6.0, "x_max": 6.0, "n_points": 3072, "boundary": "zero_inflow"},
                    time={"T": 1.0}, audit_selection=list(cli.EVOLVED_AUDITS))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        status = main([str(cfg_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0, capsys.readouterr().err
    assert returned and all(n <= 2 for n in returned)
    # 257 levels of two runs at 3072 sites held 50.5 MB when every level was kept
    assert peak < 10e6, peak


# ---------------------------------------------------------------------------
# Any config document: exit 0, 1 or 2 and never a traceback

_finite = st.floats(-10, 10)
_value = st.one_of(  # what a mutation writes: edge numbers and values of the wrong type
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5), st.just(1e300), st.just(-0.0),
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)
_component = st.one_of(
    st.builds(lambda a, c, w: {"kind": "gaussian_pulse", "amplitude": a, "center": c, "width": w},
              st.one_of(_finite, st.lists(_finite, min_size=2, max_size=2)), st.floats(-2, 2), st.floats(0.1, 2)),
    st.builds(lambda a, h: {"kind": "indicator_jump", "amplitude": a, "halfwidth": h},
              _finite, st.floats(0.1, 3)),
    st.builds(lambda a, e: {"kind": "power_singularity_truncated", "amplitude": a, "exponent": e,
                            "halfwidth": 1.0, "cap": 10.0}, _finite, st.floats(0.05, 0.45)),
    st.just({"kind": "uniform", "amplitude": 0.0}),
)
@st.composite
def _valid_document(draw):
    x_min, x_max = draw(st.floats(-6, -1)), draw(st.floats(1, 6))
    n = draw(st.integers(8, 48))
    dx = (x_max - x_min) / n
    doc = {
        "model": draw(st.one_of(st.just({"m": 1.0, "alpha": 0.0, "beta": 0.25}),
                                st.just({"m": 1.0, "alpha": 1.0, "beta": 0.0}),
                                st.fixed_dictionaries({"m": st.floats(0, 3), "alpha": _finite,
                                                       "beta": _finite}))),
        "grid": {"x_min": x_min, "x_max": x_max, "n_points": n,
                 "boundary": draw(st.sampled_from(["periodic", "zero_inflow"]))},
        "time": {"T": draw(st.floats(0, 1.5)), "record_every": draw(st.integers(1, 3))},
        "init": {"u0": draw(_component), "v0": draw(_component)},
        "command": draw(st.sampled_from(cli.COMMANDS)),
        "audit_selection": draw(st.lists(st.sampled_from(cli.AUDITS), max_size=6)),
        "audit": {"samples": draw(st.integers(1, 50)), "c0": draw(st.floats(0, 2)),
                  "perturbation": draw(st.floats(-1, 1))},
        "mollify": {"epsilons": sorted(draw(st.lists(st.integers(2, 8), min_size=1, max_size=3)), reverse=True),
                    "kernel": draw(st.sampled_from(["bump", "triangle"]))},
    }
    doc["mollify"]["epsilons"] = [k * dx for k in doc["mollify"]["epsilons"]]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n // 2)), draw(st.integers(n // 2 + 1, n - 1))
        doc["domain"] = {"a": x_min + i * dx, "b": x_min + j * dx}
    return doc


_paths = st.sampled_from([
    ("model", "m"), ("model", "beta"), ("grid", "x_max"), ("grid", "n_points"), ("grid", "boundary"),
    ("time", "T"), ("time", "record_every"), ("init", "u0", "amplitude"), ("init", "v0", "kind"),
    ("init", "u0", "values"), ("domain", "a"), ("domain", "t0"), ("audit", "samples"),
    ("audit", "c0"), ("constants", "delta"), ("constants", "C_tol"), ("mollify", "epsilons"),
    ("mollify", "kernel_b"), ("soliton", "frequency"), ("audit_selection",), ("command",), ("output",),
    ("model",), ("extra",),
])


def _mutated(doc, mutations):
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                break
        else:
            node[path[-1]] = value
    return doc


def _edge_document(**over):
    """A fresh valid document for the fuzz's pinned examples."""
    doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -3.0, "x_max": 3.0, "n_points": 24, "boundary": "zero_inflow"},
        "time": {"T": 0.5, "record_every": 2},
        "init": {"u0": {"kind": "gaussian_pulse", "amplitude": 0.5, "center": 0.0, "width": 0.8},
                 "v0": {"kind": "uniform", "amplitude": 0.0}},
        "command": "simulate",
    }
    doc.update(over)
    return doc


@settings(max_examples=80, deadline=None)
@given(doc=_valid_document(), mutations=st.lists(st.tuples(_paths, _value), max_size=2))
# edge cases the search once found, pinned so that a source change cannot drop them
@example(doc=_edge_document(), mutations=[(("grid", "n_points"), None)])
@example(doc=_edge_document(), mutations=[(("grid", "boundary"), None)])
@example(doc=_edge_document(grid={"x_min": 0.0, "x_max": 1e300, "n_points": 7}, command="audit",
                            audit_selection=["charge"]), mutations=[])
@example(doc=_edge_document(), mutations=[(("time", "T"), 1e300)])
@example(doc=_edge_document(), mutations=[(("time", "record_every"), True)])
@example(doc=_edge_document(), mutations=[(("init", "u0", "amplitude"), math.nan)])
@example(doc=_edge_document(grid={"x_min": -1.0, "x_max": 1.0, "n_points": 8}, command="audit",
                            init={"u0": {"kind": "indicator_jump", "amplitude": 3.5e-141, "halfwidth": 1.0},
                                  "v0": {"kind": "uniform", "amplitude": 0.0}},
                            audit_selection=["bony"]), mutations=[])  # L0(0)**2 underflows to 0
@example(doc=_edge_document(grid={"x_min": -1e308, "x_max": 1e308, "n_points": 8}, command="audit",
                            audit_selection=["charge"]), mutations=[])  # dx overflows to inf
@example(doc=_edge_document(model={"m": 1e300, "alpha": 1.0, "beta": 0.0}, command="soliton-check",
                            grid={"x_min": -3.0, "x_max": 3.0, "n_points": 7}), mutations=[])
@example(doc=_edge_document(model={"m": 1.0, "alpha": 1.0, "beta": 0.0}, command="soliton-check",
                            grid={"x_min": 0.0, "x_max": 1e300, "n_points": 7}), mutations=[])
def test_any_document_exits_cleanly(doc, mutations):
    doc = _mutated(doc, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(doc.get("output"), dict) or "output" not in doc:
            doc["output"] = {"path": str(Path(tmp) / "out" / "run")}
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), counted_steps() as steps:
            status = main([str(path)])
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:  # a refused document is refused before the first step
        assert steps == [0], err.getvalue()
