"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v`
(add -s to see the PASS lines as they stream).
"""
import json
import time

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels
from lcdirac.cli import parse_config, run_command

from conftest import backend, naive_q1
from ensembles import datum_from_profiles, random_bump_profile, random_smooth_datum


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: PASS {detail}")


def jump_datum():
    return lc.InitialDatum(
        lc.ComponentSpec("indicator_jump", 1.0, center=0.0, halfwidth=1.0),
        lc.ComponentSpec("indicator_jump", 0.75, center=-0.5, halfwidth=1.0),
    )


def test_01_algebraic_bound_suite():
    for alpha in (0.0, 1.0):
        for beta in (0.0, 0.25):
            p = lc.ModelParams(1.0, alpha, beta)
            k = lc.derive_constants(p)
            rep = lc.check_algebraic_bounds(1, p, k)
            assert rep.passed, f"violation at alpha={alpha}, beta={beta}: {rep.witness}"
            assert rep.max_violation == 0.0
            # the extremisers reach each bound's supremum (no coupling: c_star = 0, no ratio)
            sup_c = 1.5 * max(abs(alpha), abs(alpha + 4.0 * beta))
            want = [1.0 if beta else 0.0, 0.5, sup_c / (k.c_star / 2.0) if k.c_star else 0.0]
            assert list(rep.info.values()) == pytest.approx(want, rel=1e-9, abs=0.0)
    report(1, "algebraic bound suite", "(suprema at the extremisers, zero violations)")


def test_02_wirtinger_consistency(rng):
    h = 1e-5
    for alpha, beta in ((1.0, 0.0), (0.0, 0.25), (0.6, -0.8)):
        p = lc.ModelParams(1.0, alpha, beta)
        n = 10_000
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        _, N1, N2 = lc.eval_nonlinearity(u, v, p)

        def W(uu, vv):
            return lc.eval_nonlinearity(uu, vv, p)[0]

        fd1 = ((W(u + h, v) - W(u - h, v)) + 1j * (W(u + 1j * h, v) - W(u - 1j * h, v))) / (4 * h)
        fd2 = ((W(u, v + h) - W(u, v - h)) + 1j * (W(u, v + 1j * h) - W(u, v - 1j * h))) / (4 * h)
        for fd, ex in ((fd1, N1), (fd2, N2)):
            rel = np.abs(fd - ex) / np.maximum(np.abs(ex), 1e-3)
            assert np.max(rel) < 1e-6
    report(2, "Wirtinger consistency", "(rel err < 1e-6 on 1e4 samples)")


def test_03_linear_oracle_order():
    p = lc.ModelParams(1.0, 0.0, 0.0)
    errs = []
    for n in (256, 512, 1024):
        g = lc.make_grid(0.0, 2.0 * np.pi, n, "periodic")
        f0 = lc.sample_initial(
            lc.InitialDatum(lc.ComponentSpec("uniform", 1.0), lc.ComponentSpec("uniform", 0.0)), g
        )
        snaps = lc.evolve(f0, p, lc.SolverConfig(record_every=10**9), 2.0 * np.pi)
        T = snaps[-1].t
        errs.append(
            max(
                float(np.max(np.abs(snaps[-1].u - np.cos(T)))),
                float(np.max(np.abs(snaps[-1].v - 1j * np.sin(T)))),
            )
        )
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders), orders
    report(3, "linear oracle order", f"(orders {[round(o, 2) for o in orders]})")


def test_04_manufactured_solution_order():
    p = lc.ModelParams(1.0, 0.5, 0.25)
    case = lc.manufactured_case(p, length=4.0)
    errs = []
    for n in (128, 256, 512):
        g = lc.make_grid(0.0, 4.0, n, "periodic")
        snaps = lc.evolve(
            case.initial(g), p, lc.SolverConfig(forcing=case.forcing, record_every=10**9), 1.0
        )
        errs.append(lc.l2_distance(snaps[-1], case.at(g, snaps[-1].t)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders), orders
    report(4, "manufactured solution order", f"(orders {[round(o, 2) for o in orders]})")


def test_05_charge_conservation():
    datum = lc.InitialDatum(
        lc.ComponentSpec("gaussian_pulse", 0.8, center=0.0, width=1.2),
        lc.ComponentSpec("gaussian_pulse", 0.7, center=-1.0, width=1.4),
    )
    drifts = []
    for n in (1024, 2048):
        g = lc.make_grid(-8.0, 8.0, n, "periodic")
        snaps = lc.evolve(lc.sample_initial(datum, g), lc.GROSS_NEVEU, lc.SolverConfig(), 5.0)
        q = np.array([lc.charge(s) for s in snaps])
        drifts.append(float(np.max(np.abs(q - q[0])) / q[0]))
    assert drifts[0] <= 1e-4, drifts
    ratio = drifts[0] / drifts[1]
    assert 3.0 <= ratio <= 5.0, ratio
    report(5, "charge conservation", f"(drift {drifts[0]:.2e}, ratio {ratio:.2f})")


def test_06_massless_thirring_modulus_transport():
    p = lc.ModelParams(0.0, 1.0, 0.0)
    errs = []
    for n in (256, 512, 1024):
        g = lc.make_grid(-4.0, 4.0, n, "periodic")
        x = g.sites()
        u0 = 0.8 * np.exp(-(x**2)) * np.exp(0.3j * x)
        v0 = 0.6 * np.exp(-(((x + 1.0) / 1.1) ** 2)) * np.exp(-0.2j * x)
        f0 = lc.SpinorField(g, 0.0, u0, v0)
        snaps = lc.evolve(f0, p, lc.SolverConfig(record_every=10**9), 1.0)
        shift = round(1.0 / g.dt)
        err = float(np.sqrt(np.sum((np.abs(snaps[-1].u) - np.roll(np.abs(u0), shift)) ** 2) * g.dx))
        errs.append(err)
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(r >= 3.5 for r in ratios), ratios
    report(6, "massless Thirring modulus transport", f"(ratios {[round(r, 2) for r in ratios]})")


def test_07_triangle_charge_identity():
    rng = np.random.default_rng(77)
    dom = lc.TriangleDomain(-4.0, 4.0)
    coarse, fine = [], []
    for _ in range(20):
        pu = random_bump_profile(rng, (-3, 3))
        pv = random_bump_profile(rng, (-3, 3))
        res = []
        for n in (384, 768):
            g = lc.make_grid(-6.0, 6.0, n, "zero_inflow")
            datum = datum_from_profiles(pu, pv, g, target_charge=0.5)
            snaps = lc.evolve(lc.sample_initial(datum, g), lc.GROSS_NEVEU, lc.SolverConfig(), 2.0)
            rep = lc.triangle_charge_audit(snaps, dom, 2.0)
            assert rep.passed, rep
            res.append(rep.max_violation)
        assert res[1] < res[0]
        coarse.append(res[0])
        fine.append(res[1])
    ratio = float(np.mean(coarse) / np.mean(fine))
    assert ratio >= 1.8, ratio
    report(7, "triangle charge identity", f"(20 data, mean refinement ratio {ratio:.2f})")


def test_08_pointwise_bounds_ensemble():
    rng = np.random.default_rng(88)
    dom = lc.TriangleDomain(-4.0, 4.0)
    g = lc.make_grid(-6.0, 6.0, 384, "zero_inflow")
    for i in range(50):
        m = 0.0 if i % 2 == 0 else 1.0
        p = lc.ModelParams(m, 0.0, 0.25)
        datum = random_smooth_datum(rng, g, rng.uniform(0.02, 0.08), (-3, 3))
        f0 = lc.sample_initial(datum, g)
        snaps = lc.evolve(f0, p, lc.SolverConfig(), 2.0)
        rep = lc.pointwise_audit(snaps, dom, lc.charge(f0) + 1.0, p)
        assert rep.passed, (i, m, rep)
    report(8, "pointwise bounds", "(50-member ensemble, zero violations beyond budget)")


def test_09_bony_decay_ensemble():
    rng = np.random.default_rng(99)
    p = lc.GROSS_NEVEU
    k = lc.derive_constants(p)
    dom = lc.TriangleDomain(-4.0, 4.0)
    g = lc.make_grid(-6.0, 6.0, 384, "zero_inflow")
    for i in range(100):
        target = rng.uniform(0.2, 0.9) * k.delta0 / 2.0
        datum = random_smooth_datum(rng, g, target, (-3, 3))
        snaps = lc.evolve(lc.sample_initial(datum, g), p, lc.SolverConfig(), 2.0)
        rep = lc.bony_decay_audit(snaps, dom, k, p)
        assert rep.passed, (i, rep)
    # hypothesis-violating data are rejected with exit 2 at the CLI
    doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"},
        "time": {"T": 1.0},
        "init": {
            "u0": {"kind": "gaussian_pulse", "amplitude": 2.0, "width": 1.0},
            "v0": {"kind": "gaussian_pulse", "amplitude": 1.5, "width": 1.0},
        },
        "domain": {"a": -4.0, "b": 4.0},
        "command": "audit",
        "audit_selection": ["bony"],
        "output": {"path": "/tmp/lcdirac_accept_bony/run", "format": "csv"},
    }
    assert run_command(parse_config(json.dumps(doc))) == 2
    report(9, "interaction-potential decay", "(100-member ensemble, precondition rejected with exit 2)")


def test_10_gronwall_difference_envelope():
    rng = np.random.default_rng(1010)
    p = lc.GROSS_NEVEU
    k = lc.derive_constants(p)
    dom = lc.TriangleDomain(-4.0, 4.0)
    g = lc.make_grid(-6.0, 6.0, 384, "zero_inflow")
    for i in range(50):
        target = rng.uniform(0.2, 0.8) * k.delta / 2.0
        datum = random_smooth_datum(rng, g, target, (-3, 3))
        f0 = lc.sample_initial(datum, g)
        c = np.exp(1j * rng.uniform(0, 2 * np.pi))
        fB0 = lc.SpinorField(g, 0.0, f0.u * (1 + 1e-3 * c), f0.v * (1 + 1e-3 * c))
        a = lc.evolve(f0, p, lc.SolverConfig(), 2.0)
        b = lc.evolve(fB0, p, lc.SolverConfig(), 2.0)
        rep = lc.gronwall_audit(a, b, dom, k, p)
        assert rep.passed, (i, rep)
    report(10, "difference growth envelope", "(50 perturbed pairs under the smallness hypothesis)")


def test_11_fast_naive_equivalence_and_speed(rng):
    for n in (257, 1024, 4096):
        for _ in range(7 if n < 4096 else 6):
            a = rng.uniform(size=n)
            b = rng.uniform(size=n)
            assert kernels.q_upper(a, b) == pytest.approx(kernels.q_upper_naive(a, b), rel=1e-12)
    # field-level equivalence via the functional evaluators
    g = lc.make_grid(-1.0, 1.0, 4096, "zero_inflow")
    fA = lc.SpinorField(g, 0.0, rng.normal(size=4096) + 1j * rng.normal(size=4096),
                        rng.normal(size=4096) + 1j * rng.normal(size=4096))
    fB = lc.SpinorField(g, 0.0, rng.normal(size=4096) + 1j * rng.normal(size=4096),
                        rng.normal(size=4096) + 1j * rng.normal(size=4096))
    q0_naive = kernels.q_upper_naive(np.abs(fA.u) ** 2, np.abs(fA.v) ** 2) * g.dx**2
    q1_naive = naive_q1(fA, fB) * g.dx**2
    for name in kernels.available_backends():
        with backend(name):
            assert lc.base_functionals(fA)[2] == pytest.approx(q0_naive, rel=1e-12)
            assert lc.difference_functionals(fA, fB, None)[2] == pytest.approx(q1_naive, rel=1e-12)

    a = rng.uniform(size=4096)
    b = rng.uniform(size=4096)
    kernels.q_upper(a, b), kernels.q_upper_naive(a, b)  # warm up
    t_fast = min(_timed(lambda: kernels.q_upper(a, b)) for _ in range(5))
    t_naive = min(_timed(lambda: kernels.q_upper_naive(a, b)) for _ in range(5))
    speedup = t_naive / t_fast
    assert speedup >= 50.0, speedup
    report(11, "fast/naive functional equivalence", f"(rel 1e-12, speedup {speedup:.0f}x at N=4096)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_12_cauchy_construction():
    g = lc.make_grid(-6.0, 6.0, 1536, "zero_inflow")
    eps = [2.0**-j for j in range(2, 7)]
    table = lc.convergence_study(jump_datum(), eps, lc.GROSS_NEVEU, g, 1.0)
    d, q = table.pair_distances, table.product_distances
    assert all(d[i + 1] < d[i] for i in range(len(d) - 1)), d
    assert all(q[i + 1] < q[i] for i in range(len(q) - 1)), q
    assert d[-1] <= 0.5 * d[0], d
    assert q[-1] <= 0.5 * q[0], q
    report(12, "Cauchy construction", f"(pair {d[0]:.3f}->{d[-1]:.3f}, product {q[0]:.3f}->{q[-1]:.3f})")


def test_13_uniqueness_probe():
    g = lc.make_grid(-6.0, 6.0, 1536, "zero_inflow")
    eps = [2.0**-j for j in range(2, 6)]
    table = lc.uniqueness_probe(jump_datum(), "bump", "triangle", eps, lc.GROSS_NEVEU, g, 1.0)
    d = table.pair_distances
    assert len(d) == 4
    assert all(d[i + 1] < d[i] for i in range(len(d) - 1)), d
    report(13, "uniqueness probe", f"(cross distances {[round(x, 4) for x in d]})")


def test_14_soliton_oracle():
    grid = lc.make_grid(-16.0, 16.0, 1024, "zero_inflow")
    oracle = lc.thirring_soliton(1.0, 0.5, grid)
    assert oracle.available, oracle.residual_orders
    assert all(o >= 1.8 for o in oracle.residual_orders), oracle.residual_orders
    p = lc.ModelParams(1.0, 1.0, 0.0)
    errs = []
    for n in (512, 1024, 2048):
        g = lc.make_grid(-16.0, 16.0, n, "zero_inflow")
        orc = lc.thirring_soliton(1.0, 0.5, g)
        snaps = lc.evolve(orc.field, p, lc.SolverConfig(record_every=10**9), 2.0)
        errs.append(lc.l2_distance(snaps[-1], orc.at(snaps[-1].t)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    assert all(o >= 1.8 for o in orders), orders
    report(14, "soliton oracle", f"(residual orders {[round(o, 2) for o in oracle.residual_orders]}, "
           f"tracking orders {[round(o, 2) for o in orders]})")


def test_15_determinism_byte_identical(tmp_path):
    audit_doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 384, "boundary": "zero_inflow"},
        "time": {"T": 2.0},
        "init": {
            "u0": {"kind": "gaussian_pulse", "amplitude": 0.07, "center": -0.5, "width": 0.8},
            "v0": {"kind": "gaussian_pulse", "amplitude": 0.055, "center": 0.5, "width": 0.9},
        },
        "domain": {"a": -4.0, "b": 4.0},
        "command": "audit",
        "audit": {"samples": 50000},
    }
    conv_doc = {
        "model": {"m": 1.0, "alpha": 0.0, "beta": 0.25},
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 768, "boundary": "zero_inflow"},
        "time": {"T": 0.5},
        "init": {
            "u0": {"kind": "indicator_jump", "amplitude": 1.0, "halfwidth": 1.0},
            "v0": {"kind": "indicator_jump", "amplitude": 0.75, "center": -0.5, "halfwidth": 1.0},
        },
        "command": "converge",
        "mollify": {"epsilons": [0.25, 0.125, 0.0625]},
    }
    sim_doc = dict(audit_doc)
    sim_doc = {k: v for k, v in audit_doc.items() if k not in ("audit",)}
    sim_doc["command"] = "simulate"

    produced = []
    for tag in ("first", "second"):
        outputs = {}
        for name, doc in (("audit", audit_doc), ("conv", conv_doc), ("sim", sim_doc)):
            doc = dict(doc)
            doc["output"] = {"path": str(tmp_path / tag / name / "run"), "format": "csv"}
            assert run_command(parse_config(json.dumps(doc))) == 0
            for f in sorted((tmp_path / tag / name).glob("*.csv")):
                outputs[f"{name}/{f.name}"] = f.read_bytes()
        produced.append(outputs)
    assert produced[0].keys() == produced[1].keys()
    for key in produced[0]:
        assert produced[0][key] == produced[1][key], f"output {key} differs between runs"
    report(15, "determinism", f"({len(produced[0])} artifacts byte-identical across reruns)")
