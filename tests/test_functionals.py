import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels
from lcdirac.errors import PreconditionError, UsageError
from lcdirac.functionals import trace_base, trace_pair

from conftest import backend, naive_q1, random_field
from ensembles import datum_from_profiles, random_bump_profile, random_smooth_datum


def indicator(amp, center, halfwidth):
    return lc.ComponentSpec("indicator_jump", amp, center=center, halfwidth=halfwidth)


@pytest.fixture
def cone_setup(rng):
    grid = lc.make_grid(-6, 6, 384, "zero_inflow")  # dx = 1/32
    dom = lc.TriangleDomain(-4.0, 4.0)
    return grid, dom


class TestBaseFunctionals:
    def test_zero_u_component(self, rng):
        g = lc.make_grid(-2, 2, 128, "zero_inflow")
        v = rng.normal(size=128) + 1j * rng.normal(size=128)
        f = lc.SpinorField(g, 0.0, np.zeros(128, complex), v)
        L0, D0, Q0 = lc.base_functionals(f)
        assert L0 == pytest.approx(lc.charge(f), rel=1e-14)
        assert D0 == 0.0 and Q0 == 0.0

    def test_ordered_supports(self):
        g = lc.make_grid(-4, 4, 256, "zero_inflow")
        left_of = lc.sample_initial(
            lc.InitialDatum(indicator(1.0, -2.0, 1.0), indicator(0.5, 2.0, 1.0)), g
        )
        L0, D0, Q0 = lc.base_functionals(left_of)
        qu = float(np.sum(np.abs(left_of.u) ** 2)) * g.dx
        qv = float(np.sum(np.abs(left_of.v) ** 2)) * g.dx
        assert D0 == 0.0
        assert Q0 == pytest.approx(qu * qv, rel=1e-12)
        reversed_f = lc.SpinorField(g, 0.0, left_of.v, left_of.u)
        assert lc.base_functionals(reversed_f)[2] == 0.0

    def test_fast_matches_naive(self, rng):
        for n in (2, 3, 2048):
            g = lc.make_grid(-1, 1, n, "zero_inflow")
            f = random_field(rng, g)
            naive = kernels.q_upper_naive(np.abs(f.u) ** 2, np.abs(f.v) ** 2) * g.dx**2
            for name in kernels.available_backends():
                with backend(name):
                    assert lc.base_functionals(f)[2] == pytest.approx(naive, rel=1e-12)

    def test_interaction_product_bound(self, rng):
        g = lc.make_grid(-1, 1, 512, "zero_inflow")
        for _ in range(10):
            f = random_field(rng, g)
            L0, _, Q0 = lc.base_functionals(f)
            qu = float(np.sum(np.abs(f.u) ** 2)) * g.dx
            qv = float(np.sum(np.abs(f.v) ** 2)) * g.dx
            assert Q0 <= qu * qv * (1 + 1e-12)
            assert qu * qv <= L0**2 / 4 * (1 + 1e-12)

    def test_empty_section_returns_zeros(self, rng):
        g = lc.make_grid(-2, 2, 64, "zero_inflow")
        dom = lc.TriangleDomain(-g.dx, g.dx)
        f = random_field(rng, g)
        apex = lc.SpinorField(g, dom.apex_time, f.u, f.v)
        assert lc.base_functionals(apex, dom) == (0.0, 0.0, 0.0)


class TestDifferenceFunctionals:
    def test_identical_pair(self, rng):
        g = lc.make_grid(-1, 1, 128, "zero_inflow")
        f = random_field(rng, g)
        assert lc.difference_functionals(f, f, None) == (0.0, 0.0, 0.0)

    def test_against_zero_field_doubles_weights(self, rng):
        g = lc.make_grid(-1, 1, 256, "zero_inflow")
        f = random_field(rng, g)
        z = lc.SpinorField(g, 0.0, np.zeros(256, complex), np.zeros(256, complex))
        L1, D1, Q1 = lc.difference_functionals(f, z, None)
        L0, D0, Q0 = lc.base_functionals(f)
        assert L1 == pytest.approx(lc.charge(f), rel=1e-12)
        assert D1 == pytest.approx(2 * D0, rel=1e-12)
        assert Q1 == pytest.approx(2 * Q0, rel=1e-12)

    def test_fast_matches_naive(self, rng):
        for n in (2, 3, 1024):
            g = lc.make_grid(-1, 1, n, "zero_inflow")
            fA, fB = random_field(rng, g), random_field(rng, g)
            naive = naive_q1(fA, fB) * g.dx**2
            for name in kernels.available_backends():
                with backend(name):
                    assert lc.difference_functionals(fA, fB, None)[2] == pytest.approx(naive, rel=1e-12)

    def test_mismatch_rejected(self, rng):
        g = lc.make_grid(-1, 1, 64, "zero_inflow")
        fA = random_field(rng, g)
        fB = random_field(rng, g, t=g.dt)
        with pytest.raises(UsageError):
            lc.difference_functionals(fA, fB, None)


class TestTraces:
    def test_cumulative_nondecreasing(self, rng, gn, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, 0.05, (-3, 3))
        snaps = lc.evolve(lc.sample_initial(datum, grid), gn, lc.SolverConfig(), 2.0)
        tr = trace_base(snaps, dom)
        assert np.all(np.diff(tr.cumD0) >= 0)
        assert np.all(tr.Q0 >= 0) and np.all(tr.L0 >= 0)

    def test_pair_trace_columns(self, rng, gn, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, 0.01, (-3, 3))
        f0 = lc.sample_initial(datum, grid)
        fB0 = lc.SpinorField(grid, 0.0, f0.u * 1.001, f0.v * 1.001)
        a = lc.evolve(f0, gn, lc.SolverConfig(), 1.0)
        b = lc.evolve(fB0, gn, lc.SolverConfig(), 1.0)
        tr = trace_pair(a, b, dom)
        assert tr.has_pair and np.all(np.diff(tr.cumD1) >= 0)


class TestTriangleChargeAudit:
    def test_zero_field(self, gn, cone_setup):
        grid, dom = cone_setup
        snaps = lc.evolve(lc.sample_initial(lc.zero_datum(), grid), gn, lc.SolverConfig(), 2.0)
        rep = lc.triangle_charge_audit(snaps, dom, 2.0)
        assert rep.passed and rep.max_violation == 0.0

    def test_transport_pulse_inside_cone(self):
        grid = lc.make_grid(-4, 4, 128, "zero_inflow")
        dom = lc.TriangleDomain(-3.0, 3.0)
        datum = lc.InitialDatum(indicator(1.0, 0.0, 0.5), indicator(0.8, 0.0, 0.5))
        p = lc.ModelParams(0.0, 0.0, 0.0)
        snaps = lc.evolve(lc.sample_initial(datum, grid), p, lc.SolverConfig(), 1.0)
        rep = lc.triangle_charge_audit(snaps, dom, 1.0)
        assert rep.passed
        assert rep.max_violation <= 1e-12

    def test_gross_neveu_residual_and_refinement(self, rng, gn):
        pu = random_bump_profile(rng, (-3, 3))
        pv = random_bump_profile(rng, (-3, 3))
        residuals = []
        for n in (384, 768):
            grid = lc.make_grid(-6, 6, n, "zero_inflow")
            dom = lc.TriangleDomain(-4.0, 4.0)
            datum = datum_from_profiles(pu, pv, grid, target_charge=0.5)
            snaps = lc.evolve(lc.sample_initial(datum, grid), gn, lc.SolverConfig(), 2.0)
            rep = lc.triangle_charge_audit(snaps, dom, 2.0)
            assert rep.passed
            residuals.append(rep.max_violation)
        assert residuals[0] / residuals[1] >= 1.8

    def test_misaligned_corner_rejected(self, gn, cone_setup):
        grid, _ = cone_setup
        snaps = lc.evolve(lc.sample_initial(lc.zero_datum(), grid), gn, lc.SolverConfig(), 1.0)
        with pytest.raises(UsageError):
            lc.triangle_charge_audit(snaps, lc.TriangleDomain(-4.001, 4.0), 1.0)

    def test_needs_every_step(self, gn, cone_setup):
        grid, dom = cone_setup
        snaps = lc.evolve(
            lc.sample_initial(lc.zero_datum(), grid), gn, lc.SolverConfig(record_every=2), 1.0
        )
        with pytest.raises(UsageError):
            lc.triangle_charge_audit(snaps, dom, 1.0)


class TestPointwiseAudit:
    def test_zero_field(self, gn, cone_setup):
        grid, dom = cone_setup
        snaps = lc.evolve(lc.sample_initial(lc.zero_datum(), grid), gn, lc.SolverConfig(), 2.0)
        rep = lc.pointwise_audit(snaps, dom, 1.0, gn)
        assert rep.passed and rep.max_violation == 0.0

    def test_massless_gross_neveu(self, cone_setup):
        grid, dom = cone_setup
        p = lc.ModelParams(0.0, 0.0, 0.25)
        datum = lc.InitialDatum(
            lc.ComponentSpec("gaussian_pulse", 0.4, center=-0.5, width=0.8),
            lc.ComponentSpec("gaussian_pulse", 0.3, center=0.5, width=0.7),
        )
        f0 = lc.sample_initial(datum, grid)
        snaps = lc.evolve(f0, p, lc.SolverConfig(), 2.0)
        rep = lc.pointwise_audit(snaps, dom, lc.charge(f0) + 1.0, p)
        assert rep.passed

    def test_massless_thirring_modulus_bound(self, cone_setup):
        grid, dom = cone_setup
        p = lc.ModelParams(0.0, 1.0, 0.0)
        datum = lc.InitialDatum(
            lc.ComponentSpec("gaussian_pulse", 0.5, center=0.0, width=0.9),
            lc.ComponentSpec("gaussian_pulse", 0.4, center=-1.0, width=1.1),
        )
        f0 = lc.sample_initial(datum, grid)
        snaps = lc.evolve(f0, p, lc.SolverConfig(), 2.0)
        rep = lc.pointwise_audit(snaps, dom, lc.charge(f0) + 1.0, p)
        assert rep.passed

    def test_charge_hypothesis_enforced(self, gn, cone_setup):
        grid, dom = cone_setup
        datum = lc.InitialDatum(
            lc.ComponentSpec("gaussian_pulse", 2.0, center=0.0, width=1.0),
            lc.ComponentSpec("uniform", 0.0),
        )
        f0 = lc.sample_initial(datum, grid)
        snaps = [f0]
        with pytest.raises(PreconditionError, match="charge"):
            lc.pointwise_audit(snaps, dom, 0.5, gn)


class TestBonyDecayAudit:
    def test_zero_field(self, gn, gn_constants, cone_setup):
        grid, dom = cone_setup
        snaps = lc.evolve(lc.sample_initial(lc.zero_datum(), grid), gn, lc.SolverConfig(), 2.0)
        rep = lc.bony_decay_audit(snaps, dom, gn_constants, gn)
        assert rep.passed and rep.max_violation == 0.0

    def test_small_data_pass(self, rng, gn, gn_constants, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, gn_constants.delta0 / 2 * 0.8, (-3, 3))
        snaps = lc.evolve(lc.sample_initial(datum, grid), gn, lc.SolverConfig(), 2.0)
        rep = lc.bony_decay_audit(snaps, dom, gn_constants, gn)
        assert rep.passed
        assert rep.info["seed_ratio_measured"] <= 1.0 + 1e-12

    def test_massless_net_decay(self, rng, gn_constants, cone_setup):
        grid, dom = cone_setup
        p = lc.ModelParams(0.0, 0.0, 0.25)
        datum = random_smooth_datum(rng, grid, gn_constants.delta0 / 2, (-3, 3))
        snaps = lc.evolve(lc.sample_initial(datum, grid), p, lc.SolverConfig(), 2.0)
        rep = lc.bony_decay_audit(snaps, dom, gn_constants, p)
        assert rep.passed  # with m = 0 the budget line is flat: pure net decay

    def test_smallness_precondition(self, rng, gn, gn_constants, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, 4 * gn_constants.delta0, (-3, 3))
        snaps = [lc.sample_initial(datum, grid)]
        with pytest.raises(PreconditionError, match="smallness"):
            lc.bony_decay_audit(snaps, dom, gn_constants, gn)


class TestGronwallAudit:
    def test_identical_fields(self, rng, gn, gn_constants, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, gn_constants.delta / 2, (-3, 3))
        snaps = lc.evolve(lc.sample_initial(datum, grid), gn, lc.SolverConfig(), 2.0)
        rep = lc.gronwall_audit(snaps, snaps, dom, gn_constants, gn)
        assert rep.passed

    def test_perturbed_pair(self, rng, gn, gn_constants, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, gn_constants.delta / 2, (-3, 3))
        f0 = lc.sample_initial(datum, grid)
        fB0 = lc.SpinorField(grid, 0.0, f0.u * (1 + 1e-6), f0.v * (1 + 1e-6))
        a = lc.evolve(f0, gn, lc.SolverConfig(), 2.0)
        b = lc.evolve(fB0, gn, lc.SolverConfig(), 2.0)
        rep = lc.gronwall_audit(a, b, dom, gn_constants, gn)
        assert rep.passed

    def test_pair_smallness_precondition(self, rng, gn, gn_constants, cone_setup):
        grid, dom = cone_setup
        datum = random_smooth_datum(rng, grid, 10 * gn_constants.delta, (-3, 3))
        f0 = lc.sample_initial(datum, grid)
        with pytest.raises(PreconditionError, match="smallness"):
            lc.gronwall_audit([f0], [f0], dom, gn_constants, gn)


class TestMonotoneSlack:
    def test_refined_audit_violation_not_worse(self, rng, gn):
        pu = random_bump_profile(rng, (-3, 3))
        pv = random_bump_profile(rng, (-3, 3))
        vios = []
        for n in (384, 768):
            grid = lc.make_grid(-6, 6, n, "zero_inflow")
            dom = lc.TriangleDomain(-4.0, 4.0)
            datum = datum_from_profiles(pu, pv, grid, target_charge=0.05)
            snaps = lc.evolve(lc.sample_initial(datum, grid), gn, lc.SolverConfig(), 2.0)
            for rep in (
                lc.triangle_charge_audit(snaps, dom, 2.0),
                lc.pointwise_audit(snaps, dom, 1.0, gn),
                lc.bony_decay_audit(snaps, dom, lc.derive_constants(gn), gn),
            ):
                assert rep.passed
            vios.append(lc.triangle_charge_audit(snaps, dom, 2.0).max_violation)
        assert vios[1] <= vios[0] + 1e-15
