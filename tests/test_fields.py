import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lcdirac as lc
from lcdirac.errors import ConfigurationError, UsageError

from conftest import random_field


class TestGrid:
    def test_dx_examples(self):
        assert lc.make_grid(0, 1, 4, "periodic").dx == 0.25
        assert lc.make_grid(-8, 8, 1024, "zero_inflow").dx == 0.015625

    def test_degenerate_extent(self):
        with pytest.raises(ConfigurationError):
            lc.make_grid(1, 1, 4, "periodic")
        with pytest.raises(ConfigurationError):
            lc.make_grid(1, 0, 4, "periodic")

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            lc.make_grid(0, 1, 1, "periodic")

    def test_dt_locked_to_dx(self):
        g = lc.make_grid(-3, 5, 128, "periodic")
        assert g.dt == g.dx

    def test_unknown_boundary(self):
        with pytest.raises(ConfigurationError):
            lc.make_grid(0, 1, 4, "reflecting")

    def test_index_of_alignment(self):
        g = lc.make_grid(-2, 2, 16, "periodic")
        assert g.index_of(-2.0) == 0
        assert g.index_of(0.0) == 8
        with pytest.raises(UsageError):
            g.index_of(0.1)


class TestSampling:
    def test_zero_datum(self):
        g = lc.make_grid(-8, 8, 64, "zero_inflow")
        f = lc.sample_initial(lc.zero_datum(), g)
        assert not f.u.any() and not f.v.any()
        assert f.t == 0.0

    def test_indicator_charge_within_cell(self):
        g = lc.make_grid(-8, 8, 1024, "zero_inflow")
        datum = lc.InitialDatum(
            lc.ComponentSpec("indicator_jump", 1.0, center=0.0, halfwidth=1.0),
            lc.ComponentSpec("uniform", 0.0),
        )
        f = lc.sample_initial(datum, g)
        q = float(np.sum(np.abs(f.u) ** 2)) * g.dx
        assert abs(q - 2.0) <= 2 * g.dx

    def test_indicator_charge_first_order(self):
        errs = []
        for n in (512, 1024, 2048):
            g = lc.make_grid(-8, 8, n, "zero_inflow")
            datum = lc.InitialDatum(
                lc.ComponentSpec("indicator_jump", 1.0, center=0.0, halfwidth=1.0),
                lc.ComponentSpec("uniform", 0.0),
            )
            f = lc.sample_initial(datum, g)
            errs.append(abs(lc.charge(f) - 2.0))
        assert errs[0] / errs[1] >= 1.8 and errs[1] / errs[2] >= 1.8

    def test_gaussian_charge_matches_analytic(self):
        g = lc.make_grid(-8, 8, 4096, "zero_inflow")
        A, w = 0.8 + 0.3j, 1.3
        datum = lc.InitialDatum(
            lc.ComponentSpec("gaussian_pulse", A, center=0.5, width=w),
            lc.ComponentSpec("uniform", 0.0),
        )
        f = lc.sample_initial(datum, g)
        exact = abs(A) ** 2 * w * np.sqrt(np.pi / 2.0)
        assert abs(lc.charge(f) - exact) <= 1e-6 * exact

    def test_gaussian_charge_refinement(self):
        # barely resolved width so the sampling error is visible at the
        # coarse level; rectangle sums of smooth data then collapse fast
        w = 0.1
        exact = 0.25 * w * np.sqrt(np.pi / 2.0)
        errs = []
        for n in (64, 128):
            g = lc.make_grid(-8, 8, n, "zero_inflow")
            datum = lc.InitialDatum(
                lc.ComponentSpec("gaussian_pulse", 0.5, center=0.0, width=w),
                lc.ComponentSpec("uniform", 0.0),
            )
            errs.append(abs(lc.charge(lc.sample_initial(datum, g)) - exact))
        assert errs[0] / max(errs[1], 1e-300) >= 1.8

    def test_sampled_length_mismatch(self):
        g = lc.make_grid(0, 1, 8, "periodic")
        datum = lc.InitialDatum(
            lc.ComponentSpec("sampled", values=np.zeros(4, dtype=complex)),
            lc.ComponentSpec("uniform", 0.0),
        )
        with pytest.raises(ConfigurationError):
            lc.sample_initial(datum, g)

    def test_power_singularity_square_integrable(self):
        g = lc.make_grid(-4, 4, 2048, "zero_inflow")
        datum = lc.InitialDatum(
            lc.ComponentSpec("power_singularity_truncated", 1.0, center=0.0,
                             exponent=0.3, cap=50.0, halfwidth=1.0),
            lc.ComponentSpec("uniform", 0.0),
        )
        f = lc.sample_initial(datum, g)
        assert np.isfinite(lc.charge(f))
        with pytest.raises(ConfigurationError):
            lc.ComponentSpec("power_singularity_truncated", exponent=0.7)

    def test_field_immutable(self, rng):
        g = lc.make_grid(0, 1, 16, "periodic")
        f = random_field(rng, g)
        with pytest.raises(ValueError):
            f.u[0] = 1.0


class TestTriangleDomain:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            lc.TriangleDomain(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            lc.TriangleDomain(1.0, 1.0)

    def test_cross_section(self):
        dom = lc.TriangleDomain(-3.0, 3.0)
        assert dom.apex_time == 3.0
        assert dom.cross_section(0.0) == (-3.0, 3.0)
        assert dom.cross_section(2.0) == (-1.0, 1.0)
        for t in (-0.5, 4.0):
            with pytest.raises(UsageError):
                dom.cross_section(t)

    def test_section_indices_strictly_inside(self):
        g = lc.make_grid(-2, 2, 16, "periodic")  # dx = 0.25
        dom = lc.TriangleDomain(-1.0, 1.0)
        i0, i1 = dom.section_indices(g, 0.0)
        x = g.sites()[i0:i1]
        assert x[0] > -1.0 and x[-1] < 1.0
        assert x[0] == -0.75 and x[-1] == 0.75


class TestL2Distance:
    def test_identity_and_zero(self, rng):
        g = lc.make_grid(-1, 1, 64, "periodic")
        f = random_field(rng, g)
        z = lc.SpinorField(g, 0.0, np.zeros(64, complex), np.zeros(64, complex))
        assert lc.l2_distance(f, f) == 0.0
        assert lc.l2_distance(f, z) == pytest.approx(np.sqrt(lc.charge(f)), rel=1e-14)

    def test_symmetry_exact(self, rng):
        g = lc.make_grid(-1, 1, 64, "periodic")
        fA, fB = random_field(rng, g), random_field(rng, g)
        assert lc.l2_distance(fA, fB) == lc.l2_distance(fB, fA)

    def test_grid_time_mismatch(self, rng):
        gA = lc.make_grid(-1, 1, 64, "periodic")
        gB = lc.make_grid(-1, 1, 32, "periodic")
        with pytest.raises(UsageError):
            lc.l2_distance(random_field(rng, gA), random_field(rng, gB))
        with pytest.raises(UsageError):
            lc.l2_distance(random_field(rng, gA), random_field(rng, gA, t=1.0))

    def test_triangle_inequality(self, rng):
        g = lc.make_grid(-1, 1, 128, "periodic")
        for _ in range(50):
            fA, fB, fC = (random_field(rng, g) for _ in range(3))
            dab = lc.l2_distance(fA, fB)
            dbc = lc.l2_distance(fB, fC)
            dac = lc.l2_distance(fA, fC)
            assert dac <= (dab + dbc) * (1 + 1e-12)

    def test_window_additivity(self, rng):
        g = lc.make_grid(-2, 2, 256, "periodic")
        fA, fB = random_field(rng, g), random_field(rng, g)
        # split at a half-cell offset so no site is dropped or double counted
        mid = g.x_min + (g.n_points // 2) * g.dx + 0.5 * g.dx
        full = lc.TriangleDomain(-1.5, 1.5)
        left = lc.TriangleDomain(-1.5, mid)
        right = lc.TriangleDomain(mid, 1.5)
        d2 = lc.l2_distance(fA, fB, full) ** 2
        parts = lc.l2_distance(fA, fB, left) ** 2 + lc.l2_distance(fA, fB, right) ** 2
        assert d2 == pytest.approx(parts, rel=1e-12)


@given(
    st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
             min_size=8, max_size=8),
    st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
             min_size=8, max_size=8),
)
def test_l2_metric_properties(zs, ws):
    g = lc.make_grid(0, 1, 8, "periodic")
    fA = lc.SpinorField(g, 0.0, np.array(zs), np.zeros(8, complex))
    fB = lc.SpinorField(g, 0.0, np.array(ws), np.zeros(8, complex))
    d = lc.l2_distance(fA, fB)
    assert d >= 0
    assert d == lc.l2_distance(fB, fA)
    if d == 0:
        assert np.allclose(fA.u, fB.u)
