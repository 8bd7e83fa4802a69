import numpy as np
import pytest

import lcdirac as lc
from lcdirac.errors import ResolutionError
from lcdirac import harness, kernels
from lcdirac.harness import mollify

from conftest import random_field
from ensembles import datum_from_profiles, random_bump_profile, random_smooth_datum


def jump_datum(u_amp=1.0, v_amp=0.75):
    return lc.InitialDatum(
        lc.ComponentSpec("indicator_jump", u_amp, center=0.0, halfwidth=1.0),
        lc.ComponentSpec("indicator_jump", v_amp, center=-0.5, halfwidth=1.0),
    )


class TestMollify:
    def test_zero_datum(self):
        g = lc.make_grid(-4, 4, 256, "zero_inflow")
        f = lc.mollify(lc.sample_initial(lc.zero_datum(), g), 0.25)
        assert not f.u.any() and not f.v.any()

    @pytest.mark.parametrize("kernel", ["bump", "triangle"])
    def test_charge_nonexpansive(self, rng, kernel):
        g = lc.make_grid(-4, 4, 512, "zero_inflow")
        f = random_field(rng, g)
        out = lc.mollify(f, 0.25, kernel)
        assert lc.charge(out) <= lc.charge(f) * (1 + 1e-12)

    def test_resolution_floor(self):
        g = lc.make_grid(-4, 4, 64, "zero_inflow")  # dx = 1/8
        with pytest.raises(ResolutionError):
            lc.mollify(lc.sample_initial(lc.zero_datum(), g), 0.2)

    def test_indicator_plateau_and_support(self):
        g = lc.make_grid(-4, 4, 1024, "zero_inflow")  # dx = 1/128
        eps = 1.0 / 8.0
        datum = lc.InitialDatum(
            lc.ComponentSpec("indicator_jump", 1.0, center=0.0, halfwidth=1.0),
            lc.ComponentSpec("uniform", 0.0),
        )
        f = lc.mollify(lc.sample_initial(datum, g), eps)
        x = g.sites()
        inner = np.abs(x) <= 1.0 - eps - g.dx
        outer = np.abs(x) >= 1.0 + eps + g.dx
        assert np.max(np.abs(f.u[inner] - 1.0)) < 1e-12
        assert np.max(np.abs(f.u[outer])) < 1e-12
        rising = (x >= -1.0 - eps) & (x <= -1.0 + eps)
        assert np.all(np.diff(f.u[rising].real) >= -1e-14)

    def test_matches_fine_resolution_oracle(self):
        # same datum smoothed on an 8x finer lattice, then decimated
        eps = 0.25
        coarse = lc.make_grid(-4, 4, 512, "zero_inflow")
        fine = lc.make_grid(-4, 4, 4096, "zero_inflow")
        datum = jump_datum()
        out_c = lc.mollify(lc.sample_initial(datum, coarse), eps)
        out_f = lc.mollify(lc.sample_initial(datum, fine), eps)
        dec = out_f.u[::8]
        err = np.max(np.abs(out_c.u - dec))
        assert err < 0.03


def rough_datum():
    return lc.InitialDatum(
        lc.ComponentSpec("indicator_jump", 0.3, center=0.2, halfwidth=1.0),
        lc.ComponentSpec("power_singularity_truncated", 0.2, center=-0.3, halfwidth=1.5, exponent=0.3, cap=10.0),
    )


ZERO_HORIZONS = pytest.mark.parametrize("steps", [0.0, 0.5], ids=["T=0", "T=dt/2"])  # both evolve no step


class TestConvergenceStudy:
    @ZERO_HORIZONS
    def test_zero_horizon_distances(self, steps):
        """Over [0, 0] the product distance is 0 and the field distance is
        that of the mollified data."""
        g = lc.make_grid(-8, 8, 512, "periodic")
        eps = [0.4, 0.2, 0.1]
        table = lc.convergence_study(rough_datum(), eps, lc.THIRRING, g, steps * g.dt)
        f0s = [lc.mollify(lc.sample_initial(rough_datum(), g), e) for e in eps]
        assert table.product_distances == (0.0, 0.0)
        assert table.pair_distances == tuple(lc.l2_distance(a, b) for a, b in zip(f0s, f0s[1:]))
        assert all(d > 0 for d in table.pair_distances)

    def test_identical_epsilons_zero_distance(self, gn):
        g = lc.make_grid(-6, 6, 768, "zero_inflow")
        table = lc.convergence_study(jump_datum(), [0.25, 0.25], gn, g, 0.5)
        assert table.pair_distances == (0.0,)
        assert table.product_distances == (0.0,)

    def test_smooth_datum_small_distances(self, gn):
        g = lc.make_grid(-6, 6, 768, "zero_inflow")
        datum = lc.InitialDatum(
            lc.ComponentSpec("gaussian_pulse", 0.5, center=0.0, width=1.0),
            lc.ComponentSpec("gaussian_pulse", 0.4, center=0.5, width=1.2),
        )
        table = lc.convergence_study(datum, [0.5, 0.25, 0.125], gn, g, 0.5)
        assert all(d < 0.2 for d in table.pair_distances)
        assert table.pair_distances[1] < table.pair_distances[0]

    def test_jump_datum_cauchy_decay(self, gn):
        g = lc.make_grid(-6, 6, 768, "zero_inflow")  # dx = 1/64
        eps = [2.0**-k for k in range(2, 6)]
        table = lc.convergence_study(jump_datum(), eps, gn, g, 0.5)
        d = table.pair_distances
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))

    def test_level_triangle_inequality(self, gn):
        g = lc.make_grid(-6, 6, 768, "zero_inflow")
        eps = [0.5, 0.25, 0.125]
        runs = [
            lc.evolve(lc.mollify(lc.sample_initial(jump_datum(), g), e), gn, lc.SolverConfig(), 0.5)
            for e in eps
        ]

        def dist(a, b):
            return max(lc.l2_distance(x, y) for x, y in zip(a, b))

        d01 = dist(runs[0], runs[1])
        d12 = dist(runs[1], runs[2])
        d02 = dist(runs[0], runs[2])
        assert d02 <= (d01 + d12) * (1 + 1e-12)


class TestUniquenessProbe:
    @ZERO_HORIZONS
    def test_zero_horizon_distances(self, steps):
        g = lc.make_grid(-8, 8, 512, "periodic")
        eps = [0.4, 0.2, 0.1]
        table = lc.uniqueness_probe(rough_datum(), "bump", "triangle", eps, lc.THIRRING, g, steps * g.dt)
        f = lc.sample_initial(rough_datum(), g)
        assert table.product_distances == (0.0, 0.0, 0.0)
        assert table.pair_distances == tuple(lc.l2_distance(lc.mollify(f, e, "bump"), lc.mollify(f, e, "triangle"))
                                             for e in eps)
        assert all(d > 0 for d in table.pair_distances)

    def test_same_family_identically_zero(self, gn):
        g = lc.make_grid(-6, 6, 768, "zero_inflow")
        table = lc.uniqueness_probe(jump_datum(), "bump", "bump", [0.25, 0.125], gn, g, 0.5)
        assert table.pair_distances == (0.0, 0.0)

    def test_cross_family_decreasing(self, gn):
        g = lc.make_grid(-6, 6, 768, "zero_inflow")
        datum = lc.InitialDatum(
            lc.ComponentSpec("gaussian_pulse", 0.5, center=0.0, width=1.0),
            lc.ComponentSpec("gaussian_pulse", 0.4, center=-0.5, width=0.8),
        )
        table = lc.uniqueness_probe(datum, "bump", "triangle", [0.5, 0.25, 0.125], gn, g, 0.5)
        d = table.pair_distances
        assert d[-1] < d[0]

    def test_cross_family_consistent_with_same_family(self, gn):
        # final cross distance within 10x of the final same-family pair distance
        g = lc.make_grid(-6, 6, 768, "zero_inflow")
        eps = [0.5, 0.25, 0.125]
        cross = lc.uniqueness_probe(jump_datum(), "bump", "triangle", eps, gn, g, 0.5)
        same = lc.convergence_study(jump_datum(), eps, gn, g, 0.5)
        assert cross.pair_distances[-1] <= 10.0 * same.pair_distances[-1]


class TestEnsembleData:
    def test_deterministic_and_charged(self):
        g = lc.make_grid(-6, 6, 384, "zero_inflow")
        a = random_smooth_datum(np.random.default_rng(5), g, 0.04, (-3, 3))
        b = random_smooth_datum(np.random.default_rng(5), g, 0.04, (-3, 3))
        fa, fb = lc.sample_initial(a, g), lc.sample_initial(b, g)
        assert np.array_equal(fa.u, fb.u)
        assert lc.charge(fa) == pytest.approx(0.04, rel=1e-9)

    def test_profile_scale_stable_under_refinement(self, rng):
        pu = random_bump_profile(rng, (-3, 3))
        pv = random_bump_profile(rng, (-3, 3))
        charges = []
        for n in (384, 768):
            g = lc.make_grid(-6, 6, n, "zero_inflow")
            datum = datum_from_profiles(pu, pv, g, target_charge=0.5)
            charges.append(lc.charge(lc.sample_initial(datum, g)))
        assert charges[0] == pytest.approx(charges[1], rel=1e-6)


def test_lockstep_pairs_share_one_distance_buffer(monkeypatch):
    """The pairs of one lockstep run take their sums in one DistanceSums,
    with one distance_sums call per level for all of them, and get the
    distances of a run of each pair alone."""
    made, calls = [], []

    class Recorded(kernels.DistanceSums):
        def __init__(self, n, pairs):
            super().__init__(n, pairs)
            made.append(self)

    real = kernels.distance_sums

    def counted(sums, runs):
        calls.append(len(sums.pairs))
        return real(sums, runs)

    monkeypatch.setattr(kernels, "DistanceSums", Recorded)
    monkeypatch.setattr(kernels, "distance_sums", counted)
    g = lc.make_grid(-8, 8, 512, "periodic")
    eps = [0.8, 0.4, 0.2, 0.1]
    table = lc.convergence_study(rough_datum(), eps, lc.THIRRING, g, 0.5)
    levels = round(0.5 / g.dt) + 1
    assert len(made) == 1 and calls == [3] * levels
    f0s = harness._mollified(rough_datum(), g, eps, ["bump"])
    alone = [harness._lockstep_distances(f0s[j:j + 2], [(0, 1)], lc.THIRRING, 0.5, ["A", "B"]) for j in range(3)]
    assert len(made) == 4 and calls == [3] * levels + [1] * (3 * levels)
    assert table.pair_distances == tuple(field[0] for field, _ in alone)
    assert table.product_distances == tuple(prod[0] for _, prod in alone)
