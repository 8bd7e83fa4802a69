import itertools
import logging

import numpy as np
import pytest

import lcdirac as lc
from lcdirac import kernels, solver
from lcdirac.errors import BlowUpError, FrequencyDomainError, UsageError

from conftest import SOLITON_MUTANTS, apply_soliton_mutant, backend, random_field


def uniform_datum(u_amp, v_amp):
    return lc.InitialDatum(lc.ComponentSpec("uniform", u_amp), lc.ComponentSpec("uniform", v_amp))


def manufactured_order():
    """Observed L2 order of the forced step on the manufactured solution, N = 128 -> 256."""
    p = lc.ModelParams(1.0, 0.5, 0.25)
    case = lc.manufactured_case(p, length=4.0)
    errs = []
    for n in (128, 256):
        g = lc.make_grid(0, 4, n, "periodic")
        f0 = case.initial(g)
        snaps = lc.evolve(f0, p, lc.SolverConfig(forcing=case.forcing, record_every=10**9), 1.0)
        errs.append(lc.l2_distance(snaps[-1], case.at(g, snaps[-1].t)))
    return float(np.log2(errs[0] / errs[1]))


def _gain_1pct(step):
    def gained(*args, **kw):
        u, v, bad = step(*args, **kw)
        return 1.01 * u, 1.01 * v, bad  # the arrays only: the verdict passes through

    return gained


# Each wraps the step kernel into a plausibly broken one.
KERNEL_MUTANTS = {
    "beta_flipped": lambda step: lambda u, v, h, m, a, b, *rest, **kw: step(u, v, h, m, a, -b, *rest, **kw),
    "mass_dropped": lambda step: lambda u, v, h, m, *rest, **kw: step(u, v, h, 0.0, *rest, **kw),
    "alpha_dropped": lambda step: lambda u, v, h, m, a, *rest, **kw: step(u, v, h, m, 0.0, *rest, **kw),
    "gain_1pct": _gain_1pct,
}


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("boundary", ["periodic", "zero_inflow"])
def test_evolved_levels_are_read_only_finite_and_timed(rng, name, boundary):
    """Every level evolve yields, in the list and the observer form, is
    read-only, C-contiguous complex128 of grid length and finite, on the
    run's grid at t = k dt summed step by step: what the step's own
    constructor trusts the kernel for instead of checking again. An
    observer's levels are checked during its call, the only time they are
    valid."""
    g = lc.make_grid(-2, 2, 300, boundary)
    f0, f1 = random_field(rng, g, scale=0.5), random_field(rng, g, scale=0.3)
    steps = 6
    times = list(itertools.accumulate([0.0] + [g.dt] * steps))

    def check(f, k):
        assert type(f) is lc.SpinorField and f.grid == g and f.t == times[k], (k, f.t, times[k])
        for a in (f.u, f.v):
            assert type(a) is np.ndarray and a.dtype == np.complex128 and a.shape == (g.n_points,)
            assert a.flags.c_contiguous and not a.flags.writeable
            assert np.isfinite(a.view(np.float64)).all()
            with pytest.raises(ValueError):
                a[0] = 0.0

    calls = []
    with backend(name):
        listed = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), steps * g.dt)
        lc.evolve([f0, f1], lc.GROSS_NEVEU, lc.SolverConfig(), steps * g.dt,
                  observers=[lambda levels: calls.append([check(f, len(calls)) for f in levels])])
    assert len(listed) == len(calls) == steps + 1
    for k, f in enumerate(listed):
        check(f, k)


class TestTransport:
    def test_exact_shift_periodic(self, rng):
        g = lc.make_grid(-4, 4, 128, "periodic")
        f0 = random_field(rng, g)
        p = lc.ModelParams(0.0, 0.0, 0.0)
        snaps = lc.evolve(f0, p, lc.SolverConfig(), 7 * g.dt)
        assert np.array_equal(snaps[-1].u, np.roll(f0.u, 7))
        assert np.array_equal(snaps[-1].v, np.roll(f0.v, -7))

    def test_exact_shift_zero_inflow(self, rng):
        g = lc.make_grid(-4, 4, 128, "zero_inflow")
        f0 = random_field(rng, g)
        p = lc.ModelParams(0.0, 0.0, 0.0)
        f1 = lc.step(f0, p, lc.SolverConfig())
        assert f1.u[0] == 0.0 and f1.v[-1] == 0.0
        assert np.array_equal(f1.u[1:], f0.u[:-1])
        assert np.array_equal(f1.v[:-1], f0.v[1:])


class TestLinearOracle:
    def test_uniform_mode_closed_form(self):
        errs = []
        for n in (128, 256, 512):
            g = lc.make_grid(0, 2 * np.pi, n, "periodic")
            f0 = lc.sample_initial(uniform_datum(1.0, 0.0), g)
            p = lc.ModelParams(1.0, 0.0, 0.0)
            snaps = lc.evolve(f0, p, lc.SolverConfig(record_every=10**9), 2 * np.pi)
            T = snaps[-1].t
            err = max(
                float(np.max(np.abs(snaps[-1].u - np.cos(T)))),
                float(np.max(np.abs(snaps[-1].v - 1j * np.sin(T)))),
            )
            errs.append(err)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders)


class TestEvolve:
    def test_horizon_zero(self, rng):
        g = lc.make_grid(0, 1, 32, "periodic")
        f0 = random_field(rng, g)
        snaps = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 0.0)
        assert len(snaps) == 1 and snaps[0] is f0

    def test_zero_datum_stays_zero(self):
        g = lc.make_grid(-2, 2, 64, "zero_inflow")
        f0 = lc.sample_initial(lc.zero_datum(), g)
        snaps = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 0.5)
        assert not snaps[-1].u.any() and not snaps[-1].v.any()

    def test_record_every(self, rng):
        g = lc.make_grid(0, 1, 32, "periodic")
        f0 = random_field(rng, g, scale=0.1)
        snaps = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(record_every=4), 10 * g.dt)
        # t=0, steps 4 and 8, and the final step 10
        assert len(snaps) == 4
        assert snaps[-1].t == pytest.approx(10 * g.dt)

    def test_non_multiple_horizon_rounds_down(self, rng, caplog):
        g = lc.make_grid(0, 1, 32, "periodic")  # dt = 0.03125
        f0 = random_field(rng, g, scale=0.1)
        with caplog.at_level(logging.WARNING, logger="lcdirac.solver"):
            snaps = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 0.05)
        assert snaps[-1].t == pytest.approx(g.dt)
        assert any("not a step multiple" in r.message for r in caplog.records)

    def test_negative_horizon(self, rng):
        g = lc.make_grid(0, 1, 32, "periodic")
        with pytest.raises(UsageError):
            lc.evolve(random_field(rng, g), lc.GROSS_NEVEU, lc.SolverConfig(), -1.0)

    def test_determinism_bit_identical(self, rng):
        g = lc.make_grid(-4, 4, 256, "periodic")
        f0 = random_field(rng, g, scale=0.5)
        a = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 1.0)
        b = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 1.0)
        assert np.array_equal(a[-1].u, b[-1].u) and np.array_equal(a[-1].v, b[-1].v)

    def test_gauge_covariance(self, rng):
        g = lc.make_grid(-4, 4, 128, "periodic")
        f0 = random_field(rng, g, scale=0.5)
        ph = np.exp(0.7j)
        f0r = lc.SpinorField(g, 0.0, ph * f0.u, ph * f0.v)
        a = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 0.5)
        b = lc.evolve(f0r, lc.GROSS_NEVEU, lc.SolverConfig(), 0.5)
        scale = np.max(np.abs(a[-1].u))
        assert np.max(np.abs(b[-1].u - ph * a[-1].u)) <= 1e-12 * scale
        assert np.max(np.abs(b[-1].v - ph * a[-1].v)) <= 1e-12 * scale

    def test_blow_up_reported_with_partial(self):
        g = lc.make_grid(-1, 1, 64, "periodic")
        big = lc.sample_initial(uniform_datum(1e160, 1e160), g)
        with pytest.raises(BlowUpError) as exc_info:
            lc.evolve(big, lc.ModelParams(0.0, 1.0, 0.0), lc.SolverConfig(), 1.0)
        err = exc_info.value
        assert err.partial and err.partial[0] is big
        assert 0 <= err.site < 64


class TestChargeDrift:
    def test_single_step_drift_second_order(self):
        drifts = []
        for n in (256, 512):
            g = lc.make_grid(-8, 8, n, "periodic")
            datum = lc.InitialDatum(
                lc.ComponentSpec("gaussian_pulse", 0.8, center=0.0, width=1.2),
                lc.ComponentSpec("gaussian_pulse", 0.7, center=-1.0, width=1.4),
            )
            f0 = lc.sample_initial(datum, g)
            snaps = lc.evolve(f0, lc.GROSS_NEVEU, lc.SolverConfig(), 1.0)
            q = [lc.charge(s) for s in snaps]
            drifts.append(max(abs(x - q[0]) for x in q) / q[0])
        assert drifts[1] < drifts[0]


class TestResidual:
    def test_zero_field(self):
        g = lc.make_grid(-2, 2, 64, "periodic")
        z = lc.sample_initial(lc.zero_datum(), g)

        def provider(t):
            return lc.SpinorField(g, t, z.u, z.v)

        ru, rv = lc.pde_residual(provider, lc.GROSS_NEVEU, g, 0.5)
        assert ru == 0.0 and rv == 0.0

    def test_linear_plane_wave_second_order(self):
        m = 1.0
        p = lc.ModelParams(m, 0.0, 0.0)
        L = 8.0
        kx = 2 * np.pi / L * 2
        om = np.sqrt(kx**2 + m**2)
        b_over_a = -(om - kx) / m
        res = []
        for n in (128, 256):
            g = lc.make_grid(-4, 4, n, "periodic")
            x = g.sites()

            def provider(t, g=g, x=x):
                ph = np.exp(1j * (kx * x - om * t))
                return lc.SpinorField(g, t, 0.5 * ph, 0.5 * b_over_a * ph)

            ru, rv = lc.pde_residual(provider, p, g, 1.0)
            res.append(np.hypot(ru, rv))
        assert 3.0 <= res[0] / res[1] <= 5.0

    def test_manufactured_forced_convergence(self):
        assert 1.8 <= manufactured_order() <= 2.2

    @pytest.mark.parametrize("mutant", sorted(KERNEL_MUTANTS))
    def test_manufactured_order_kills_kernel_mutants(self, monkeypatch, mutant):
        # Forcing goes through the production step, so a wrong coupling
        # there must break the second-order convergence.
        monkeypatch.setattr(kernels, "step_unforced", KERNEL_MUTANTS[mutant](kernels.step_unforced))
        order = manufactured_order()
        assert not 1.8 <= order <= 2.2, order


class TestSolitonOracle:
    def test_frequency_window(self):
        g = lc.make_grid(-16, 16, 256, "zero_inflow")
        with pytest.raises(FrequencyDomainError):
            lc.thirring_soliton(1.0, 1.0, g)
        with pytest.raises(FrequencyDomainError):
            lc.thirring_soliton(1.0, 0.0, g)

    def test_validated_profile(self):
        g = lc.make_grid(-16, 16, 512, "zero_inflow")
        oracle = lc.thirring_soliton(1.0, 0.5, g)
        assert oracle.available
        assert all(o >= 1.8 for o in oracle.residual_orders)
        f = oracle.field
        # profile is even in |.|, localized, and rides e^{-i omega t}
        assert np.max(np.abs(f.u[:8])) < 1e-4
        later = oracle.at(1.0)
        assert np.allclose(np.abs(later.u), np.abs(f.u))

    @pytest.mark.parametrize("mutant", sorted(SOLITON_MUTANTS))
    def test_order_check_refuses_wrong_signs(self, monkeypatch, mutant):
        apply_soliton_mutant(monkeypatch, mutant)
        oracle = lc.thirring_soliton(1.0, 0.5, lc.make_grid(-16, 16, 512, "zero_inflow"))
        assert not oracle.available and oracle.field is None
        assert all(abs(o) < 0.5 for o in oracle.residual_orders), oracle.residual_orders
        with pytest.raises(UsageError, match="unavailable"):
            oracle.at(0.0)

    def test_order_check_refuses_an_infinite_order(self, monkeypatch):
        # a residual of 0 on the finest trial grid makes the second order inf
        real = solver.pde_residual

        def zero_on_the_finest(candidate, p, grid, T):
            return (0.0, 0.0) if grid.n_points == 1024 else real(candidate, p, grid, T)

        monkeypatch.setattr(solver, "pde_residual", zero_on_the_finest)
        oracle = lc.thirring_soliton(1.0, 0.5, lc.GridSpec(-20, 20, 256, "zero_inflow"))
        assert oracle.residual_orders[0] >= 1.8 and oracle.residual_orders[1] == np.inf
        assert not oracle.available and oracle.field is None

    def test_solver_tracks_oracle(self):
        g = lc.make_grid(-16, 16, 1024, "zero_inflow")
        oracle = lc.thirring_soliton(1.0, 0.5, g)
        snaps = lc.evolve(oracle.field, lc.ModelParams(1.0, 1.0, 0.0),
                          lc.SolverConfig(record_every=10**9), 1.0)
        err = lc.l2_distance(snaps[-1], oracle.at(snaps[-1].t))
        assert err < 0.05
