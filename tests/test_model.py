import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lcdirac as lc
from lcdirac import kernels, model
from lcdirac.errors import ConfigurationError
from lcdirac.model import EstimateConstants, source_charge_rate

from conftest import backend

finite_c = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
needs_compiled = pytest.mark.skipif(
    "compiled" not in kernels.available_backends(), reason=f"compiled kernels not built ({kernels.backend_reason()})"
)


class TestNonlinearity:
    def test_vanishes_at_zero_u(self, rng):
        for _ in range(20):
            v = complex(rng.normal(), rng.normal())
            p = lc.ModelParams(rng.uniform(0, 2), rng.normal(), rng.normal())
            W, N1, N2 = lc.eval_nonlinearity(0.0, v, p)
            assert W == 0 and N1 == 0 and N2 == 0

    def test_gross_neveu_phase_orthogonal(self):
        p = lc.ModelParams(0.7, 0.0, 0.25)
        W, N1, N2 = lc.eval_nonlinearity(1.0, 1j, p)
        assert W == 0 and N1 == 0 and N2 == 0

    def test_thirring_point(self):
        p = lc.ModelParams(0.0, 1.0, 0.0)
        W, N1, N2 = lc.eval_nonlinearity(1 + 1j, 2.0, p)
        assert W == pytest.approx(8.0)
        assert N1 == pytest.approx(4 * (1 + 1j))
        assert N2 == pytest.approx(4.0)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 0.25), (0.6, -0.8)])
    def test_wirtinger_against_finite_differences(self, rng, alpha, beta):
        p = lc.ModelParams(1.0, alpha, beta)
        n = 10_000
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        _, N1, N2 = lc.eval_nonlinearity(u, v, p)
        h = 1e-5

        def W(uu, vv):
            return lc.eval_nonlinearity(uu, vv, p)[0]

        # Wirtinger d/d(conj z) = (d/dx + i d/dy) / 2
        fd1 = ((W(u + h, v) - W(u - h, v)) + 1j * (W(u + 1j * h, v) - W(u - 1j * h, v))) / (4 * h)
        fd2 = ((W(u, v + h) - W(u, v - h)) + 1j * (W(u, v + 1j * h) - W(u, v - 1j * h))) / (4 * h)
        scale = np.maximum(np.abs(N1), 1e-3)
        assert np.max(np.abs(fd1 - N1) / scale) < 1e-6
        scale = np.maximum(np.abs(N2), 1e-3)
        assert np.max(np.abs(fd2 - N2) / scale) < 1e-6

    def test_charge_neutrality_identity(self, rng):
        p = lc.ModelParams(1.0, 0.8, -0.3)
        u = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        v = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        ru, rv = source_charge_rate(u, v, p)
        assert np.max(np.abs(ru + rv)) < 1e-12 * np.max(1 + np.abs(ru))
        # reduced evaluation agrees with the generic product form
        _, N1g, N2g = lc.eval_nonlinearity(u, v, p)
        ru_generic = 2 * np.real(1j * np.conj(N1g) * u)
        rv_generic = 2 * np.real(1j * np.conj(N2g) * v)
        scale = np.max(np.abs(ru_generic)) + 1
        assert np.max(np.abs(ru - ru_generic)) < 1e-12 * scale
        assert np.max(np.abs(rv - rv_generic)) < 1e-12 * scale
        _, N1, N2 = lc.eval_nonlinearity(u, v, p)
        total = np.conj(N1) * u + np.conj(N2) * v
        s = 2 * (u.real * v.real + u.imag * v.imag)
        expected = 2 * p.alpha * np.abs(u) ** 2 * np.abs(v) ** 2 + 2 * p.beta * s**2
        assert np.allclose(total.real, expected, rtol=1e-12, atol=1e-12)
        assert np.max(np.abs(total.imag)) < 1e-12 * np.max(1 + np.abs(total.real))

    def test_gauge_covariance(self, rng):
        p = lc.ModelParams(1.0, 0.4, 0.7)
        for _ in range(30):
            u = complex(rng.normal(), rng.normal())
            v = complex(rng.normal(), rng.normal())
            th = rng.uniform(0, 2 * np.pi)
            ph = np.exp(1j * th)
            W0, N10, N20 = lc.eval_nonlinearity(u, v, p)
            W1, N11, N21 = lc.eval_nonlinearity(ph * u, ph * v, p)
            assert W1 == pytest.approx(W0, rel=1e-12, abs=1e-12)
            assert N11 == pytest.approx(ph * N10, rel=1e-12, abs=1e-12)
            assert N21 == pytest.approx(ph * N20, rel=1e-12, abs=1e-12)


class TestEnvelopes:
    def test_difference_terms_trivial(self):
        U, V, r2 = lc.eval_difference_terms(1 + 2j, -1j, 1 + 2j, -1j)
        assert U == 0 and V == 0 and r2 == 0

    def test_difference_terms_point(self):
        U, V, r2 = lc.eval_difference_terms(1.0, 1.0, 0.0, 1.0)
        assert U == 1.0 and V == 0.0
        assert r2 == 2.0

    def test_product_difference_bound(self, rng):
        n = 100_000
        uA, vA, uB, vB = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4))
        _, _, r2 = lc.eval_difference_terms(uA, vA, uB, vB)
        lhs = np.abs(uA * vA - uB * vB) ** 2
        assert np.all(lhs <= 2 * r2 * (1 + 1e-12))


class TestConstants:
    def test_defaults_satisfy_inequalities(self):
        for p in (lc.GROSS_NEVEU, lc.THIRRING, lc.ModelParams(0.0, 0.0, 0.0)):
            k = lc.derive_constants(p)
            assert k.c == 8 * abs(p.beta)
            assert -2 + 2 * k.delta0 * k.c < -1
            assert -2 + 2 * k.c_star * k.delta < -1
            assert -k.K + 2 * k.c_star < -1

    def test_weight_constant_violation_names_inequality(self):
        with pytest.raises(ConfigurationError, match=r"-K\+2c_\*<-1"):
            lc.derive_constants(lc.GROSS_NEVEU, K=1.0, c_star=16.0)

    def test_c_tied_to_beta(self):
        with pytest.raises(ConfigurationError):
            EstimateConstants(c=1.0, delta0=0.1, c_star=16.0, K=34.0, delta=0.01).validate(lc.GROSS_NEVEU)

    @pytest.mark.parametrize("p", [lc.THIRRING, lc.GROSS_NEVEU, lc.ModelParams(1.0, 0.0, -0.25)])
    @pytest.mark.parametrize("c_star", [-5.0, -0.0, 0.0])
    def test_c_star_must_be_positive_for_a_coupling(self, p, c_star):
        """Negative or zero c_star with a nonzero coupling is refused by name,
        though the inequalities, bounding c_star and K from above, hold."""
        with pytest.raises(ConfigurationError, match=r"c_star must be"):
            lc.derive_constants(p, c_star=c_star, delta=0.01)

    def test_negative_c_star_refused_without_coupling(self):
        free = lc.ModelParams(1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError, match=r"c_star must be >= 0, got -1.0"):
            lc.derive_constants(free, c_star=-1.0)
        assert lc.derive_constants(free, c_star=0.0).c_star == 0.0

    @pytest.mark.parametrize("K", [-8.0, 0.0])
    def test_nonpositive_K_refused(self, K):
        """Named before the inequality -K + 2 c_star < -1, which also excludes it."""
        free = lc.ModelParams(1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError, match=r"K must be > 0"):
            EstimateConstants(c=0.0, delta0=1.0, c_star=0.0, K=K, delta=1.0).validate(free)

    def test_zero_coupling_default_accepted(self):
        k = lc.derive_constants(lc.ModelParams(1.0, 0.0, 0.0))
        assert (k.c, k.c_star, k.K) == (0.0, 0.0, 2.0)

    def test_smallness_violation(self):
        with pytest.raises(ConfigurationError, match=r"delta_0"):
            lc.derive_constants(lc.GROSS_NEVEU, delta0=10.0)


def _supremum(p):
    """The supremum of lhs_c / r2, the difference envelope's worst ratio."""
    return 1.5 * max(abs(p.alpha), abs(p.alpha + 4.0 * p.beta))


# Thirring, Gross-Neveu, and couplings of the same and of mixed signs
COUPLINGS = [lc.THIRRING, lc.GROSS_NEVEU, lc.ModelParams(1.0, 1.0, 0.25), lc.ModelParams(1.0, -0.5, 0.3),
             lc.ModelParams(1.0, 1.0, -0.25), lc.ModelParams(1.0, 0.3, -1.0)]


class TestAlgebraicBounds:
    def test_gross_neveu_clean(self, gn, gn_constants):
        rep = lc.check_algebraic_bounds(100_000, gn, gn_constants)
        assert rep.passed and rep.max_violation == 0.0

    def test_thirring_charge_rate_exactly_zero(self):
        p = lc.ModelParams(1.0, 1.0, 0.0)
        rep = lc.check_algebraic_bounds(100_000, p, lc.derive_constants(p))
        assert rep.passed
        assert rep.info["max_ratio_charge_rate"] == 0.0

    def test_sample_count_validated(self, gn, gn_constants):
        with pytest.raises(ConfigurationError):
            lc.check_algebraic_bounds(0, gn, gn_constants)

    def test_all_zero_tuple_saturates_nothing(self, gn):
        ru, rv = source_charge_rate(0.0, 0.0, gn)
        assert abs(ru) + abs(rv) == 0.0
        _, _, r2 = lc.eval_difference_terms(0.0, 0.0, 0.0, 0.0)
        assert r2 == 0.0  # both sides of every bound are 0 at the origin

    @pytest.mark.parametrize("factor, passed", [(0.99, False), (1.01, True)])
    @pytest.mark.parametrize("p", COUPLINGS)
    def test_c_star_around_the_computed_supremum(self, p, factor, passed):
        c_star = factor * 2.0 * _supremum(p)
        rep = lc.check_algebraic_bounds(1, p, lc.derive_constants(p, c_star=c_star))
        assert rep.passed is passed
        want = [1.0 if p.beta else 0.0, 0.5, _supremum(p) / (c_star / 2.0)]
        assert list(rep.info.values()) == pytest.approx(want, rel=1e-9, abs=0.0)
        if not passed:
            extremisers = list(zip(*model._extremisers()))
            assert rep.witness[0] == "difference_envelope" and rep.witness[1:] in extremisers

    def test_no_tuple_exceeds_the_suprema(self, rng):
        """Random tuples, far apart and nearly equal, on random couplings:
        no ratio exceeds the closed forms, and the fixed tuples come within
        1e-9 of each."""
        n = 50_000
        for p in COUPLINGS + [lc.ModelParams(1.0, *rng.normal(size=2)) for _ in range(14)]:
            k = lc.derive_constants(p, c_star=2.0 * _supremum(p))  # (c) then has ratio lhs_c / (sup r2)
            u, v = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
            for scale in (1.0, 1e-4):
                up, vp = (z + scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) for z in (u, v))
                for (lhs, rhs), bound in zip(model._bound_terms(u, v, up, vp, p, k), (1.0, 0.5, 1.0)):
                    assert np.all(lhs <= bound * rhs * (1 + 1e-9))
            rep = lc.check_algebraic_bounds(1, p, k)
            assert list(rep.info.values()) == pytest.approx([1.0 if p.beta else 0.0, 0.5, 1.0], rel=1e-9)

    def test_tuples_are_fixed_and_few(self):
        first, again = model._tuples(), model._tuples()
        assert [z.tobytes() for z in first] == [z.tobytes() for z in again]
        assert first[0].shape == (3888 + 5,) and all(z.shape == first[0].shape for z in first)
        assert np.all(first[0] == 0.5)  # the common phase removed


def _quad(seed, n):
    """n random tuples (u, v, u', v') in the unit disk."""
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(4)]
    return [np.sqrt(r) * np.exp(1j * th) for r, th in draws]


def _scalar_bound_terms(u, v, up, vp, p, k):
    """_bound_terms at one tuple in Python floats, each complex product
    spelled out in NumPy's evaluation order: the reference it matches bit
    for bit on any CPU."""
    def sq(z):
        return z.real * z.real + z.imag * z.imag

    def nonlinearity(u, v):
        s = 2.0 * (u.real * v.real + u.imag * v.imag)
        au2, av2, c = sq(u), sq(v), 2.0 * p.beta * s
        return (complex(p.alpha * u.real * av2 + c * v.real, p.alpha * u.imag * av2 + c * v.imag),
                complex(p.alpha * v.real * au2 + c * u.real, p.alpha * v.imag * au2 + c * u.imag))

    s = 2.0 * (u.real * v.real + u.imag * v.imag)
    ru = -4.0 * p.beta * s * (u.imag * v.real - u.real * v.imag)
    U, V = u - up, v - vp
    r2 = sq(U) * (sq(v) + sq(vp)) + (sq(u) + sq(up)) * sq(V)
    re = (u.real * v.real - u.imag * v.imag) - (up.real * vp.real - up.imag * vp.imag)
    im = (u.real * v.imag + u.imag * v.real) - (up.real * vp.imag + up.imag * vp.real)
    (N1, N2), (N1p, N2p) = nonlinearity(u, v), nonlinearity(up, vp)
    return ((abs(ru) + abs(-ru), 8.0 * abs(p.beta) * sq(u) * sq(v)),
            (re * re + im * im, 2.0 * r2),
            (math.sqrt(sq(N1 - N1p) * sq(U)) + math.sqrt(sq(N2 - N2p) * sq(V)), 0.5 * k.c_star * r2))


@pytest.mark.parametrize("p", [lc.GROSS_NEVEU, lc.THIRRING, lc.ModelParams(1.0, 0.6, -0.8)])
def test_bound_terms_match_a_scalar_evaluation_bit_for_bit(p):
    """No term depends on NumPy's complex multiply or np.abs, whose SIMD
    loops round differently on different CPUs: on random tuples and on the
    check's own."""
    k = lc.derive_constants(p)
    for quad in (_quad(9, 2000), model._tuples()):
        terms = model._bound_terms(*quad, p, k)
        for i in range(quad[0].shape[0]):
            want = _scalar_bound_terms(*(complex(z[i]) for z in quad), p, k)
            got = tuple((float(lhs[i]), float(rhs[i])) for lhs, rhs in terms)
            assert got == want, i


def _tuple(index):
    return tuple(complex(z[index]) for z in model._tuples())


def _poison_nonlinearity(monkeypatch, value, every, components=("N1",)):
    real = model.eval_nonlinearity

    def poisoned(u, v, p):
        W, N1, N2 = real(u, v, p)
        for name in components:
            {"N1": N1, "N2": N2}[name][every - 1::every] = value
        return W, N1, N2

    monkeypatch.setattr(model, "eval_nonlinearity", poisoned)


def _poison_tuples(monkeypatch, point, index, value):
    """Make the check's tuple at index carry value in its point-th entry (u, v, u', v')."""
    real = model._tuples

    def poisoned():
        quad = real()
        quad[point][index] = value
        return quad

    monkeypatch.setattr(model, "_tuples", poisoned)


class TestNonFiniteTerms:
    """A NaN or +-inf bound term fails the audit with max_violation inf,
    witnessed by that bound's first non-finite tuple."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_every_7th_n1(self, monkeypatch, gn, gn_constants, value):
        _poison_nonlinearity(monkeypatch, value, 7)
        rep = lc.check_algebraic_bounds(1, gn, gn_constants)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("difference_envelope", *_tuple(6))

    def test_all_of_n1_and_n2(self, monkeypatch, thirring):
        _poison_nonlinearity(monkeypatch, np.nan, 1, ("N1", "N2"))
        rep = lc.check_algebraic_bounds(1, thirring, lc.derive_constants(thirring))
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("difference_envelope", *_tuple(0))

    def test_all_of_the_charge_rate(self, monkeypatch, gn, gn_constants):
        def nan_rate(u, v, p):
            return np.full(u.shape, np.nan), np.full(u.shape, np.nan)

        monkeypatch.setattr(model, "source_charge_rate", nan_rate)
        rep = lc.check_algebraic_bounds(1, gn, gn_constants)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("charge_rate", *_tuple(0))

    def test_outranks_a_finite_violation(self, monkeypatch, thirring):
        # c_star = 2 fails the envelope by a finite excess; the last tuple's NaN still wins
        real = model.source_charge_rate

        def last_nan(u, v, p):
            ru, rv = real(u, v, p)
            ru[-1] = np.nan
            return ru, rv

        monkeypatch.setattr(model, "source_charge_rate", last_nan)
        k = lc.derive_constants(thirring, c_star=2.0)
        rep = lc.check_algebraic_bounds(1, thirring, k)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("charge_rate", *_tuple(-1))

    def test_overflowing_rhs(self, gn):
        # 0.5 c_star r2 overflows where r2 > 2.2 (the grid reaches 2.5); no other term does
        k = EstimateConstants(c=2.0, delta0=0.125, c_star=1.6e308, K=1.0, delta=0.125)
        with np.errstate(over="ignore"):
            lhs, rhs = model._bound_terms(*model._tuples(), gn, k)[2]
        first = int(np.argmax(np.isinf(rhs)))
        rep = lc.check_algebraic_bounds(1, gn, k)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("difference_envelope", *_tuple(first))


class TestBlocks:
    """The check's tuples are two blocks, the rational grid and the
    extremisers: the extremisers give every max_ratio_*, the grid less."""

    @staticmethod
    def _ratios(quad, p, k):
        out = []
        for lhs, rhs in model._bound_terms(*quad, p, k):
            pos = rhs > 0
            out.append(float(np.max(lhs[pos] / rhs[pos], initial=0.0)))
        return out

    @pytest.mark.parametrize("p", [lc.GROSS_NEVEU, lc.THIRRING, lc.ModelParams(1.0, 0.6, -0.8)])
    def test_default_constants(self, p):
        k = lc.derive_constants(p)
        rep = lc.check_algebraic_bounds(1, p, k)
        assert rep.passed and rep.max_violation == 0.0 and rep.witness is None
        extremes = self._ratios(model._extremisers(), p, k)
        assert list(rep.info.values()) == extremes
        assert all(g <= 0.975 * e for g, e in zip(self._ratios(model._grid(), p, k), extremes))

    @pytest.mark.parametrize("c_star, passed", [(2.0, False), (4.0, True)])
    def test_thirring_c_star_around_the_tight_value(self, thirring, c_star, passed):
        # the tight envelope constant for Thirring is 3
        rep = lc.check_algebraic_bounds(1, thirring, lc.derive_constants(thirring, c_star=c_star))
        assert rep.passed is passed
        assert rep.info["max_ratio_difference_envelope"] == pytest.approx(3.0 / c_star, rel=1e-9)
        if not passed:
            assert rep.witness[0] == "difference_envelope" and 0 < rep.max_violation < np.inf

    def test_zero_rhs_violations_in_several_blocks(self, monkeypatch, thirring):
        # beta = 0 makes the charge-rate rhs 0, so every mutated tuple is a zero-rhs violation
        real = model.source_charge_rate

        def imaginary_v_rate(u, v, p):
            ru, rv = real(u, v, p)
            return np.where(v.imag != 0, v.real**2 + v.imag**2, ru), rv

        monkeypatch.setattr(model, "source_charge_rate", imaginary_v_rate)
        rep = lc.check_algebraic_bounds(1, thirring, lc.derive_constants(thirring))
        quad = model._tuples()
        bad = quad[1].imag != 0
        assert bad[:3888].any() and bad[3888:].any()  # in both blocks
        # the largest excess is max_violation, its first tuple the witness
        excess = np.where(bad, quad[1].real**2 + quad[1].imag**2, 0.0)
        assert rep.max_violation == np.max(excess) > 0
        assert rep.witness == ("charge_rate", *_tuple(int(np.argmax(excess))))
        assert rep.info["max_ratio_charge_rate"] == 0.0  # a ratio needs rhs > 0

    def test_two_bounds_failing(self, monkeypatch, gn):
        real = model.source_charge_rate

        def tripled(u, v, p):
            ru, rv = real(u, v, p)
            return 3.0 * ru, 3.0 * rv

        monkeypatch.setattr(model, "source_charge_rate", tripled)
        k = lc.derive_constants(gn, c_star=lc.derive_constants(gn).c_star / 40)
        rep = lc.check_algebraic_bounds(1, gn, k)
        assert not rep.passed
        assert rep.info["max_ratio_charge_rate"] == pytest.approx(3.0)
        assert rep.info["max_ratio_difference_envelope"] > 1

    def test_working_set(self, gn, gn_constants):
        # 3893 tuples: four complex arrays of 61 KiB each, and their terms (about 1.1 MiB at the peak)
        tracemalloc.start()
        try:
            lc.check_algebraic_bounds(100_000, gn, gn_constants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@given(finite_c, finite_c, st.floats(0, 2), st.floats(-1, 1), st.floats(-1, 1))
def test_gauge_invariance_of_W(u, v, m, alpha, beta):
    p = lc.ModelParams(m, alpha, beta)
    W0, _, _ = lc.eval_nonlinearity(u, v, p)
    W1, _, _ = lc.eval_nonlinearity(1j * u, 1j * v, p)
    assert W1 == pytest.approx(W0, rel=1e-9, abs=1e-9)


def _both_backends(*args):
    """check_algebraic_bounds(*args) on compiled, then on pure."""
    reports = []
    for name in ("compiled", "pure"):
        with backend(name):
            reports.append(lc.check_algebraic_bounds(*args))
    return reports


@needs_compiled
class TestCompiledPass:
    """The check runs the same NumPy pass on the compiled backend as on
    pure, with the same report: it calls no kernel."""

    @pytest.mark.parametrize("p", [lc.THIRRING, lc.GROSS_NEVEU, lc.ModelParams(1.0, 0.6, -0.8)])
    @pytest.mark.parametrize("c_star", [None, 2.0, 4.0])
    def test_reports_match_pure(self, p, c_star):
        # the tight c_star is 3 for Thirring and Gross-Neveu, and 7.8 for (0.6, -0.8)
        passed = c_star is None or (c_star == 4.0 and p.alpha * p.beta == 0)
        compiled, pure = _both_backends(1, p, lc.derive_constants(p, c_star=c_star))
        assert compiled == pure and compiled.passed is passed
        if not passed:
            assert compiled.witness[0] == "difference_envelope" and 0 < compiled.max_violation < np.inf

    def test_thirring_charge_rate_rhs_is_zero(self, thirring):
        # beta = 0: rhs and lhs of the charge rate are 0 at every tuple
        compiled, pure = _both_backends(1, thirring, lc.derive_constants(thirring))
        assert compiled == pure and compiled.passed
        assert compiled.info["max_ratio_charge_rate"] == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("pair, bound", [(0, "charge_rate"), (3, "product_difference")])
    def test_nonfinite_draw(self, monkeypatch, gn, pair, bound, value):
        # u feeds all three bounds; v' only (b) and (c)
        _poison_tuples(monkeypatch, pair, 1234, value)
        k = lc.derive_constants(gn, c_star=2.0)  # a finite violation as well, which the non-finite term outranks
        compiled, pure = _both_backends(1, gn, k)
        assert repr(compiled) == repr(pure)  # repr: a NaN in the witness is not == itself
        assert not compiled.passed and compiled.max_violation == np.inf
        witness = list(_tuple(1234))
        witness[pair] = complex(value)
        assert compiled.witness[0] == bound and repr(compiled.witness[1:]) == repr(tuple(witness))

    @pytest.mark.parametrize("scale, seed", [(1e-160, 0), (1e-162, 1)])
    def test_underflowing_tuples(self, monkeypatch, scale, seed):
        """Random tuples with |z|^2 about scale, whose quartic terms are
        subnormal: the rounding lifts a charge-rate ratio above its bound's
        1 and, at 1e-162, gives a product difference > 0 over an rhs of 0.
        The check reports the violation, the same on both backends."""
        p = lc.ModelParams(1.0, 0.6, -0.8)
        rng = np.random.default_rng(seed)
        draws = [(scale * rng.uniform(0.1, 1.0, 20_000), rng.uniform(0.0, 2.0 * np.pi, 20_000)) for _ in range(4)]
        quad = [np.sqrt(r) * np.exp(1j * th) for r, th in draws]
        monkeypatch.setattr(model, "_tuples", lambda: [z.copy() for z in quad])
        compiled, pure = _both_backends(1, p, lc.derive_constants(p))
        assert compiled == pure
        assert not compiled.passed and compiled.witness[0] == "charge_rate" and 0 < compiled.max_violation < np.inf
        assert compiled.info["max_ratio_charge_rate"] > 1
        with np.errstate(under="ignore"):
            lhs, rhs = model._bound_terms(*quad, p, lc.derive_constants(p))[1]
        assert bool(((lhs > 0) & (rhs == 0)).any()) is (scale == 1e-162)

    def test_working_set(self, gn, gn_constants):
        with backend("compiled"):
            tracemalloc.start()
            try:
                lc.check_algebraic_bounds(100_000, gn, gn_constants)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("samples", [None, 700, 200_000])
def test_nan_ratio_keeps_the_largest_finite_ratio(monkeypatch, thirring, name, samples):
    """A NaN ratio drops only its own tuple: each max_ratio_* is the
    largest finite ratio of the other tuples, on every backend and whatever
    samples is (it has no effect; None passes the least, 1)."""
    k = lc.derive_constants(thirring)
    lhs, rhs = model._bound_terms(*model._tuples(), thirring, k)[2]
    index = int(np.argmax(lhs / np.where(rhs > 0, rhs, np.inf))) - 1  # beside the largest envelope ratio
    want = TestBlocks._ratios([np.delete(z, index) for z in model._tuples()], thirring, k)
    _poison_tuples(monkeypatch, 2, index, np.inf)  # u': (b) and (c) are inf / inf there
    with backend(name):
        rep = lc.check_algebraic_bounds(samples or 1, thirring, k)
    assert not rep.passed and rep.witness[0] == "product_difference"
    assert list(rep.info.values()) == want
    assert want[2] > 0.1
