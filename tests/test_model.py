import math
import tracemalloc

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lcdirac as lc
from lcdirac import kernels, model
from lcdirac.errors import ConfigurationError
from lcdirac.model import EstimateConstants

import algebraic_oracle as oracle
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
        ru, rv = oracle.source_charge_rate(u, v, p)
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
        U, V, r2 = oracle.eval_difference_terms(1 + 2j, -1j, 1 + 2j, -1j)
        assert U == 0 and V == 0 and r2 == 0

    def test_difference_terms_point(self):
        U, V, r2 = oracle.eval_difference_terms(1.0, 1.0, 0.0, 1.0)
        assert U == 1.0 and V == 0.0
        assert r2 == 2.0

    def test_product_difference_bound(self, rng):
        n = 100_000
        uA, vA, uB, vB = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4))
        _, _, r2 = oracle.eval_difference_terms(uA, vA, uB, vB)
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

    @pytest.mark.parametrize("alpha", [1e15, 1.5e15, 3e15, 1e16, 1e300])
    def test_default_K_holds_its_inequality_for_huge_couplings(self, alpha):
        """K = 2 c_star + 2 loses its + 2 once 2 c_star reaches 2^54; the
        default is then the next double above 2 c_star, and 2 c_star + 2
        everywhere the + 2 survives."""
        k = lc.derive_constants(lc.ModelParams(1.0, alpha, 0.0))
        assert -k.K + 2.0 * k.c_star < -1.0 and k.K > 2.0 * k.c_star
        lost = -(2.0 * k.c_star + 2.0) + 2.0 * k.c_star == 0.0
        assert k.K == (math.nextafter(2.0 * k.c_star, math.inf) if lost else 2.0 * k.c_star + 2.0)
        assert lost is (alpha >= 3e15)

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
        """beta = 0 makes both sides of (a) 0 at every tuple: the ratio is 0, not 1."""
        for alpha in (1.0, -0.5, 0.0):
            p = lc.ModelParams(1.0, alpha, 0.0)
            k = lc.derive_constants(p)
            rep = lc.check_algebraic_bounds(100_000, p, k)
            assert rep.passed
            assert rep.info["max_ratio_charge_rate"] == 0.0 == oracle.ratios(oracle.tuples(), p, k)[0]

    def test_sample_count_validated(self, gn, gn_constants):
        for samples in (0, -1):
            with pytest.raises(ConfigurationError, match="samples must be >= 1"):
                lc.check_algebraic_bounds(samples, gn, gn_constants)

    def test_all_zero_tuple_saturates_nothing(self, gn):
        ru, rv = oracle.source_charge_rate(0.0, 0.0, gn)
        assert abs(ru) + abs(rv) == 0.0
        _, _, r2 = oracle.eval_difference_terms(0.0, 0.0, 0.0, 0.0)
        assert r2 == 0.0  # both sides of every bound are 0 at the origin

    @pytest.mark.parametrize("factor, passed", [(0.99, False), (1.01, True)])
    @pytest.mark.parametrize("p", COUPLINGS)
    def test_c_star_around_the_computed_supremum(self, p, factor, passed):
        c_star = factor * 2.0 * _supremum(p)
        k = lc.derive_constants(p, c_star=c_star)
        rep = lc.check_algebraic_bounds(1, p, k)
        assert rep.passed is passed
        want = [1.0 if p.beta else 0.0, 0.5, _supremum(p) / (c_star / 2.0)]
        assert list(rep.info.values()) == pytest.approx(want, rel=1e-9, abs=0.0)
        if not passed:
            # the witness is the limit of the oracle's extremiser with the largest envelope ratio
            quad = oracle.extremisers()
            lhs, rhs = oracle.bound_terms(*quad, p, k)[2]
            u, v = (complex(z[int(np.argmax(lhs / rhs))]) for z in quad[:2])
            assert rep.witness == ("difference_envelope", u, v, u, v)

    def test_no_tuple_exceeds_the_suprema(self, rng):
        """Random tuples, far apart and nearly equal, on random couplings:
        no ratio of the implemented eval_nonlinearity exceeds the closed
        forms, and the fixed tuples reach each within 1e-10."""
        n = 50_000
        for p in COUPLINGS + [lc.ModelParams(1.0, *rng.normal(size=2)) for _ in range(14)]:
            k = lc.derive_constants(p, c_star=2.0 * _supremum(p))  # (c) then has ratio lhs_c / (sup r2)
            rep = lc.check_algebraic_bounds(1, p, k)
            closed = list(rep.info.values())
            assert closed == [1.0 if p.beta else 0.0, 0.5, 1.0]
            u, v = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
            for scale in (1.0, 1e-4):
                up, vp = (z + scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) for z in (u, v))
                for (lhs, rhs), bound in zip(oracle.bound_terms(u, v, up, vp, p, k), closed):
                    assert np.all(lhs <= bound * rhs * (1 + oracle.EXACT_SLACK))
            # below the suprema in exact arithmetic; N - N' cancels at separation
            # EPS, which rounds the envelope ratio by up to about 1e-11
            reached = oracle.ratios(oracle.tuples(), p, k)
            assert reached == pytest.approx(closed, rel=1e-10, abs=0.0)

    def test_tuples_are_fixed_and_few(self):
        first, again = oracle.tuples(), oracle.tuples()
        assert [z.tobytes() for z in first] == [z.tobytes() for z in again]
        assert first[0].shape == (3888 + 5,) and all(z.shape == first[0].shape for z in first)
        assert np.all(first[0] == 0.5)  # the common phase removed


def _quad(seed, n):
    """n random tuples (u, v, u', v') in the unit disk."""
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(4)]
    return [np.sqrt(r) * np.exp(1j * th) for r, th in draws]


def _scalar_bound_terms(u, v, up, vp, p, k):
    """The oracle's bound_terms at one tuple in Python floats, each complex
    product spelled out in NumPy's evaluation order: the reference it
    matches bit for bit on any CPU."""
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
    """No oracle term depends on NumPy's complex multiply or np.abs, whose
    SIMD loops round differently on different CPUs: on random tuples and on
    the oracle's fixed ones."""
    k = lc.derive_constants(p)
    for quad in (_quad(9, 2000), oracle.tuples()):
        terms = oracle.bound_terms(*quad, p, k)
        for i in range(quad[0].shape[0]):
            want = _scalar_bound_terms(*(complex(z[i]) for z in quad), p, k)
            got = tuple((float(lhs[i]), float(rhs[i])) for lhs, rhs in terms)
            assert got == want, i


def _poison_nonlinearity(monkeypatch, value, every, components=("N1",)):
    real = model.eval_nonlinearity

    def poisoned(u, v, p):
        W, N1, N2 = real(u, v, p)
        for name in components:
            {"N1": N1, "N2": N2}[name][every - 1::every] = value
        return W, N1, N2

    monkeypatch.setattr(model, "eval_nonlinearity", poisoned)


class TestNonFiniteTerms:
    """The record evaluates no term, so a non-finite nonlinearity cannot
    reach it: the oracle's comparison, which evaluates them, is what fails.
    A ratio the record cannot state finitely (a zero c_star with a
    coupling, an overflowing alpha + 4 beta) fails it with max_violation
    inf, without a RuntimeWarning (which pytest raises as an error)."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_every_7th_n1(self, monkeypatch, gn, gn_constants, value):
        clean = lc.check_algebraic_bounds(1, gn, gn_constants)
        _poison_nonlinearity(monkeypatch, value, 7)
        assert lc.check_algebraic_bounds(1, gn, gn_constants) == clean
        with np.errstate(invalid="ignore"):  # inf - inf where both points are poisoned
            ratios = oracle.ratios(oracle.tuples(), gn, gn_constants)
        assert ratios[:2] == pytest.approx([1.0, 0.5], rel=1e-10) and math.isnan(ratios[2])

    def test_all_of_n1_and_n2(self, monkeypatch, thirring):
        k = lc.derive_constants(thirring)
        clean = lc.check_algebraic_bounds(1, thirring, k)
        _poison_nonlinearity(monkeypatch, np.nan, 1, ("N1", "N2"))
        assert lc.check_algebraic_bounds(1, thirring, k) == clean
        assert math.isnan(oracle.ratios(oracle.tuples(), thirring, k)[2])

    def test_overflowing_rhs(self, gn):
        # The tuples' 0.5 c_star r2 overflowed at this c_star and failed the
        # audit; the closed form has no such product, and (c) holds.
        k = EstimateConstants(c=2.0, delta0=0.125, c_star=1.6e308, K=1.0, delta=0.125)
        rep = lc.check_algebraic_bounds(1, gn, k)
        assert rep.passed and rep.max_violation == 0.0 and rep.witness is None
        assert rep.info["max_ratio_difference_envelope"] == 3.0 / 1.6e308

    @pytest.mark.parametrize("alpha, beta, c_star, phase", [
        (1e308, 1e308, 1.0, 0.5 + 0j),  # alpha + 4 beta overflows
        (-1.7e308, -1e308, 1.0, 0.5 + 0j),
        (1.0, 0.0, 0.0, 0.5 + 0j),  # a zero c_star, which validate refuses with a coupling
        (1.0, -0.25, 0.0, 0.5j),
    ])
    def test_infinite_ratio(self, alpha, beta, c_star, phase):
        p = lc.ModelParams(1.0, alpha, beta)
        k = EstimateConstants(c=8.0 * abs(beta), delta0=0.1, c_star=c_star, K=4.0, delta=0.1)
        rep = lc.check_algebraic_bounds(1, p, k)
        assert not rep.passed and rep.max_violation == math.inf
        assert rep.info["max_ratio_difference_envelope"] == math.inf
        assert rep.witness == ("difference_envelope", 0.5 + 0j, phase, 0.5 + 0j, phase)


def _working_set(*args):
    """tracemalloc's peak over check_algebraic_bounds(*args), in bytes."""
    tracemalloc.start()
    try:
        lc.check_algebraic_bounds(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocks:
    """The oracle's fixed tuples are two blocks, the rational grid and the
    extremisers: the extremisers reach every closed-form ratio, the grid
    less."""

    @pytest.mark.parametrize("p", [lc.GROSS_NEVEU, lc.THIRRING, lc.ModelParams(1.0, 0.6, -0.8)])
    def test_default_constants(self, p):
        k = lc.derive_constants(p)
        rep = lc.check_algebraic_bounds(1, p, k)
        assert rep.passed and rep.max_violation == 0.0 and rep.witness is None
        assert rep.info["max_ratio_difference_envelope"] == 0.5  # the default is twice the supremum
        extremes = oracle.ratios(oracle.extremisers(), p, k)
        assert extremes == pytest.approx(list(rep.info.values()), rel=1e-10, abs=0.0)
        assert all(g <= 0.975 * e for g, e in zip(oracle.ratios(oracle.grid(), p, k), extremes))

    @pytest.mark.parametrize("c_star, passed", [(2.0, False), (4.0, True)])
    def test_thirring_c_star_around_the_tight_value(self, thirring, c_star, passed):
        # the tight envelope constant for Thirring is 3
        rep = lc.check_algebraic_bounds(1, thirring, lc.derive_constants(thirring, c_star=c_star))
        assert rep.passed is passed
        assert rep.info["max_ratio_difference_envelope"] == pytest.approx(3.0 / c_star, rel=1e-9)
        if not passed:
            assert rep.witness[0] == "difference_envelope" and rep.max_violation == 3.0 / c_star - 1.0

    def test_working_set(self, gn, gn_constants):
        # the record is a few floats: no array (the 3893 tuples took 1.1 MiB at the peak)
        assert _working_set(100_000, gn, gn_constants) < 4096


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
    """The check calls no kernel: the same report on the compiled backend
    as on pure."""

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

    def test_working_set(self, gn, gn_constants):
        with backend("compiled"):
            assert _working_set(100_000, gn, gn_constants) < 4096
