import ctypes
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


@pytest.fixture
def pure_backend():
    """The NumPy block loop: the tests that patch model's evaluation
    functions or BLOCK reach only it; the compiled pass calls neither."""
    with backend("pure"):
        yield


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


class TestAlgebraicBounds:
    def test_gross_neveu_clean(self, gn, gn_constants):
        rep = lc.check_algebraic_bounds(50_000, gn, gn_constants, seed=3)
        assert rep.passed and rep.max_violation == 0.0

    def test_thirring_charge_rate_exactly_zero(self):
        p = lc.ModelParams(1.0, 1.0, 0.0)
        rep = lc.check_algebraic_bounds(50_000, p, lc.derive_constants(p), seed=4)
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


def _quad(seed, n):
    """The tuples (u, v, u', v') check_algebraic_bounds draws in a first chunk of n."""
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
    loops round differently on different CPUs."""
    k = lc.derive_constants(p)
    quad = _quad(9, 2000)
    terms = model._bound_terms(*quad, p, k)
    for i in range(2000):
        want = _scalar_bound_terms(*(complex(z[i]) for z in quad), p, k)
        got = tuple((float(lhs[i]), float(rhs[i])) for lhs, rhs in terms)
        assert got == want, i


def _tuples(seed, n, index):
    return tuple(complex(z[index]) for z in _quad(seed, n))


def _poison_nonlinearity(monkeypatch, value, every, components=("N1",)):
    real = model.eval_nonlinearity

    def poisoned(u, v, p):
        W, N1, N2 = real(u, v, p)
        for name in components:
            {"N1": N1, "N2": N2}[name][every - 1::every] = value
        return W, N1, N2

    monkeypatch.setattr(model, "eval_nonlinearity", poisoned)


@pytest.mark.usefixtures("pure_backend")
class TestNonFiniteTerms:
    """A NaN or +-inf bound term fails the audit with max_violation inf,
    witnessed by that bound's first non-finite tuple (the pure block loop;
    TestCompiledPass feeds both backends non-finite draws)."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_every_7th_n1(self, monkeypatch, gn, gn_constants, value):
        _poison_nonlinearity(monkeypatch, value, 7)
        rep = lc.check_algebraic_bounds(20_000, gn, gn_constants, seed=3)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("difference_envelope", *_tuples(3, 20_000, 6))

    def test_all_of_n1_and_n2(self, monkeypatch, thirring):
        _poison_nonlinearity(monkeypatch, np.nan, 1, ("N1", "N2"))
        rep = lc.check_algebraic_bounds(2000, thirring, lc.derive_constants(thirring), seed=0)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("difference_envelope", *_tuples(0, 2000, 0))

    def test_all_of_the_charge_rate(self, monkeypatch, gn, gn_constants):
        def nan_rate(u, v, p):
            return np.full(u.shape, np.nan), np.full(u.shape, np.nan)

        monkeypatch.setattr(model, "source_charge_rate", nan_rate)
        rep = lc.check_algebraic_bounds(2000, gn, gn_constants, seed=11)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("charge_rate", *_tuples(11, 2000, 0))

    def test_outranks_a_finite_violation(self, monkeypatch, thirring):
        # c_star = 2 fails the envelope by a finite excess; the last block's NaN still wins
        real = model.source_charge_rate

        def last_nan(u, v, p):
            ru, rv = real(u, v, p)
            if u.size < model.BLOCK:
                ru[-1] = np.nan
            return ru, rv

        monkeypatch.setattr(model, "source_charge_rate", last_nan)
        k = lc.derive_constants(thirring, c_star=2.0)
        rep = lc.check_algebraic_bounds(20_000, thirring, k, seed=5)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.witness == ("charge_rate", *_tuples(5, 20_000, 19_999))


@pytest.mark.usefixtures("pure_backend")
class TestBlocks:
    """The pure backend's blocks give bit for bit the report of one pass
    over each chunk (BLOCK = CHUNK, the evaluation before the blocks)."""

    @staticmethod
    def _both(monkeypatch, *args):
        blocked = lc.check_algebraic_bounds(*args)
        block = model.BLOCK
        monkeypatch.setattr(model, "BLOCK", model.CHUNK)
        one_pass = lc.check_algebraic_bounds(*args)
        monkeypatch.setattr(model, "BLOCK", block)
        return blocked, one_pass

    @pytest.mark.parametrize("p", [lc.GROSS_NEVEU, lc.THIRRING, lc.ModelParams(1.0, 0.6, -0.8)])
    def test_default_constants(self, monkeypatch, p):
        samples = 3 * model.BLOCK + 5
        blocked, one_pass = self._both(monkeypatch, samples, p, lc.derive_constants(p), 7)
        assert blocked.passed and blocked == one_pass

    @pytest.mark.parametrize("c_star, passed", [(2.0, False), (4.0, True)])
    def test_thirring_c_star_around_the_tight_value(self, monkeypatch, thirring, c_star, passed):
        # the tight envelope constant for Thirring is 3
        k = lc.derive_constants(thirring, c_star=c_star)
        blocked, one_pass = self._both(monkeypatch, 30_000, thirring, k, 5)
        assert blocked == one_pass and blocked.passed is passed
        if not passed:
            assert blocked.witness[0] == "difference_envelope"

    @pytest.mark.parametrize("c_star", [None, 2.0])
    def test_across_chunks(self, monkeypatch, thirring, c_star):
        monkeypatch.setattr(model, "CHUNK", 3000)
        monkeypatch.setattr(model, "BLOCK", 700)
        k = lc.derive_constants(thirring, c_star=c_star)
        blocked, one_pass = self._both(monkeypatch, 7500, thirring, k, 2)
        monkeypatch.setattr(model, "CHUNK", 7500)
        assert blocked == one_pass and blocked.passed is (c_star is None)
        assert lc.check_algebraic_bounds(7500, thirring, k, 2) != blocked  # other chunks, other tuples

    def test_zero_rhs_violations_in_several_blocks(self, monkeypatch, thirring):
        # beta = 0 makes the charge-rate rhs 0, so every mutated tuple is a zero-rhs violation
        real = model.source_charge_rate
        bad_per_call = []

        def rim_rate(u, v, p):
            ru, rv = real(u, v, p)
            bad = u.real**2 + u.imag**2 > 0.9999
            bad_per_call.append(int(bad.sum()))
            return np.where(bad, v.real**2 + v.imag**2, ru), rv

        monkeypatch.setattr(model, "source_charge_rate", rim_rate)
        blocked, one_pass = self._both(monkeypatch, 40_000, thirring, lc.derive_constants(thirring), 6)
        blocks = bad_per_call[:-1]
        assert blocks[0] == 0 and sum(c > 0 for c in blocks) >= 3 and bad_per_call[-1] == sum(blocks)
        assert blocked == one_pass
        # the first zero-rhs tuple is the witness; the largest excess is max_violation
        quad = _quad(6, 40_000)
        rim = quad[0].real**2 + quad[0].imag**2 > 0.9999
        first = int(np.argmax(rim))
        assert blocked.witness == ("charge_rate", *(complex(z[first]) for z in quad))
        assert blocked.max_violation == np.max(quad[1].real[rim] ** 2 + quad[1].imag[rim] ** 2) > 0

    def test_two_bounds_failing(self, monkeypatch, gn):
        real = model.source_charge_rate

        def tripled(u, v, p):
            ru, rv = real(u, v, p)
            return 3.0 * ru, 3.0 * rv

        monkeypatch.setattr(model, "source_charge_rate", tripled)
        k = lc.derive_constants(gn, c_star=lc.derive_constants(gn).c_star / 40)
        blocked, one_pass = self._both(monkeypatch, 20_000, gn, k, 3)
        assert blocked == one_pass and not blocked.passed
        assert blocked.info["max_ratio_charge_rate"] > 1 and blocked.info["max_ratio_difference_envelope"] > 1

    def test_working_set(self, gn, gn_constants):
        # the 100 000 tuples' eight uniform arrays are 6.1 MiB; the blocks add about 2.4 MiB
        tracemalloc.start()
        try:
            lc.check_algebraic_bounds(100_000, gn, gn_constants, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


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


def _poison_draws(monkeypatch, pair, part, index, value):
    """Make every chunk's draws carry value in r (part 0) or theta (part 1)
    of the tuple's pair-th point (u, v, u', v') at index."""
    real = model._draws

    def poisoned(rng, n):
        draws = real(rng, n)
        if index < n:
            draws[pair][part][index] = value
        return draws

    monkeypatch.setattr(model, "_draws", poisoned)


def _largest_finite_ratios(seed, n, p, k, skip=None):
    """Per bound, the largest finite lhs / rhs over rhs > 0 of the first
    chunk's tuples but skip, evaluated in one pass."""
    quad = [np.delete(z, [] if skip is None else [skip]) for z in _quad(seed, n)]
    out = []
    for lhs, rhs in model._bound_terms(*quad, p, k):
        pos = rhs > 0
        out.append(float(np.max(lhs[pos] / rhs[pos], initial=0.0)))
    return out


@needs_compiled
class TestCompiledPass:
    """kernels.algebraic_extremes against the pure block loop, bit for bit."""

    @pytest.mark.parametrize("p", [lc.THIRRING, lc.GROSS_NEVEU, lc.ModelParams(1.0, 0.6, -0.8)])
    @pytest.mark.parametrize("c_star", [None, 2.0, 4.0])
    def test_reports_match_pure(self, p, c_star):
        # the tight c_star is 3 for Thirring and Gross-Neveu, and above 4 for (0.6, -0.8)
        passed = c_star is None or (c_star == 4.0 and p.alpha * p.beta == 0)
        compiled, pure = _both_backends(30_000, p, lc.derive_constants(p, c_star=c_star), 5)
        assert compiled == pure and compiled.passed is passed
        if not passed:
            assert compiled.witness[0] == "difference_envelope" and 0 < compiled.max_violation < np.inf

    def test_thirring_charge_rate_rhs_is_zero(self, thirring):
        # beta = 0: rhs and lhs of the charge rate are 0 at every tuple
        compiled, pure = _both_backends(20_000, thirring, lc.derive_constants(thirring), 4)
        assert compiled == pure and compiled.passed
        assert compiled.info["max_ratio_charge_rate"] == 0.0

    @pytest.mark.parametrize("c_star", [None, 2.0])
    def test_across_chunks(self, monkeypatch, thirring, c_star):
        monkeypatch.setattr(model, "CHUNK", 3000)
        k = lc.derive_constants(thirring, c_star=c_star)
        compiled, pure = _both_backends(7500, thirring, k, 2)
        assert compiled == pure and compiled.passed is (c_star is None)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("pair, bound", [(0, "charge_rate"), (3, "product_difference")])
    def test_nonfinite_draw(self, monkeypatch, gn, pair, bound, value):
        # u feeds all three bounds; v' only (b) and (c)
        _poison_draws(monkeypatch, pair, 0, 4321, value)
        k = lc.derive_constants(gn, c_star=2.0)  # a finite violation as well, which the non-finite term outranks
        compiled, pure = _both_backends(20_000, gn, k, 3)
        assert repr(compiled) == repr(pure)  # repr: a NaN in the witness is not == itself
        assert not compiled.passed and compiled.max_violation == np.inf
        assert compiled.witness[0] == bound and not np.isfinite(compiled.witness[1 + pair])
        assert repr(compiled.witness[1:]) == repr(_witness_at(3, 20_000, 4321, pair, value))

    def test_nonfinite_theta_in_a_later_chunk(self, monkeypatch, thirring):
        monkeypatch.setattr(model, "CHUNK", 3000)
        _poison_draws(monkeypatch, 1, 1, 2999, np.inf)  # theta of v: the last tuple of every chunk
        compiled, pure = _both_backends(7000, thirring, lc.derive_constants(thirring), 8)
        assert repr(compiled) == repr(pure) and compiled.max_violation == np.inf
        assert compiled.witness[0] == "charge_rate"

    @pytest.mark.parametrize("scale, seed", [(1e-160, 0), (1e-162, 1)])
    def test_underflowing_tuples(self, scale, seed):
        """Tuples whose quartic terms underflow: charge-rate ratios above
        the bound's 1 and, at 1e-162, a product difference > 0 over an rhs
        of 0."""
        p = lc.ModelParams(1.0, 0.6, -0.8)
        k = lc.derive_constants(p)
        rng = np.random.default_rng(seed)
        draws = [(scale * rng.uniform(0.1, 1.0, 20_000), rng.uniform(0.0, 2.0 * np.pi, 20_000)) for _ in range(4)]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            want = model._pure_extremes(draws, p, k)
        got = kernels.algebraic_extremes(draws, p.alpha, p.beta, k.c_star, 1.0 + model.EXACT_SLACK)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert want[0][0, 1] > 1.0  # the charge rate's ratio
        assert bool(want[1][1, 1] >= 0) is (scale == 1e-162)

    def test_disk_points_match_numpy_bit_for_bit(self):
        """sqrt(r) (cos th, sin th) by sincos is np.sqrt(r) * np.exp(1j * th),
        signed zeros included, at the quadrant angles and the ends of the
        draws' ranges, and on random draws."""
        angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, np.nextafter(2 * np.pi, 0.0)]
        radii = [0.0, 1.0, np.nextafter(1.0, 0.0), 0.5]
        r, th = (np.array(a, dtype=np.float64).ravel() for a in np.meshgrid(radii, angles))
        rng = np.random.default_rng(25)
        r = np.concatenate([r, rng.uniform(0.0, 1.0, 50_000)])
        th = np.concatenate([th, rng.uniform(0.0, 2.0 * np.pi, 50_000)])
        got = np.empty(r.shape, dtype=np.complex128)
        disk = kernels._lib.lcd_disk_points  # exported for this test; lcdirac never calls it
        disk.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_ssize_t, ctypes.c_void_p]
        disk.restype = None
        disk(r.ctypes.data, th.ctypes.data, r.shape[0], got.ctypes.data)
        want = np.sqrt(r) * np.exp(1j * th)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.signbit(got.real[:20]).any()  # -0 at r = 0, theta = pi

    def test_working_set(self, gn, gn_constants):
        # the 100 000 tuples' eight uniform arrays are 6.1 MiB; the C pass adds nothing per tuple
        with backend("compiled"):
            tracemalloc.start()
            try:
                lc.check_algebraic_bounds(100_000, gn, gn_constants, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 7 * 2**20


def _witness_at(seed, n, index, pair, value):
    """The first chunk's tuple at index with value in r of its pair-th point."""
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(4)]
    draws[pair][0][index] = value
    with np.errstate(invalid="ignore"):
        return tuple(complex(np.sqrt(r[index]) * np.exp(1j * th[index])) for r, th in draws)


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("block", [None, 700, model.CHUNK])
def test_nan_ratio_keeps_the_largest_finite_ratio(monkeypatch, thirring, name, block):
    """A NaN ratio drops only its own tuple, not its block: each
    max_ratio_* is the largest finite ratio of the other tuples, whatever
    BLOCK is."""
    if block is not None:
        monkeypatch.setattr(model, "BLOCK", block)
    k = lc.derive_constants(thirring)
    lhs, rhs = model._bound_terms(*_quad(5, 30_000), thirring, k)[2]
    index = int(np.argmax(lhs / rhs)) ^ 1  # beside the largest envelope ratio, in its block for any even BLOCK
    _poison_draws(monkeypatch, 2, 0, index, np.inf)  # r of u': (b) and (c) are inf / inf there
    with backend(name):
        rep = lc.check_algebraic_bounds(30_000, thirring, k, seed=5)
    assert not rep.passed and rep.witness[0] == "product_difference"
    want = _largest_finite_ratios(5, 30_000, thirring, k, skip=index)
    assert list(rep.info.values()) == want
    assert want[2] > 0.1
