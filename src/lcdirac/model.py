"""Cubic nonlinearity, pointwise algebraic bounds, and difference quantities.

The interaction density is W(u, v) = alpha |u|^2 |v|^2 + beta (conj(u) v
+ u conj(v))^2; the source terms N1, N2 are its Wirtinger derivatives in
conj(u) and conj(v). alpha = 1, beta = 0 is the Thirring interaction,
alpha = 0, beta = 1/4 the Gross-Neveu one.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from ._records import record
from .errors import ConfigurationError
from .reports import AuditReport

# delta0 sentinel when no smallness constraint is active (coupling c = 0).
UNCONSTRAINED = 1.0e6

# Multiplicative slack absorbing rounding in bounds that are exact in reals.
EXACT_SLACK = 1e-12


@record
class ModelParams:
    """Mass and the two coupling constants of the interaction density."""

    m: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.m >= 0:
            raise ConfigurationError(f"mass must be nonnegative, got {self.m}")
        for name in ("m", "alpha", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")


THIRRING = ModelParams(m=1.0, alpha=1.0, beta=0.0)
GROSS_NEVEU = ModelParams(m=1.0, alpha=0.0, beta=0.25)


@record
class EstimateConstants:
    """Constants entering the decay and difference estimates.

    c is tied exactly to the coupling (c = 8|beta|); the remaining constants
    are validated against the strict inequalities that make the estimates
    effective:

        -2 + 2*delta0*c < -1,   -2 + 2*c_star*delta < -1,   -K + 2*c_star < -1,

    which bound c_star and K only from above. So their signs are checked
    first: c_star dominates the difference-term envelope, positive for any
    nonzero coupling and never negative, and the weight K is positive.
    """

    c: float
    delta0: float
    c_star: float
    K: float
    delta: float

    def validate(self, p: ModelParams):
        if self.c != 8.0 * abs(p.beta):
            raise ConfigurationError(f"c must equal 8|beta| = {8*abs(p.beta)}, got {self.c}")
        if not self.c_star >= 0:
            raise ConfigurationError(f"c_star must be >= 0, got {self.c_star}")
        if (p.alpha or p.beta) and not self.c_star > 0:
            raise ConfigurationError(f"c_star must be > 0 for a nonzero coupling, got {self.c_star}")
        if not self.K > 0:
            raise ConfigurationError(f"K must be > 0, got {self.K}")
        if not (-2.0 + 2.0 * self.delta0 * self.c < -1.0):
            raise ConfigurationError("-2+2delta_0 c<-1 violated")
        if not (-2.0 + 2.0 * self.c_star * self.delta < -1.0):
            raise ConfigurationError("-2+2c_*delta<-1 violated")
        if not (-self.K + 2.0 * self.c_star < -1.0):
            raise ConfigurationError("-K+2c_*<-1 violated")
        if not 0 < self.delta <= self.delta0:
            raise ConfigurationError(f"delta must lie in (0, delta0], got {self.delta}")


def derive_constants(
    p: ModelParams,
    delta0: Optional[float] = None,
    c_star: Optional[float] = None,
    K: Optional[float] = None,
    delta: Optional[float] = None,
) -> EstimateConstants:
    """Defaults satisfying the strict inequalities.

    c_star = 16(|alpha| + 4|beta|) dominates the difference-term envelope,
    bound (c) of check_algebraic_bounds, lhs_c <= (c_star / 2) r2. The tight
    value is about 3(|alpha| + 4|beta|): the largest lhs_c / r2 that 1e6
    random tuples reach is 1.44-1.49 (|alpha| + 4|beta|) for Thirring,
    Gross-Neveu and alpha = 1, beta = 1/4, and a hill climb reaches 1.4996.
    So the default is about 5.3 times the tight value. K = 2 c_star + 2
    then leaves -K + 2 c_star = -2.
    """
    c = 8.0 * abs(p.beta)
    if delta0 is None:
        delta0 = 1.0 / (4.0 * c) if c > 0 else UNCONSTRAINED
    if c_star is None:
        c_star = 16.0 * (abs(p.alpha) + 4.0 * abs(p.beta))
    if K is None:
        K = 2.0 * c_star + 2.0
    if delta is None:
        delta = min(delta0, 1.0 / (4.0 * c_star)) if c_star > 0 else delta0
    k = EstimateConstants(c=c, delta0=delta0, c_star=c_star, K=K, delta=delta)
    k.validate(p)
    return k


# ---------------------------------------------------------------------------
# Pointwise evaluations (all vectorize over numpy arrays)


def eval_nonlinearity(u, v, p: ModelParams):
    """Interaction density W and its Wirtinger derivatives (W, N1, N2).

    N1 = dW/d(conj u) = alpha u |v|^2 + 2 beta (conj(u)v + u conj(v)) v,
    N2 = dW/d(conj v) = alpha v |u|^2 + 2 beta (conj(u)v + u conj(v)) u.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    au2 = u.real**2 + u.imag**2
    av2 = v.real**2 + v.imag**2
    s = 2.0 * (u.real * v.real + u.imag * v.imag)  # conj(u)v + u conj(v), real
    W = p.alpha * au2 * av2 + p.beta * s * s
    N1 = p.alpha * u * av2 + (2.0 * p.beta) * s * v
    N2 = p.alpha * v * au2 + (2.0 * p.beta) * s * u
    return W, N1, N2


def eval_difference_terms(uA, vA, uB, vB):
    """Difference fields and their quadratic envelope (U, V, r2).

    U = uA - uB, V = vA - vB;
    r2 = |U|^2 (|vA|^2 + |vB|^2) + (|uA|^2 + |uB|^2) |V|^2.
    """
    uA = np.asarray(uA, dtype=np.complex128)
    vA = np.asarray(vA, dtype=np.complex128)
    uB = np.asarray(uB, dtype=np.complex128)
    vB = np.asarray(vB, dtype=np.complex128)
    U = uA - uB
    V = vA - vB
    aU2 = U.real**2 + U.imag**2
    aV2 = V.real**2 + V.imag**2
    umod = (uA.real**2 + uA.imag**2) + (uB.real**2 + uB.imag**2)
    vmod = (vA.real**2 + vA.imag**2) + (vB.real**2 + vB.imag**2)
    return U, V, aU2 * vmod + umod * aV2


def source_charge_rate(u, v, p: ModelParams):
    """The two source contributions 2 Re(i conj(N1) u) and 2 Re(i conj(N2) v).

    Evaluated through the reduced form -4 beta s Im(u conj(v)) (with
    s = conj(u)v + u conj(v)), which is algebraically identical to the
    generic product but cancels the alpha part exactly, also in floating
    point. The two contributions sum to zero identically, which is what
    makes the charge continuity equation source-free.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    s = 2.0 * (u.real * v.real + u.imag * v.imag)
    im_uvbar = u.imag * v.real - u.real * v.imag
    ru = -4.0 * p.beta * s * im_uvbar
    return ru, -ru


# ---------------------------------------------------------------------------
# Randomized verification of the algebraic bounds

# Tuples drawn at a time, and evaluated at a time by the pure backend. A
# chunk draws all its uniforms before any block is evaluated, so BLOCK
# changes no tuple and no bit of the report; it only keeps the temporaries
# cache-sized.
CHUNK = 200_000
BLOCK = 8192

_BOUNDS = ("charge_rate", "product_difference", "difference_envelope")


def _abs2(z):
    """|z|^2 as the sum of the squared parts."""
    return z.real**2 + z.imag**2


def _abs2_product_difference(u, v, up, vp):
    """|u v - u' v'|^2, each product four real products and two sums."""
    re = (u.real * v.real - u.imag * v.imag) - (up.real * vp.real - up.imag * vp.imag)
    im = (u.real * v.imag + u.imag * v.real) - (up.real * vp.imag + up.imag * vp.real)
    return re**2 + im**2


def _bound_terms(u, v, up, vp, p: ModelParams, k: EstimateConstants):
    """(lhs, rhs) of each bound in _BOUNDS order, at the tuples (u, v, u', v').

    The complex products and moduli are real arithmetic, as in
    ``kernels.pure.distance_terms``: NumPy's complex multiply and ``np.abs``
    round differently in the SIMD loops a CPU dispatches to, so the ratios
    would too.
    """
    ru, rv = source_charge_rate(u, v, p)
    lhs_a = np.abs(ru) + np.abs(rv)
    rhs_a = 8.0 * abs(p.beta) * (u.real**2 + u.imag**2) * (v.real**2 + v.imag**2)

    U, V, r2 = eval_difference_terms(u, v, up, vp)
    lhs_b = _abs2_product_difference(u, v, up, vp)
    rhs_b = 2.0 * r2

    _, N1, N2 = eval_nonlinearity(u, v, p)
    _, N1p, N2p = eval_nonlinearity(up, vp, p)
    # |a conj(b)| = sqrt(|a|^2 |b|^2)
    lhs_c = np.sqrt(_abs2(N1 - N1p) * _abs2(U)) + np.sqrt(_abs2(N2 - N2p) * _abs2(V))
    rhs_c = 0.5 * k.c_star * r2
    return (lhs_a, rhs_a), (lhs_b, rhs_b), (lhs_c, rhs_c)


def _feed(vals, at, lhs, rhs, lo: int):
    """Update one bound's row of ``kernels.algebraic_extremes``' (vals, at)
    with the block of terms that starts at tuple lo of the chunk.

    vals: the largest positive excess lhs - rhs (1 + EXACT_SLACK), the
    largest finite lhs / rhs over rhs > 0, and the lhs of the first tuple
    with rhs == 0 and lhs > 0; at: the first tuple of that excess, that
    first tuple, and the first tuple with a non-finite lhs or rhs (-1 for
    none). Maxima are exact, only a strictly larger value replaces a kept
    one, and a NaN or inf ratio never counts, so the blocks give the same
    values and tuples as the whole chunk.
    """
    excess = lhs - rhs * (1.0 + EXACT_SLACK)
    i = int(np.argmax(excess))
    if excess[i] > vals[0]:
        vals[0], at[0] = excess[i], lo + i
    pos = rhs > 0
    ratio = lhs / rhs if pos.all() else lhs[pos] / rhs[pos]
    vals[1] = max(vals[1], np.max(ratio, initial=0.0, where=np.isfinite(ratio)))
    # rhs == 0 demands lhs == 0 exactly
    if at[1] < 0:
        zero_bad = (~pos) & (lhs > 0)
        if zero_bad.any():
            j = int(np.argmax(zero_bad))
            vals[2], at[1] = lhs[j], lo + j
    # a NaN or +-inf in lhs or rhs makes the excess, and so its sum, non-finite
    if at[2] < 0 and not np.isfinite(np.add.reduce(excess)):
        bad = ~(np.isfinite(lhs) & np.isfinite(rhs))
        if bad.any():
            at[2] = lo + int(np.argmax(bad))


def _pure_extremes(draws, p: ModelParams, k: EstimateConstants):
    """``kernels.algebraic_extremes`` in NumPy, BLOCK tuples at a time."""
    vals, at = np.zeros((3, 3)), np.full((3, 3), -1, dtype=np.intp)
    for lo in range(0, draws[0][0].shape[0], BLOCK):
        quad = [np.sqrt(r[lo:lo + BLOCK]) * np.exp(1j * th[lo:lo + BLOCK]) for r, th in draws]
        for row, (lhs, rhs) in enumerate(_bound_terms(*quad, p, k)):
            _feed(vals[row], at[row], lhs, rhs, lo)
    return vals, at


def _draws(rng, n: int):
    """The next chunk of n tuples as (r, theta) pairs for u, v, u' and v'."""
    return [(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(4)]


def _tuple_at(draws, i: int):
    """Tuple i of a chunk, formed as the block loop forms it."""
    return tuple(complex((np.sqrt(r[i:i + 1]) * np.exp(1j * th[i:i + 1]))[0]) for r, th in draws)


def check_algebraic_bounds(
    samples: int, p: ModelParams, k: EstimateConstants, seed: int = 0
) -> AuditReport:
    """Verify the three pointwise bounds on random complex tuples.

    (a) |2Re(i conj(N1) u)| + |2Re(i conj(N2) v)| <= 8|beta| |u|^2 |v|^2
    (b) |u v - u' v'|^2 <= 2 r2
    (c) |DN1 conj(U)| + |DN2 conj(V)| <= (c_star / 2) r2

    Each with multiplicative slack 1 + 1e-12; the bounds are exact in reals.
    The tuples (u, v, u', v') lie in the unit disk, sqrt(r) exp(i theta).
    They are drawn from default_rng(seed) CHUNK at a time: each chunk draws
    its r then its theta for u, then for v, u' and v', n uniforms each. Each
    chunk is evaluated in one pass, ``kernels.algebraic_extremes`` on the
    compiled backend and BLOCK tuples at a time on pure, with the same
    bits. A NaN or +-inf term fails the audit with max_violation inf; the
    witness is the first such tuple of the first chunk that has one, in
    the first of its bounds in (a), (b), (c). Returns the largest finite
    ratio lhs / rhs per bound in info.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    compiled = kernels.backend_name() == "compiled"
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(_BOUNDS, 0.0)
    failed_witness = nonfinite = None
    max_excess = 0.0
    done = 0
    while done < samples:
        n = min(CHUNK, samples - done)
        draws = _draws(rng, n)
        # a non-finite term is reported as a violation, not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            if compiled:
                vals, at = kernels.algebraic_extremes(draws, p.alpha, p.beta, k.c_star, 1.0 + EXACT_SLACK)
            else:
                vals, at = _pure_extremes(draws, p, k)
            # the update of a single pass over the chunk, in bound order
            for name, (excess, ratio, zero_lhs), (excess_at, zero_at, nonfinite_at) in zip(
                _BOUNDS, vals.tolist(), at.tolist()
            ):
                if excess > max_excess:
                    max_excess, failed_witness = excess, (name, *_tuple_at(draws, excess_at))
                worst[name] = max(worst[name], ratio)
                if zero_at >= 0:
                    max_excess, failed_witness = max(max_excess, zero_lhs), (name, *_tuple_at(draws, zero_at))
                if nonfinite is None and nonfinite_at >= 0:
                    nonfinite = (name, *_tuple_at(draws, nonfinite_at))
        done += n

    if nonfinite is not None:
        max_excess, failed_witness = np.inf, nonfinite
    passed = max_excess <= 0.0
    return AuditReport(
        inequality="pointwise algebraic bounds (charge rate, product difference, difference envelope)",
        passed=passed,
        max_violation=max(max_excess, 0.0),
        tolerance_budget=0.0,
        witness=failed_witness if not passed else None,
        info={f"max_ratio_{n}": r for n, r in worst.items()},
    )
