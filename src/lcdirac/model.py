"""Cubic nonlinearity, pointwise algebraic bounds, and difference quantities.

The interaction density is W(u, v) = alpha |u|^2 |v|^2 + beta (conj(u) v
+ u conj(v))^2; the source terms N1, N2 are its Wirtinger derivatives in
conj(u) and conj(v). alpha = 1, beta = 0 is the Thirring interaction,
alpha = 0, beta = 1/4 the Gross-Neveu one.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

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
    bound (c) of check_algebraic_bounds, lhs_c <= (c_star / 2) r2. The
    supremum of lhs_c / r2 is (3/2) max(|alpha|, |alpha + 4 beta|), so the
    tight value is 3 max(|alpha|, |alpha + 4 beta|) <= 3(|alpha| + 4|beta|):
    the default is at least 16/3 (about 5.3) times the tight value, and
    more for couplings of mixed signs. K = 2 c_star + 2 then leaves
    -K + 2 c_star = -2.
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
# Deterministic verification of the algebraic bounds

_BOUNDS = ("charge_rate", "product_difference", "difference_envelope")

# Rational points of the unit circle: the axes and the 3-4-5 directions.
_UNIT = np.array([1, 1j, -1, -1j, 0.6 + 0.8j, -0.8 + 0.6j, -0.6 - 0.8j, 0.8 - 0.6j,
                  0.8 + 0.6j, -0.6 + 0.8j, -0.8 - 0.6j, 0.6 - 0.8j])

# The separation of the extremisers: (u', v') -> (u, v) is where the
# envelope ratios approach their suprema.
EPS = 2.0**-20


def _abs2(z):
    """|z|^2 as the sum of the squared parts."""
    return z.real**2 + z.imag**2


def _complex(re, im):
    z = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def _grid():
    """3888 tuples (u, v, u', v') with u = 1/2 (the common phase removed),
    v = rho z and u' = u (1 + sigma w1), v' = v (1 + sigma w2) for rho and
    sigma in {1/2, 1}, z a rational unit point and w1, w2 zero or one of
    the first eight. Real arithmetic only, so every bit is IEEE's."""
    rho = np.array([0.5, 1.0])[:, None]
    v = _complex(rho * _UNIT.real, rho * _UNIT.imag).ravel()[:, None, None, None]
    sigma = np.array([0.5, 1.0])[None, :, None, None]
    w = np.concatenate([[0], _UNIT[:8]])
    w1, w2 = w[None, None, :, None], w[None, None, None, :]
    shape = np.broadcast_shapes(v.shape, sigma.shape, w1.shape, w2.shape)
    a, b = 1.0 + sigma * w2.real, sigma * w2.imag
    quad = (np.full(shape, 0.5 + 0j), v,
            _complex(0.5 * (1.0 + sigma * w1.real), 0.5 * sigma * w1.imag),
            _complex(v.real * a - v.imag * b, v.real * b + v.imag * a))
    return [np.broadcast_to(z, shape).ravel() for z in quad]


def _extremisers():
    """The tuples at which the ratios approach their suprema, all exact:
    u = 1/2, v = u e^{i phi} for phi in {0, pi/2}, u' = u - EPS u and
    v' = v -+ EPS v, for (b) and (c); and v = (1 + i) / 2, a phase of pi/4
    between u and v, for (a)."""
    u, up = 0.5, 0.5 - EPS * 0.5
    rows = [(u, v, up, v - sign * EPS * v) for v in (0.5, 0.5j) for sign in (1, -1)]
    rows.append((u, 0.5 + 0.5j, up, 0.5 + 0.5j))
    return [np.array(z, dtype=np.complex128) for z in zip(*rows)]


def _tuples():
    """The fixed tuples check_algebraic_bounds evaluates: the grid, then the extremisers."""
    return [np.concatenate(z) for z in zip(_grid(), _extremisers())]


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


def check_algebraic_bounds(samples: int, p: ModelParams, k: EstimateConstants) -> AuditReport:
    """Verify the three pointwise bounds at their extremisers.

    (a) |2Re(i conj(N1) u)| + |2Re(i conj(N2) v)| <= 8|beta| |u|^2 |v|^2
    (b) |u v - u' v'|^2 <= 2 r2
    (c) |DN1 conj(U)| + |DN2 conj(V)| <= (c_star / 2) r2

    Each with multiplicative slack 1 + 1e-12; the bounds are exact in reals.
    Both sides are homogeneous of degree 4 and invariant under a common
    phase, and their suprema are closed forms: lhs_a / rhs_a is at most 1,
    attained at a phase of pi/4 between u and v (lhs_a is 0 for beta = 0);
    lhs_b / r2 is at most 1, and lhs_c / r2 at most
    (3/2) max(|alpha|, |alpha + 4 beta|), both approached as (u', v') ->
    (u, v) with u' - u, v' - v parallel to u, v, at phi = 0 or pi/2. So the
    tight c_star is 3 max(|alpha|, |alpha + 4 beta|). The check evaluates
    the bounds once, in NumPy, on _tuples(): a grid of rational points and
    the extremisers at separation EPS, whose ratios come within about 1e-10
    of the suprema.

    A NaN or +-inf term fails the audit with max_violation inf; the witness
    is the first such tuple in the first of the bounds (a), (b), (c) that
    has one. Otherwise max_violation is the largest excess lhs - rhs
    (1 + slack) and the witness its tuple, the first bound's on a tie.
    Returns the largest finite ratio lhs / rhs over rhs > 0 per bound in
    info. samples has no effect; it must be >= 1, as ``audit.samples``.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    quad = _tuples()
    worst = {}
    failed_witness = nonfinite = None
    max_excess = 0.0
    # a non-finite term is reported as a violation, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        for name, (lhs, rhs) in zip(_BOUNDS, _bound_terms(*quad, p, k)):
            finite = np.isfinite(lhs) & np.isfinite(rhs)
            if nonfinite is None and not finite.all():
                nonfinite = (name, *(complex(z[np.argmin(finite)]) for z in quad))
            excess = np.where(finite, lhs - rhs * (1.0 + EXACT_SLACK), -np.inf)
            i = int(np.argmax(excess))
            if excess[i] > max_excess:
                max_excess, failed_witness = float(excess[i]), (name, *(complex(z[i]) for z in quad))
            pos = rhs > 0
            ratio = lhs[pos] / rhs[pos]
            worst[name] = float(np.max(ratio, initial=0.0, where=np.isfinite(ratio)))

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
