"""Cubic nonlinearity, estimate constants, and the pointwise algebraic bounds.

The interaction density is W(u, v) = alpha |u|^2 |v|^2 + beta (conj(u) v
+ u conj(v))^2; the source terms N1, N2 are its Wirtinger derivatives in
conj(u) and conj(v). alpha = 1, beta = 0 is the Thirring interaction,
alpha = 0, beta = 1/4 the Gross-Neveu one. The algebraic bounds the
estimates rest on are checked from their suprema in closed form, which
depend only on (alpha, beta, c_star); no field values are evaluated.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._records import record
from .errors import ConfigurationError
from .reports import AuditReport

# delta0 sentinel when no smallness constraint is active (coupling c = 0).
UNCONSTRAINED = 1.0e6


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

    c_star = 6 max(|alpha|, |alpha + 4 beta|) dominates the difference-term
    envelope, bound (c) of check_algebraic_bounds, lhs_c <= (c_star / 2) r2:
    the supremum of lhs_c / r2 is (3/2) max(|alpha|, |alpha + 4 beta|), so
    the tight value is 3 max(|alpha|, |alpha + 4 beta|), and the default is
    twice it (0 for zero coupling). K = 2 c_star + 2 then leaves
    -K + 2 c_star = -2, and delta = min(delta0, 1 / (4 c_star)) keeps
    -2 + 2 c_star delta <= -3/2. Once 2 c_star reaches 2^54 the + 2 is lost
    to rounding, and K is the next double above 2 c_star instead, which
    keeps -K + 2 c_star < -1 in floating point for every finite 2 c_star.
    """
    c = 8.0 * abs(p.beta)
    if delta0 is None:
        delta0 = 1.0 / (4.0 * c) if c > 0 else UNCONSTRAINED
    if c_star is None:
        c_star = 6.0 * max(abs(p.alpha), abs(p.alpha + 4.0 * p.beta))
    if K is None:
        K = 2.0 * c_star + 2.0
        if not -K + 2.0 * c_star < -1.0:  # the + 2 rounded away
            K = math.nextafter(2.0 * c_star, math.inf)
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


# ---------------------------------------------------------------------------
# The pointwise algebraic bounds, in closed form


def check_algebraic_bounds(samples: int, p: ModelParams, k: EstimateConstants) -> AuditReport:
    """The three pointwise bounds, from their suprema in closed form.

    (a) |2Re(i conj(N1) u)| + |2Re(i conj(N2) v)| <= 8|beta| |u|^2 |v|^2
    (b) |u v - u' v'|^2 <= 2 r2
    (c) |DN1 conj(U)| + |DN2 conj(V)| <= (c_star / 2) r2

    with U = u - u', V = v - v', DN = N(u, v) - N(u', v') and
    r2 = |U|^2 (|v|^2 + |v'|^2) + (|u|^2 + |u'|^2) |V|^2. Both sides are
    homogeneous of degree 4 and invariant under a common phase, and the
    suprema of the ratios are closed forms: lhs_a / rhs_a is 1, attained at
    a phase of pi/4 between u and v (lhs_a is 0 for beta = 0); lhs_b / rhs_b
    is 1/2; lhs_c / rhs_c is 3 max(|alpha|, |alpha + 4 beta|) / c_star,
    approached as (u', v') -> (u, v) along (u, v), at v = u (phase 0) when
    |alpha + 4 beta| >= |alpha| and at v = i u (phase pi/2) otherwise.
    ``tests/algebraic_oracle.py`` evaluates the bounds on tuples against
    these forms.

    (a) and (b) hold for every coupling, so the audit passes iff (c) does,
    c_star >= 3 max(|alpha|, |alpha + 4 beta|), with no slack. Failing,
    max_violation is the ratio of (c) less 1, inf for a zero c_star with a
    nonzero coupling or where alpha + 4 beta overflows, and the witness is
    ("difference_envelope", u, v, u', v') at the limit of (c)'s extremiser,
    u = u' = 1/2, v = v' = u or i u. info holds the three ratios. samples
    has no effect; it must be >= 1, as ``audit.samples``.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    a, b = abs(p.alpha), abs(p.alpha + 4.0 * p.beta)
    sup = 3.0 * max(a, b)
    c_star = k.c_star
    if sup <= c_star:
        ratio = sup / c_star if sup else 0.0
        excess = 0.0
    elif c_star > 0:
        ratio = sup / c_star
        excess = (sup - c_star) / c_star  # ratio - 1, > 0 exactly when (c) fails
    else:
        ratio = excess = math.inf
    passed = excess == 0.0
    v = 0.5 + 0j if b >= a else 0.5j
    return AuditReport(
        inequality="pointwise algebraic bounds (charge rate, product difference, difference envelope)",
        passed=passed,
        max_violation=excess,
        tolerance_budget=0.0,
        witness=None if passed else ("difference_envelope", 0.5 + 0j, v, 0.5 + 0j, v),
        info={
            "max_ratio_charge_rate": 1.0 if p.beta else 0.0,
            "max_ratio_product_difference": 0.5,
            "max_ratio_difference_envelope": ratio,
        },
    )
