"""The pointwise algebraic bounds evaluated on tuples: the oracle of
``model.check_algebraic_bounds``' closed forms.

The check states the suprema of the three bound ratios in (alpha, beta,
c_star) and evaluates no tuple. This module evaluates both sides of each
bound, with ``model.eval_nonlinearity`` as implemented, on a fixed grid of
rational tuples and on the closed-form extremisers, whose ratios come within
about 1e-10 of the suprema; ``tests/test_model.py`` requires them to, and
requires random tuples to stay below them.
"""
from __future__ import annotations

import numpy as np

from lcdirac import model
from lcdirac.model import EstimateConstants, ModelParams

# Multiplicative slack absorbing rounding in bounds that are exact in reals.
EXACT_SLACK = 1e-12

# Rational points of the unit circle: the axes and the 3-4-5 directions.
UNIT = np.array([1, 1j, -1, -1j, 0.6 + 0.8j, -0.8 + 0.6j, -0.6 - 0.8j, 0.8 - 0.6j,
                 0.8 + 0.6j, -0.6 + 0.8j, -0.8 - 0.6j, 0.6 - 0.8j])

# The separation of the extremisers: (u', v') -> (u, v) is where the
# envelope ratios approach their suprema.
EPS = 2.0**-20


def abs2(z):
    """|z|^2 as the sum of the squared parts."""
    return z.real**2 + z.imag**2


def _complex(re, im):
    z = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def eval_difference_terms(uA, vA, uB, vB):
    """Difference fields and their quadratic envelope (U, V, r2).

    U = uA - uB, V = vA - vB;
    r2 = |U|^2 (|vA|^2 + |vB|^2) + (|uA|^2 + |uB|^2) |V|^2.
    """
    uA, vA, uB, vB = (np.asarray(z, dtype=np.complex128) for z in (uA, vA, uB, vB))
    U = uA - uB
    V = vA - vB
    return U, V, abs2(U) * (abs2(vA) + abs2(vB)) + (abs2(uA) + abs2(uB)) * abs2(V)


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


def grid():
    """3888 tuples (u, v, u', v') with u = 1/2 (the common phase removed),
    v = rho z and u' = u (1 + sigma w1), v' = v (1 + sigma w2) for rho and
    sigma in {1/2, 1}, z a rational unit point and w1, w2 zero or one of
    the first eight. Real arithmetic only, so every bit is IEEE's."""
    rho = np.array([0.5, 1.0])[:, None]
    v = _complex(rho * UNIT.real, rho * UNIT.imag).ravel()[:, None, None, None]
    sigma = np.array([0.5, 1.0])[None, :, None, None]
    w = np.concatenate([[0], UNIT[:8]])
    w1, w2 = w[None, None, :, None], w[None, None, None, :]
    shape = np.broadcast_shapes(v.shape, sigma.shape, w1.shape, w2.shape)
    a, b = 1.0 + sigma * w2.real, sigma * w2.imag
    quad = (np.full(shape, 0.5 + 0j), v,
            _complex(0.5 * (1.0 + sigma * w1.real), 0.5 * sigma * w1.imag),
            _complex(v.real * a - v.imag * b, v.real * b + v.imag * a))
    return [np.broadcast_to(z, shape).ravel() for z in quad]


def extremisers():
    """The tuples at which the ratios approach their suprema, all exact:
    u = 1/2, v = u e^{i phi} for phi in {0, pi/2}, u' = u - EPS u and
    v' = v -+ EPS v, for (b) and (c); and v = (1 + i) / 2, a phase of pi/4
    between u and v, for (a)."""
    u, up = 0.5, 0.5 - EPS * 0.5
    rows = [(u, v, up, v - sign * EPS * v) for v in (0.5, 0.5j) for sign in (1, -1)]
    rows.append((u, 0.5 + 0.5j, up, 0.5 + 0.5j))
    return [np.array(z, dtype=np.complex128) for z in zip(*rows)]


def tuples():
    """The fixed tuples: the grid, then the extremisers (3893 in all)."""
    return [np.concatenate(z) for z in zip(grid(), extremisers())]


def abs2_product_difference(u, v, up, vp):
    """|u v - u' v'|^2, each product four real products and two sums."""
    re = (u.real * v.real - u.imag * v.imag) - (up.real * vp.real - up.imag * vp.imag)
    im = (u.real * v.imag + u.imag * v.real) - (up.real * vp.imag + up.imag * vp.real)
    return re**2 + im**2


def bound_terms(u, v, up, vp, p: ModelParams, k: EstimateConstants):
    """(lhs, rhs) of the charge rate (a), the product difference (b) and the
    difference envelope (c), at the tuples (u, v, u', v').

    The complex products and moduli are real arithmetic, as in
    ``kernels.pure.distance_terms``: NumPy's complex multiply and ``np.abs``
    round differently in the SIMD loops a CPU dispatches to, so the ratios
    would too.
    """
    ru, rv = source_charge_rate(u, v, p)
    lhs_a = np.abs(ru) + np.abs(rv)
    rhs_a = 8.0 * abs(p.beta) * abs2(u) * abs2(v)

    U, V, r2 = eval_difference_terms(u, v, up, vp)
    lhs_b = abs2_product_difference(u, v, up, vp)
    rhs_b = 2.0 * r2

    _, N1, N2 = model.eval_nonlinearity(u, v, p)
    _, N1p, N2p = model.eval_nonlinearity(up, vp, p)
    # |a conj(b)| = sqrt(|a|^2 |b|^2)
    lhs_c = np.sqrt(abs2(N1 - N1p) * abs2(U)) + np.sqrt(abs2(N2 - N2p) * abs2(V))
    rhs_c = 0.5 * k.c_star * r2
    return (lhs_a, rhs_a), (lhs_b, rhs_b), (lhs_c, rhs_c)


def ratios(quad, p: ModelParams, k: EstimateConstants) -> list[float]:
    """The largest lhs / rhs of each bound over the tuples with rhs > 0, 0
    where there is none; a NaN ratio makes its bound's NaN."""
    out = []
    for lhs, rhs in bound_terms(*quad, p, k):
        pos = rhs > 0
        out.append(float(np.max(lhs[pos] / rhs[pos], initial=0.0)))
    return out
