"""Pure NumPy implementations of the hot kernels.

One light-cone step, unforced or forced (the reference that ``_step.c``
reproduces bit for bit); the elementwise terms of one audited level (the
reference that ``_level.c`` reproduces bit for bit); and the ordered pair
sum q(a, b) = sum_{i<j} a_i b_j in both the O(N) suffix-scan form and the
O(N^2) direct form kept as an oracle.
"""
from __future__ import annotations

import numpy as np


def step_unforced(u, v, h, m, alpha, beta, periodic, forcing=None):
    """One step of the characteristic scheme, with optional forcing.

    Half-step source stages are formed pointwise at the old time level and
    then paired across neighbor sites so that every stage value sits at the
    midpoint of the characteristic segment it integrates:

        uh_i ~ u(x_i + h/2, t + h/2),   vh_i ~ v(x_i - h/2, t + h/2)
        u_new_i = u_{i-1} + h f_u(uh_{i-1}, vh_i)
        v_new_i = v_{i+1} + h f_v(uh_i, vh_{i+1})

    with f_u = i(m v - N1 + F1), f_v = i(m u - N2 + F2). Transport itself
    is exact. forcing is None (F1 = F2 = 0) or four arrays shaped like u:
    F1 and F2 at (x_i, t), F1 at (x_i - h/2, t + h/2) and F2 at
    (x_i + h/2, t + h/2).

    Overflow is left to the caller's finite check (blow-up reporting), as
    in the compiled backend.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(u, v, h, m, alpha, beta, periodic, forcing)


def _step(u, v, h, m, alpha, beta, periodic, forcing):
    au2 = u.real**2 + u.imag**2
    av2 = v.real**2 + v.imag**2
    s = 2.0 * (u.real * v.real + u.imag * v.imag)
    n1 = alpha * u * av2 + (2.0 * beta) * s * v
    n2 = alpha * v * au2 + (2.0 * beta) * s * u
    du = m * v - n1
    dv = m * u - n2
    if forcing is not None:
        du = du + forcing[0]
        dv = dv + forcing[1]
    uh = u + (0.5 * h) * (1j * du)
    vh = v + (0.5 * h) * (1j * dv)

    if periodic:
        u_base = np.roll(u, 1)
        v_base = np.roll(v, -1)
        uh_m = np.roll(uh, 1)
        vh_p = np.roll(vh, -1)
    else:
        u_base = np.empty_like(u)
        u_base[0] = 0.0
        u_base[1:] = u[:-1]
        v_base = np.empty_like(v)
        v_base[-1] = 0.0
        v_base[:-1] = v[1:]
        uh_m = np.empty_like(uh)
        uh_m[0] = 0.0
        uh_m[1:] = uh[:-1]
        vh_p = np.empty_like(vh)
        vh_p[-1] = 0.0
        vh_p[:-1] = vh[1:]

    # u update: stages at (x_i - h/2, t + h/2)
    b2 = vh.real**2 + vh.imag**2
    sm = 2.0 * (uh_m.real * vh.real + uh_m.imag * vh.imag)
    n1m = alpha * uh_m * b2 + (2.0 * beta) * sm * vh
    du = m * vh - n1m

    # v update: stages at (x_i + h/2, t + h/2)
    a2 = uh.real**2 + uh.imag**2
    sp = 2.0 * (uh.real * vh_p.real + uh.imag * vh_p.imag)
    n2p = alpha * vh_p * a2 + (2.0 * beta) * sp * uh
    dv = m * uh - n2p
    if forcing is not None:
        du = du + forcing[2]
        dv = dv + forcing[3]
    return u_base + h * (1j * du), v_base + h * (1j * dv)


def upper_suffix(b):
    """suffix_i = sum_{j>i} b_j by a right-to-left scan; 0 at the last site."""
    suffix = np.zeros(b.shape[0], dtype=np.float64)
    suffix[:-1] = np.cumsum(b[::-1])[::-1][1:]
    return suffix


def q_upper(a, b):
    """sum_{i<j} a_i b_j via a right-to-left suffix scan; O(N)."""
    if a.shape[0] < 2:
        return 0.0
    return float(np.sum(a * upper_suffix(b)))


def q_upper_naive(a, b):
    """sum_{i<j} a_i b_j by direct row sums; O(N^2) oracle."""
    n = a.shape[0]
    total = 0.0
    for i in range(n - 1):
        total += a[i] * float(np.sum(b[i + 1:]))
    return float(total)


def level_terms(terms, runs, i0, i1, kshift, E):
    """Write one level's elementwise terms into terms, a kernels.LevelTerms
    (which names each one), for runs, one (u, v) pair per run, over the
    section [i0, i1); with E, the growth factor at this level, also the
    growth margins against the level at t = 0. The sums stay with the caller.
    In distance mode the complex products are NumPy's, the rounding that
    the compiled pass follows.

    Overflow is left to the caller, as in the compiled backend.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _level_terms(terms, runs, i0, i1, kshift, E)


def _level_terms(terms, runs, i0, i1, kshift, E):
    sec = slice(i0, i1)
    for r, (u, v) in enumerate([] if terms.distance else runs):
        span = slice(None) if r == 0 else sec  # run B is read over the section only
        au, av = terms.au[r], terms.av[r]
        au[span] = u[span].real**2 + u[span].imag**2
        av[span] = v[span].real**2 + v[span].imag**2
        terms.dens[r, span] = au[span] + av[span]
        terms.prod[r, sec] = au[sec] * av[sec]
        terms.q[r, sec] = au[sec] * upper_suffix(av[sec])
    if len(runs) == 2:
        (uA, vA), (uB, vB) = runs
        U = uA[sec] - uB[sec]
        V = vA[sec] - vB[sec]
        aU2 = U.real**2 + U.imag**2
        aV2 = V.real**2 + V.imag**2
        terms.l1[sec] = aU2 + aV2
        if terms.distance:
            d = uA[sec] * vA[sec] - uB[sec] * vB[sec]
            terms.p1[sec] = d.real**2 + d.imag**2
        else:
            vmod = terms.av[0, sec] + terms.av[1, sec]
            umod = terms.au[0, sec] + terms.au[1, sec]
            terms.d1[sec] = aU2 * vmod + umod * aV2
            terms.q1u[sec] = aU2 * upper_suffix(vmod)
            terms.q1v[sec] = umod * upper_suffix(aV2)
    terms.margins[:] = -np.inf
    terms.sites[:] = -1
    if E is not None:
        _growth_margins(terms, i0, i1, kshift, E)


def _growth_margins(terms, i0, i1, kshift, E):
    """Largest margin, and the site where np.argmax finds it, of the
    pointwise bounds on |u|^2 and |v|^2 and of the bound over every sliding
    dyadic window of the section (width-major, then by start)."""
    dx, mC0 = terms.dx, terms.m * terms.C0
    au, av = terms.au[0], terms.av[0]
    pre_u, pre_v = terms.pre_u, terms.pre_v
    pre_u[0] = pre_v[0] = 0.0
    np.cumsum(au, out=pre_u[1:])
    np.cumsum(av, out=pre_v[1:])
    vio_u = au[i0:i1] - E * (terms.au0[i0 - kshift : i1 - kshift] + mC0)
    vio_v = av[i0:i1] - E * (terms.av0[i0 + kshift : i1 + kshift] + mC0)
    for k, vio in enumerate((vio_u, vio_v)):
        j = int(np.argmax(vio))
        terms.margins[k], terms.sites[k] = vio[j], i0 + j

    starts, width = [], []
    w = 2
    while w <= i1 - i0:
        starts.append(np.arange(i0, i1 - w + 1, w // 2))
        width.append(np.full(len(starts[-1]), w))
        w *= 2
    if not starts:
        return
    starts, width = np.concatenate(starts), np.concatenate(width)
    ends = starts + width
    su_t = (pre_u[ends] - pre_u[starts]) * dx
    sv_t = (pre_v[ends] - pre_v[starts]) * dx
    lo_u, lo_v = starts - kshift, starts + kshift  # the windows' feet at t = 0
    su_0 = (terms.pre_u0[lo_u + width] - terms.pre_u0[lo_u]) * dx
    sv_0 = (terms.pre_v0[lo_v + width] - terms.pre_v0[lo_v]) * dx
    slack = E * terms.m * terms.C0 * (width * dx)
    vio_w = np.maximum(su_t - E * su_0, sv_t - E * sv_0) - slack
    j = int(np.argmax(vio_w))
    terms.margins[2], terms.sites[2] = vio_w[j], starts[j]
