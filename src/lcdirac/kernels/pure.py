"""Pure NumPy implementations of the hot kernels.

One light-cone step, unforced or forced, of one run or a batch, with its
blow-up verdict (the same real operations as ``_step.c``, so the same
bits); the elementwise terms of one audited level and of the distances of
pairs of runs, and their ``np.add.reduce`` sums (the references that
``_level.c`` reproduces bit for bit); and the ordered pair sum
q(a, b) = sum_{i<j} a_i b_j in both the O(N) suffix-scan form and the
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

    Each stage and update is z + c i d in plain real arithmetic
    (``_advance``), the operations of ``advance`` in ``_step.c`` in the
    same order, so the backends agree bit for bit, signed zeros included.

    Returns ``(u_new, v_new, bad)``, where bad is the first site where
    u_new or v_new has a non-finite part, or -1: overflow is not raised but
    reported, as in the compiled backend. 2-d u and v are a batch of runs,
    one per row, stepped in turn with the same forcing: bad is then the
    flat index ``run * n + site`` of the first bad run, as in the compiled
    backend, and the rows after it are left unwritten.
    """
    if np.ndim(u) == 2:
        return _step_rows(np.asarray(u), np.asarray(v), h, m, alpha, beta, periodic, forcing)
    with np.errstate(over="ignore", invalid="ignore"):
        u_new, v_new = _step(u, v, h, m, alpha, beta, periodic, forcing)
    finite = np.isfinite(u_new.real) & np.isfinite(u_new.imag) & np.isfinite(v_new.real) & np.isfinite(v_new.imag)
    return u_new, v_new, -1 if finite.all() else int(np.argmin(finite))


def _step_rows(u, v, h, m, alpha, beta, periodic, forcing):
    u_new, v_new = np.empty(u.shape, dtype=np.complex128), np.empty(u.shape, dtype=np.complex128)
    for r in range(u.shape[0]):
        u_new[r], v_new[r], bad = step_unforced(u[r], v[r], h, m, alpha, beta, periodic, forcing)
        if bad >= 0:
            return u_new, v_new, r * u.shape[1] + bad
    return u_new, v_new, -1


def _step(u, v, h, m, alpha, beta, periodic, forcing):
    k = (m, alpha, 2.0 * beta)
    f = [None] * 4 if forcing is None else [_parts(a) for a in forcing]
    u, v = _parts(u), _parts(v)
    uh = _advance(u, 0.5 * h, u, v, k, f[0])
    vh = _advance(v, 0.5 * h, v, u, k, f[1])
    # u update: stages at (x_i - h/2, t + h/2); v update: at (x_i + h/2, t + h/2)
    u_new = _advance(_shift(u, 1, periodic), h, _shift(uh, 1, periodic), vh, k, f[2])
    v_new = _advance(_shift(v, -1, periodic), h, _shift(vh, -1, periodic), uh, k, f[3])
    return _complex(u_new), _complex(v_new)


def _advance(z, c, p, q, k, f):
    """z + c i d with d = m q - (alpha |q|^2 p + 2 beta s q) + f and
    s = 2 Re(p conj q), each complex value a (2, n) array of real and
    imaginary parts: ``advance`` in ``_step.c``, operation for operation."""
    m, alpha, tb = k
    (pr, pi), (qr, qi) = p, q
    q2 = qr * qr + qi * qi
    tbs = tb * (2.0 * (pr * qr + pi * qi))
    dr = m * qr - (q2 * (alpha * pr) + tbs * qr)
    di = m * qi - (q2 * (alpha * pi) + tbs * qi)
    if f is not None:
        dr, di = dr + f[0], di + f[1]
    return np.stack((z[0] - c * di, z[1] + c * dr))


def _parts(a):
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag))


def _complex(a):
    """The complex128 array whose real and imaginary parts are the rows of a."""
    return np.stack(a, axis=-1).view(np.complex128).reshape(-1)


def _shift(a, by, periodic):
    """The rows of a moved one site right (by = 1) or left (by = -1),
    wrapped (periodic) or filled with +0.0 (zero inflow)."""
    out = np.roll(a, by, axis=1)
    if not periodic:
        out[:, 0 if by > 0 else -1] = 0.0
    return out


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
    """Write one level's row into terms.row, a kernels.LevelTerms (which
    names its parts), for runs, one (u, v) pair per run, over the section
    [i0, i1): the sums of the elementwise terms, formed here as whole
    arrays and summed by np.add.reduce; with E, the growth factor at this
    level, also the growth margins against the level at t = 0; and the
    edge densities at terms.edge_sites.

    Overflow is left to the caller, as in the compiled backend.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _level_terms(terms, runs, i0, i1, kshift, E)


def _level_terms(terms, runs, i0, i1, kshift, E):
    sec, add = slice(i0, i1), np.add.reduce
    upper = add if i1 - i0 >= 2 else lambda a: 0.0  # q_upper is 0 below two sites
    au, av, sums = [], [], []
    for r, (u, v) in enumerate(runs):
        span = slice(None) if r == 0 else sec  # run B is read over the section only
        au.append(u[span].real**2 + u[span].imag**2)
        av.append(v[span].real**2 + v[span].imag**2)
        a, b = (x if r else x[sec] for x in (au[r], av[r]))  # over the section
        sums += [add(a + b), add(a * b), upper(a * upper_suffix(b))]
    if len(runs) == 2:
        (uA, vA), (uB, vB) = runs
        U = uA[sec] - uB[sec]
        V = vA[sec] - vB[sec]
        aU2 = U.real**2 + U.imag**2
        aV2 = V.real**2 + V.imag**2
        vmod = av[0][sec] + av[1]
        umod = au[0][sec] + au[1]
        sums += [add(aU2 + aV2), add(aU2 * vmod + umod * aV2), upper(aU2 * upper_suffix(vmod)),
                 upper(umod * upper_suffix(aV2))]
    terms.sums[:] = [add(au[0] + av[0]), *sums]  # run A's densities over the grid first
    terms.margins[:] = -np.inf
    terms.sites[:] = -1
    if E is not None:
        _growth_margins(terms, au[0], av[0], i0, i1, kshift, E)
    terms.edges[:] = np.nan
    if terms.edge_sites is not None:
        ia, ib = terms.edge_sites
        if 0 <= ib - kshift < terms.n:
            terms.edges[0] = au[0][ib - kshift]
        if 0 <= ia + kshift < terms.n:
            terms.edges[1] = av[0][ia + kshift]


def _growth_margins(terms, au, av, i0, i1, kshift, E):
    """Largest margin, and the site where np.argmax finds it, of the
    pointwise bounds on au = |u|^2 and av = |v|^2 of run A and of the bound
    over every sliding dyadic window of the section (width-major, then by
    start)."""
    dx, mC0 = terms.dx, terms.m * terms.C0
    pre_u, pre_v = np.zeros(terms.n + 1), np.zeros(terms.n + 1)
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


def distance_terms(run_a, run_b):
    """The field- and product-distance terms of two runs, (l1, p1):
    l1 = |uA - uB|^2 + |vA - vB|^2 and p1 = |uA vA - uB vB|^2, each complex
    product four real products and two sums, not NumPy's complex multiply,
    whose rounding depends on the CPU it dispatches to."""
    (uA, vA), (uB, vB) = run_a, run_b
    with np.errstate(over="ignore", invalid="ignore"):
        U, V = uA - uB, vA - vB
        l1 = (U.real**2 + U.imag**2) + (V.real**2 + V.imag**2)
        re = (uA.real * vA.real - uA.imag * vA.imag) - (uB.real * vB.real - uB.imag * vB.imag)
        im = (uA.real * vA.imag + uA.imag * vA.real) - (uB.real * vB.imag + uB.imag * vB.real)
        return l1, re**2 + im**2


def distance_sums(sums, runs):
    """Write the np.add.reduce sums of each pair's distance terms into
    sums.sums, a kernels.DistanceSums, for runs, one (u, v) pair per run."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (a, b) in enumerate(sums.pairs):
            l1, p1 = distance_terms(runs[a], runs[b])
            sums.sums[k] = np.add.reduce(l1), np.add.reduce(p1)
