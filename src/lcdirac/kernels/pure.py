"""Pure NumPy implementations of the hot kernels.

One unforced light-cone step (the reference that ``_step.c`` reproduces bit
for bit), and the ordered pair sum q(a, b) = sum_{i<j} a_i b_j in both the
O(N) suffix-scan form and the O(N^2) direct form kept as an oracle.
"""
from __future__ import annotations

import numpy as np


def step_unforced(u, v, h, m, alpha, beta, periodic):
    """One step of the characteristic scheme without forcing.

    Half-step source stages are formed pointwise at the old time level and
    then paired across neighbor sites so that every stage value sits at the
    midpoint of the characteristic segment it integrates:

        uh_i ~ u(x_i + h/2, t + h/2),   vh_i ~ v(x_i - h/2, t + h/2)
        u_new_i = u_{i-1} + h f_u(uh_{i-1}, vh_i)
        v_new_i = v_{i+1} + h f_v(uh_i, vh_{i+1})

    with f_u = i(m v - N1), f_v = i(m u - N2). Transport itself is exact.

    Overflow is left to the caller's finite check (blow-up reporting), as
    in the compiled backend.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_unforced(u, v, h, m, alpha, beta, periodic)


def _step_unforced(u, v, h, m, alpha, beta, periodic):
    au2 = u.real**2 + u.imag**2
    av2 = v.real**2 + v.imag**2
    s = 2.0 * (u.real * v.real + u.imag * v.imag)
    n1 = alpha * u * av2 + (2.0 * beta) * s * v
    n2 = alpha * v * au2 + (2.0 * beta) * s * u
    uh = u + (0.5 * h) * (1j * (m * v - n1))
    vh = v + (0.5 * h) * (1j * (m * u - n2))

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
    a2 = uh_m.real**2 + uh_m.imag**2
    b2 = vh.real**2 + vh.imag**2
    sm = 2.0 * (uh_m.real * vh.real + uh_m.imag * vh.imag)
    n1m = alpha * uh_m * b2 + (2.0 * beta) * sm * vh
    u_new = u_base + h * (1j * (m * vh - n1m))

    # v update: stages at (x_i + h/2, t + h/2)
    a2 = uh.real**2 + uh.imag**2
    sp = 2.0 * (uh.real * vh_p.real + uh.imag * vh_p.imag)
    n2p = alpha * vh_p * a2 + (2.0 * beta) * sp * uh
    v_new = v_base + h * (1j * (m * uh - n2p))
    return u_new, v_new


def q_upper(a, b):
    """sum_{i<j} a_i b_j via a right-to-left suffix scan; O(N)."""
    n = a.shape[0]
    if n < 2:
        return 0.0
    suffix = np.empty(n, dtype=np.float64)
    suffix[-1] = 0.0
    suffix[:-1] = np.cumsum(b[::-1])[::-1][1:]
    return float(np.sum(a * suffix))


def q_upper_naive(a, b):
    """sum_{i<j} a_i b_j by direct row sums; O(N^2) oracle."""
    n = a.shape[0]
    total = 0.0
    for i in range(n - 1):
        total += a[i] * float(np.sum(b[i + 1:]))
    return float(total)
