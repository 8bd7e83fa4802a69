/* One light-cone step in real arithmetic, with optional forcing; see
 * kernels/pure.py for the scheme. Each complex product is spelled out as
 * NumPy evaluates it, with a real factor promoted to (c, 0), so the result
 * matches the NumPy step bit for bit, signed zeros included. Build with
 * -ffp-contract=off and never with -ffast-math: the 0.0 * x terms must
 * survive.
 *
 * One corner differs: where c * x underflows to zero from a nonzero exact
 * product, NumPy's SIMD complex multiply on FMA hardware fuses it with the
 * 0.0 * y term and keeps the product's sign, so a -0.0 here can be +0.0
 * there (equal as numbers). Only data near 1e-300 in magnitude reaches it.
 *
 * The helpers that take forcing pointers are always inlined, so the loop is
 * compiled once with the pointers NULL and once without, and the unforced
 * step tests no pointer per site.
 */
#include <stddef.h>

#define INLINE static inline __attribute__((always_inline))

typedef struct { double re, im; } cplx;

static inline cplx rmul(double c, cplx z) /* (c + 0i) * z */
{
    cplx r = {c * z.re - 0.0 * z.im, c * z.im + 0.0 * z.re};
    return r;
}

static inline cplx add(cplx a, cplx b)
{
    cplx r = {a.re + b.re, a.im + b.im};
    return r;
}

/* i (m q - n + f),  n = alpha p |q|^2 + 2 beta s q,  s = 2 Re(p conj q);
 * the forcing sample f is skipped when NULL */
INLINE cplx source(cplx p, cplx q, double m, double alpha, double tb, const cplx *f)
{
    double q2 = q.re * q.re + q.im * q.im;
    double s = 2.0 * (p.re * q.re + p.im * q.im);
    cplx n = add(rmul(q2, rmul(alpha, p)), rmul(tb * s, q));
    cplx mq = rmul(m, q);
    cplx d = {mq.re - n.re, mq.im - n.im};
    if (f)
        d = add(d, *f);
    cplx r = {0.0 * d.re - d.im, 0.0 * d.im + d.re}; /* (0 + 1i) * d */
    return r;
}

INLINE const cplx *at(const cplx *f, ptrdiff_t i)
{
    return f ? f + i : NULL;
}

/* uh_i ~ u(x_i + h/2, t + h/2) and vh_i ~ v(x_i - h/2, t + h/2) */
INLINE void half(const cplx *u, const cplx *v, const cplx *fu, const cplx *fv,
                 ptrdiff_t i, double hh, double m, double alpha, double tb,
                 cplx *uh, cplx *vh)
{
    *uh = add(u[i], rmul(hh, source(u[i], v[i], m, alpha, tb, at(fu, i))));
    *vh = add(v[i], rmul(hh, source(v[i], u[i], m, alpha, tb, at(fv, i))));
}

/* un_i = u_{i-1} + h f_u(uh_{i-1}, vh_i), vn_i = v_{i+1} + h f_v(uh_i, vh_{i+1});
 * neighbours past either end wrap (periodic) or are zero (zero inflow).
 * f[0], f[1]: F1 and F2 at (x_i, t); f[2]: F1 at (x_i - h/2, t + h/2);
 * f[3]: F2 at (x_i + h/2, t + h/2); all NULL for the unforced step. */
INLINE void step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t n,
                 double h, double m, double alpha, double beta, int periodic,
                 const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    const cplx zero = {0.0, 0.0};
    const double tb = 2.0 * beta, hh = 0.5 * h;
    cplx u_left = zero, uh_left = zero, vh_left, uh, vh, uh_right, vh_right, v_right;
    ptrdiff_t i;

    if (n <= 0)
        return;
    if (periodic) {
        u_left = u[n - 1];
        half(u, v, f0, f1, n - 1, hh, m, alpha, tb, &uh_left, &vh_left);
    }
    half(u, v, f0, f1, 0, hh, m, alpha, tb, &uh, &vh);
    for (i = 0; i < n; i++) {
        if (i + 1 < n) {
            half(u, v, f0, f1, i + 1, hh, m, alpha, tb, &uh_right, &vh_right);
            v_right = v[i + 1];
        } else if (periodic) {
            half(u, v, f0, f1, 0, hh, m, alpha, tb, &uh_right, &vh_right);
            v_right = v[0];
        } else {
            uh_right = vh_right = v_right = zero;
        }
        un[i] = add(u_left, rmul(h, source(uh_left, vh, m, alpha, tb, at(f2, i))));
        vn[i] = add(v_right, rmul(h, source(vh_right, uh, m, alpha, tb, at(f3, i))));
        u_left = u[i];
        uh_left = uh;
        uh = uh_right;
        vh = vh_right;
    }
}

/* un and vn must not overlap u, v or the forcing samples; f0 NULL means
 * no forcing, and then f1..f3 are not read. */
void lcd_step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t n,
              double h, double m, double alpha, double beta, int periodic,
              const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    if (f0)
        step(u, v, un, vn, n, h, m, alpha, beta, periodic, f0, f1, f2, f3);
    else
        step(u, v, un, vn, n, h, m, alpha, beta, periodic, NULL, NULL, NULL, NULL);
}
