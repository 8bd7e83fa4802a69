/* One light-cone step in real arithmetic, with optional forcing; see
 * kernels/pure.py for the scheme. Each complex product is spelled out as
 * NumPy evaluates it, with a real factor promoted to (c, 0), so the result
 * matches the NumPy step bit for bit, signed zeros included. Build with
 * -ffp-contract=off and never with -ffast-math: the 0.0 * x terms must
 * survive, and no multiply-add may be fused.
 *
 * One corner differs: where c * x underflows to zero from a nonzero exact
 * product, NumPy's SIMD complex multiply on FMA hardware fuses it with the
 * 0.0 * y term and keeps the product's sign, so a -0.0 here can be +0.0
 * there (equal as numbers). Only data near 1e-300 in magnitude reaches it.
 *
 * The step runs in blocks of BLOCK sites, two passes each: the half-step
 * stages of the block and of one site on either side go into two stack
 * arrays, then the block's updates read them. Neither inner loop carries a
 * value from one site to the next or branches, so at -O3 the compiler
 * vectorises both; each SIMD lane does the same IEEE operations as the
 * scalar code. The wrap (periodic) or zero (zero inflow) neighbours of the
 * first and last site are handled outside the loops.
 *
 * The helpers that take forcing pointers are always inlined, so the loops
 * are compiled once with the pointers NULL and once without, and the
 * unforced step tests no pointer per site.
 *
 * lcd_step returns the first site whose new u or v has a non-finite part
 * (NaN or +-inf), or -1: the blow-up verdict, so the caller scans no level
 * again. Once a block is written, one more loop ORs the exponent fields of
 * its values, each plus one, which sets the sign bit only for an exponent
 * of all ones; only a block with that bit set is scanned site by site, and
 * only the first such block. The check reads the stores and changes none.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))
#define BLOCK 256

typedef struct { double re, im; } cplx;

typedef struct { double h, hh, m, alpha, tb; } params; /* tb = 2 beta, hh = h / 2 */

static const cplx zero = {0.0, 0.0};

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
INLINE cplx source(cplx p, cplx q, const params *k, const cplx *f)
{
    double q2 = q.re * q.re + q.im * q.im;
    double s = 2.0 * (p.re * q.re + p.im * q.im);
    cplx n = add(rmul(q2, rmul(k->alpha, p)), rmul(k->tb * s, q));
    cplx mq = rmul(k->m, q);
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
                 ptrdiff_t i, const params *k, cplx *uh, cplx *vh)
{
    *uh = add(u[i], rmul(k->hh, source(u[i], v[i], k, at(fu, i))));
    *vh = add(v[i], rmul(k->hh, source(v[i], u[i], k, at(fv, i))));
}

/* un_i = u_{i-1} + h f_u(uh_{i-1}, vh_i), vn_i = v_{i+1} + h f_v(uh_i, vh_{i+1});
 * uh and vh point at the stages of site i - 1 */
INLINE void update(cplx u_left, cplx v_right, const cplx *uh, const cplx *vh,
                   const cplx *f2, const cplx *f3, ptrdiff_t i, const params *k,
                   cplx *un, cplx *vn)
{
    un[i] = add(u_left, rmul(k->h, source(uh[0], vh[1], k, at(f2, i))));
    vn[i] = add(v_right, rmul(k->h, source(vh[2], uh[1], k, at(f3, i))));
}

#define EXPONENT UINT64_C(0x7ff0000000000000)
#define EXPONENT_ONE UINT64_C(0x0010000000000000)

/* The exponent field of x plus one: the sign bit is set when, and only
 * when, all eleven exponent bits of x are ones, that is x is NaN or +-inf. */
static inline uint64_t carry(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return (b & EXPONENT) + EXPONENT_ONE;
}

/* The first site of [lo, hi) with a non-finite part in un or vn, or -1. */
static ptrdiff_t first_bad(const cplx *un, const cplx *vn, ptrdiff_t lo, ptrdiff_t hi)
{
    const double *a = &un[lo].re, *b = &vn[lo].re;
    ptrdiff_t i, len = 2 * (hi - lo);
    uint64_t flag = 0;

    for (i = 0; i < len; i++) /* no branch, so the loop is vectorised */
        flag |= carry(a[i]) | carry(b[i]);
    if (!(flag >> 63))
        return -1;
    for (i = lo; i < hi; i++)
        if ((carry(un[i].re) | carry(un[i].im) | carry(vn[i].re) | carry(vn[i].im)) >> 63)
            return i;
    return -1;
}

/* Neighbours past either end wrap (periodic) or are zero (zero inflow).
 * f[0], f[1]: F1 and F2 at (x_i, t); f[2]: F1 at (x_i - h/2, t + h/2);
 * f[3]: F2 at (x_i + h/2, t + h/2); all NULL for the unforced step.
 * Returns the first site of un or vn with a non-finite part, or -1. */
INLINE ptrdiff_t step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t n,
                      const params *k, int periodic,
                      const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    cplx uh[BLOCK + 2], vh[BLOCK + 2]; /* entry j: the stages of site lo - 1 + j */
    cplx uh_first = zero, vh_first = zero, uh_last = zero, vh_last = zero;
    const cplx u_edge = periodic ? u[n - 1] : zero, v_edge = periodic ? v[0] : zero;
    ptrdiff_t lo, hi, i, j, bad = -1;

    if (periodic) { /* the stages that wrap: of site 0 past the end, of site n - 1 before 0 */
        half(u, v, f0, f1, 0, k, &uh_first, &vh_first);
        half(u, v, f0, f1, n - 1, k, &uh_last, &vh_last);
    }
    for (lo = 0; lo < n; lo = hi) {
        hi = n - lo > BLOCK ? lo + BLOCK : n;
        for (j = 1; j <= hi - lo; j++)
            half(u, v, f0, f1, lo - 1 + j, k, &uh[j], &vh[j]);
        if (lo > 0)
            half(u, v, f0, f1, lo - 1, k, &uh[0], &vh[0]);
        else
            uh[0] = uh_last, vh[0] = vh_last;
        if (hi < n)
            half(u, v, f0, f1, hi, k, &uh[hi - lo + 1], &vh[hi - lo + 1]);
        else
            uh[hi - lo + 1] = uh_first, vh[hi - lo + 1] = vh_first;

        for (i = lo > 0 ? lo : 1; i < (hi < n ? hi : n - 1); i++)
            update(u[i - 1], v[i + 1], uh + (i - lo), vh + (i - lo), f2, f3, i, k, un, vn);
        if (lo == 0)
            update(u_edge, n > 1 ? v[1] : v_edge, uh, vh, f2, f3, 0, k, un, vn);
        if (hi == n && n > 1)
            update(u[n - 2], v_edge, uh + (n - 1 - lo), vh + (n - 1 - lo), f2, f3, n - 1, k, un, vn);
        if (bad < 0) /* sites [lo, hi) are written */
            bad = first_bad(un, vn, lo, hi);
    }
    return bad;
}

/* un and vn must not overlap u, v or the forcing samples; f0 NULL means
 * no forcing, and then f1..f3 are not read. Returns the first site where
 * un or vn is not finite, or -1. */
ptrdiff_t lcd_step(const cplx *restrict u, const cplx *restrict v, cplx *restrict un,
                   cplx *restrict vn, ptrdiff_t n, double h, double m, double alpha,
                   double beta, int periodic, const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    const params k = {h, 0.5 * h, m, alpha, 2.0 * beta};

    if (n <= 0)
        return -1;
    if (f0)
        return step(u, v, un, vn, n, &k, periodic, f0, f1, f2, f3);
    return step(u, v, un, vn, n, &k, periodic, NULL, NULL, NULL, NULL);
}
