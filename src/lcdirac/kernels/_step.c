/* One light-cone step in plain real arithmetic, with optional forcing; see
 * kernels/pure.py for the scheme. Each stage and update is one complex
 * multiply-add, z + c i d, written out in real and imaginary parts by
 * advance below; pure.py applies the same advance, operation for
 * operation, to NumPy arrays, so both backends give the same bits, signed
 * zeros included. Build with -ffp-contract=off and never with -ffast-math:
 * no multiply-add may be fused and no operation reordered.
 *
 * The step runs in blocks of BLOCK sites, two passes each: the half-step
 * stages of the block and of one site on either side go into four stack
 * arrays, the real and imaginary parts of uh and of vh, then the block's
 * updates read them. Neither inner loop carries a value from one site to the
 * next or branches, so at -O3 the compiler vectorises both, one site per
 * SIMD lane: only the loads of u, v and the forcing and the stores of un and
 * vn interleave real and imaginary parts. Each lane does the same IEEE
 * operations as the scalar code. The wrap (periodic) or zero (zero inflow)
 * stages past the first and last site are set outside the loops.
 *
 * Zero windows. Site i of the new level reads only sites i - 1, i and
 * i + 1 of the old one: the lattice light cone. So a block [lo, hi) reads
 * u and v only over sites lo - 1 ... hi (wrapped on a periodic grid), and
 * where every bit there is zero, every site of the block does the same IEEE
 * operations on the same +0.0 operands and gets the same bits. The
 * unforced step then computes one site of such a block through half and
 * update, stores its (un, vn) across the block, and checks that one site
 * for the verdict. A block with a -0.0 or any other nonzero word in its
 * window takes the normal path. The scan tests the window's first word
 * alone, so a dense block pays one load and one branch for it, and stops
 * at the first chunk of words that holds a nonzero one. Compactly
 * supported data stay +0.0 outside their light cone (each stage and update
 * of +0.0 data adds a signed zero to +0.0, which gives +0.0), so while the
 * support is small most blocks are stepped this way. Edge blocks under
 * zero inflow always take the normal path: their outer neighbours and
 * stages are literal +0.0, not sites of the grid, so the argument above
 * does not cover them.
 *
 * The helpers that take forcing pointers are always inlined, so the loops
 * are compiled once with the pointers NULL and once without, and the
 * unforced step tests no pointer per site.
 *
 * lcd_step steps a batch of rows, the runs of one lockstep level, each
 * with the same step, and returns the first site whose new u or v has a
 * non-finite part (NaN or +-inf), as a flat index over the rows, or -1:
 * the blow-up verdict, so the caller scans no level again. Once a block is
 * written, one more loop ORs the exponent fields of its values, each plus
 * one, which sets the sign bit only for an exponent of all ones; only a
 * block with that bit set is scanned site by site, and only the first such
 * block. The check reads the stores and changes none.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))
#define BLOCK 256

typedef struct { double re, im; } cplx;

typedef struct { double h, hh, m, alpha, tb; } params; /* tb = 2 beta, hh = h / 2 */

typedef struct { double ur[BLOCK + 2], ui[BLOCK + 2], vr[BLOCK + 2], vi[BLOCK + 2]; } stages;

/* (wr, wi) = z + c i d,  d = m q - (alpha |q|^2 p + 2 beta s q) + f,
 * s = 2 Re(p conj q); the forcing sample f is skipped when NULL */
INLINE void advance(cplx z, double c, double pr, double pi, double qr, double qi,
                    const params *k, const cplx *f, double *wr, double *wi)
{
    double q2 = qr * qr + qi * qi;
    double tbs = k->tb * (2.0 * (pr * qr + pi * qi));
    double dr = k->m * qr - (q2 * (k->alpha * pr) + tbs * qr);
    double di = k->m * qi - (q2 * (k->alpha * pi) + tbs * qi);
    if (f)
        dr = dr + f->re, di = di + f->im;
    *wr = z.re - c * di;
    *wi = z.im + c * dr;
}

INLINE const cplx *at(const cplx *f, ptrdiff_t i)
{
    return f ? f + i : NULL;
}

/* entry j of s: uh ~ u(x_i + h/2, t + h/2) and vh ~ v(x_i - h/2, t + h/2) */
INLINE void half(const cplx *u, const cplx *v, const cplx *fu, const cplx *fv,
                 ptrdiff_t i, const params *k, stages *s, ptrdiff_t j)
{
    advance(u[i], k->hh, u[i].re, u[i].im, v[i].re, v[i].im, k, at(fu, i), &s->ur[j], &s->ui[j]);
    advance(v[i], k->hh, v[i].re, v[i].im, u[i].re, u[i].im, k, at(fv, i), &s->vr[j], &s->vi[j]);
}

/* un_i = u_{i-1} + h f_u(uh_{i-1}, vh_i), vn_i = v_{i+1} + h f_v(uh_i, vh_{i+1});
 * entry j of s holds the stages of site i - 1 */
INLINE void update(cplx u_left, cplx v_right, const stages *s, ptrdiff_t j,
                   const cplx *f2, const cplx *f3, ptrdiff_t i, const params *k,
                   cplx *un, cplx *vn)
{
    advance(u_left, k->h, s->ur[j], s->ui[j], s->vr[j + 1], s->vi[j + 1], k, at(f2, i),
            &un[i].re, &un[i].im);
    advance(v_right, k->h, s->vr[j + 2], s->vi[j + 2], s->ur[j + 1], s->ui[j + 1], k, at(f3, i),
            &vn[i].re, &vn[i].im);
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

/* Whether every bit of the len doubles from p is zero. The first word is
 * tested alone, so a dense window costs one load and one branch; then the
 * words are ORed in chunks of ZERO_CHUNK, a loop the compiler vectorises,
 * with one branch per chunk. */
#define ZERO_CHUNK 32
static int zero_words(const double *p, ptrdiff_t len)
{
    ptrdiff_t i, j, end;
    uint64_t b, any;

    memcpy(&b, p, sizeof b);
    if (b)
        return 0;
    for (i = 1; i < len; i = end) {
        end = len - i > ZERO_CHUNK ? i + ZERO_CHUNK : len;
        for (any = 0, j = i; j < end; j++) {
            memcpy(&b, &p[j], sizeof b);
            any |= b;
        }
        if (any)
            return 0;
    }
    return 1;
}

/* Whether every bit of u and v is zero over sites lo - 1 ... hi, the
 * window that the updates of block [lo, hi) read, wrapped past either end
 * of the grid (the caller passes an edge block only on a periodic grid). */
static int zero_window(const cplx *u, const cplx *v, ptrdiff_t lo, ptrdiff_t hi, ptrdiff_t n)
{
    ptrdiff_t a = lo > 0 ? lo - 1 : 0, b = hi < n ? hi + 1 : n; /* the sites in [0, n) */

    return zero_words(&u[a].re, 2 * (b - a)) && zero_words(&v[a].re, 2 * (b - a))
        && (lo > 0 || (zero_words(&u[n - 1].re, 2) && zero_words(&v[n - 1].re, 2)))
        && (hi < n || (zero_words(&u[0].re, 2) && zero_words(&v[0].re, 2)));
}

/* Neighbours past either end wrap (periodic) or are zero (zero inflow).
 * f[0], f[1]: F1 and F2 at (x_i, t); f[2]: F1 at (x_i - h/2, t + h/2);
 * f[3]: F2 at (x_i + h/2, t + h/2); all NULL for the unforced step.
 * Returns the first site of un or vn with a non-finite part, or -1. */
INLINE ptrdiff_t step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t n,
                      const params *k, int periodic,
                      const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    stages s; /* entry j: the stages of site lo - 1 + j */
    const cplx zero = {0.0, 0.0};
    const cplx u_edge = periodic ? u[n - 1] : zero, v_edge = periodic ? v[0] : zero;
    ptrdiff_t lo, hi, i, j, bad = -1;

    for (lo = 0; lo < n; lo = hi) {
        hi = n - lo > BLOCK ? lo + BLOCK : n;
        if (!f0 && (periodic || (lo > 0 && hi < n)) && zero_window(u, v, lo, hi, n)) {
            for (j = 0; j < 3; j++) /* every stage of the window is site lo's */
                half(u, v, NULL, NULL, lo, k, &s, j);
            update(u[lo], v[lo], &s, 0, NULL, NULL, lo, k, un, vn);
            const cplx a = un[lo], b = vn[lo];
            for (i = lo + 1; i < hi; i++)
                un[i] = a, vn[i] = b;
            if (bad < 0)
                bad = first_bad(un, vn, lo, lo + 1);
            continue;
        }
        for (j = 1; j <= hi - lo; j++)
            half(u, v, f0, f1, lo - 1 + j, k, &s, j);
        if (lo > 0 || periodic) /* site n - 1 wraps to before site 0 */
            half(u, v, f0, f1, lo > 0 ? lo - 1 : n - 1, k, &s, 0);
        else
            s.ur[0] = s.ui[0] = s.vr[0] = s.vi[0] = 0.0;
        j = hi - lo + 1;
        if (hi < n || periodic) /* site 0 wraps to past site n - 1 */
            half(u, v, f0, f1, hi < n ? hi : 0, k, &s, j);
        else
            s.ur[j] = s.ui[j] = s.vr[j] = s.vi[j] = 0.0;

        for (i = lo > 0 ? lo : 1; i < (hi < n ? hi : n - 1); i++)
            update(u[i - 1], v[i + 1], &s, i - lo, f2, f3, i, k, un, vn);
        if (lo == 0)
            update(u_edge, n > 1 ? v[1] : v_edge, &s, 0, f2, f3, 0, k, un, vn);
        if (hi == n && n > 1)
            update(u[n - 2], v_edge, &s, n - 1 - lo, f2, f3, n - 1, k, un, vn);
        if (bad < 0) /* sites [lo, hi) are written */
            bad = first_bad(un, vn, lo, hi);
    }
    return bad;
}

/* One row, whose output never overlaps its input: restrict holds for a row,
 * though not across the rows of a LevelPool's generations. */
static ptrdiff_t step_row(const cplx *restrict u, const cplx *restrict v, cplx *restrict un,
                          cplx *restrict vn, ptrdiff_t n, const params *k, int periodic,
                          const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    if (f0)
        return step(u, v, un, vn, n, k, periodic, f0, f1, f2, f3);
    return step(u, v, un, vn, n, k, periodic, NULL, NULL, NULL, NULL);
}

/* runs rows of n sites each: row r of u and v starts r * stride sites
 * after u and v, and row r of un and vn r * out_stride sites after un and
 * vn. un and vn must not overlap the forcing samples, nor u and v except
 * where row r of un and vn lies on row r - 1 or r + 1 of u and v, as a
 * LevelPool's generations lie on each other. Like memmove, the rows are
 * stepped in the order that reads every input row before a store
 * overwrites it: first to last when un lies before u, else last to first.
 * f0 NULL means no forcing, and then f1..f3 are not read; the forcing
 * samples depend only on (x, t), so one set of n sites serves every row.
 * Returns r * n + i for the first site i of the first row r where un or vn
 * is not finite, or -1. Stepping first to last stops at that row, leaving
 * the rows after it unwritten; stepping last to first steps every row,
 * since a row stepped later may be the first bad one. */
ptrdiff_t lcd_step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t runs, ptrdiff_t stride,
                   ptrdiff_t out_stride, ptrdiff_t n, double h, double m, double alpha, double beta,
                   int periodic, const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    const params k = {h, 0.5 * h, m, alpha, 2.0 * beta};
    ptrdiff_t r, bad, first = -1;

    if (n <= 0)
        return -1;
    if ((uintptr_t)un > (uintptr_t)u) {
        for (r = runs - 1; r >= 0; r--) {
            bad = step_row(u + r * stride, v + r * stride, un + r * out_stride, vn + r * out_stride, n, &k,
                           periodic, f0, f1, f2, f3);
            if (bad >= 0)
                first = r * n + bad;
        }
        return first;
    }
    for (r = 0; r < runs; r++) {
        bad = step_row(u + r * stride, v + r * stride, un + r * out_stride, vn + r * out_stride, n, &k,
                       periodic, f0, f1, f2, f3);
        if (bad >= 0)
            return r * n + bad;
    }
    return -1;
}
