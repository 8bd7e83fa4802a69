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
 * Extents. Site i of the new level reads only sites i - 1, i and i + 1 of
 * the old one: the lattice light cone. A LevelPool keeps, for each row, an
 * extent {first, end}: the sites [first, end) ({0, 0} for none, {0, n} for
 * the whole row), outside which every bit of u and v is +0.0. A site whose
 * three input sites are all +0.0 steps to +0.0 (each stage and update adds
 * a signed zero to +0.0, for finite parameters), so the unforced step of a
 * row computes only its extent widened by one site per side, clipped at a
 * zero-inflow edge, and the new level is +0.0 elsewhere. On a periodic grid
 * an extent that reaches site 0 or site n - 1 would widen across the seam,
 * so the whole row is stepped. The output row held another run's older
 * level (a pool's slots alternate runs), so the step stores +0.0 over the
 * part of that level's extent outside the new one, then records the new
 * extent. Compactly supported data stay within their light cone, so while
 * their support is small most sites are neither read nor written. Without
 * extents (fresh arrays), with forcing, or where a zero site would not
 * stay +0.0, every site is stepped.
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

/* Neighbours past either end wrap (periodic) or are zero (zero inflow).
 * f[0], f[1]: F1 and F2 at (x_i, t); f[2]: F1 at (x_i - h/2, t + h/2);
 * f[3]: F2 at (x_i + h/2, t + h/2); all NULL for the unforced step.
 * Writes sites [from, to) of un and vn and returns the first of them with a
 * non-finite part, or -1. */
INLINE ptrdiff_t step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t n,
                      const params *k, int periodic, ptrdiff_t from, ptrdiff_t to,
                      const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    stages s; /* entry j: the stages of site lo - 1 + j */
    const cplx zero = {0.0, 0.0};
    const cplx u_edge = periodic ? u[n - 1] : zero, v_edge = periodic ? v[0] : zero;
    ptrdiff_t lo, hi, i, j, bad = -1;

    for (lo = from; lo < to; lo = hi) {
        hi = to - lo > BLOCK ? lo + BLOCK : to;
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

/* step over sites [from, to) of one row, whose output never overlaps its
 * input: restrict holds for a row, though not across the rows of a
 * LevelPool's generations. */
static ptrdiff_t step_span(const cplx *restrict u, const cplx *restrict v, cplx *restrict un,
                           cplx *restrict vn, ptrdiff_t n, const params *k, int periodic,
                           ptrdiff_t from, ptrdiff_t to,
                           const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    if (f0)
        return step(u, v, un, vn, n, k, periodic, from, to, f0, f1, f2, f3);
    return step(u, v, un, vn, n, k, periodic, from, to, NULL, NULL, NULL, NULL);
}

/* Whether the stages and the new (u, v) of a site whose three input sites
 * are all +0.0 are +0.0 in every part, as they are for finite h, m, alpha
 * and beta: each stage and update then adds a signed zero to +0.0. Only
 * then are the sites outside a widened extent, and a zero-inflow edge's
 * literal +0.0 neighbour and stage, what stepping them would give. */
static int zeros_stay_zero(const params *k)
{
    static const cplx zero[1];
    stages s;
    cplx w[2];
    uint64_t b, any = 0;
    int j;

    for (j = 0; j < 3; j++)
        half(zero, zero, NULL, NULL, 0, k, &s, j);
    update(zero[0], zero[0], &s, 0, NULL, NULL, 0, k, &w[0], &w[1]);
    const double parts[] = {s.ur[0], s.ui[0], s.vr[0], s.vi[0], w[0].re, w[0].im, w[1].re, w[1].im};
    for (j = 0; j < 8; j++) {
        memcpy(&b, &parts[j], sizeof b);
        any |= b;
    }
    return !any;
}

/* Store +0.0 over sites [lo, hi) of un and vn. */
static void zero_sites(cplx *un, cplx *vn, ptrdiff_t lo, ptrdiff_t hi)
{
    for (; lo < hi; lo++)
        un[lo] = vn[lo] = (cplx){0.0, 0.0};
}

/* One row. With in, the row's input extent, it steps only the sites the
 * extent reaches: the extent widened by one site per side, clipped at a
 * zero-inflow edge; on a periodic grid, an extent that reaches either end
 * widens past it, so the whole row is stepped. out is the output row's
 * extent, that of the older level it holds: every site there outside the
 * new extent is set to +0.0, and out becomes the new extent. Without in the
 * row is stepped whole, and out, if given, becomes the whole row. */
static ptrdiff_t step_row(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t n, const params *k,
                          int periodic, const ptrdiff_t *in, ptrdiff_t *out,
                          const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    ptrdiff_t first = 0, end = n;

    if (in) {
        first = in[0], end = in[1];
        if (first < end && periodic && (first == 0 || end == n))
            first = 0, end = n;
        else if (first < end)
            first -= first > 0, end += end < n;
        zero_sites(un, vn, out[0], out[1] < first ? out[1] : first);
        zero_sites(un, vn, out[0] > end ? out[0] : end, out[1]);
    }
    if (out)
        out[0] = first, out[1] = end;
    return step_span(u, v, un, vn, n, k, periodic, first, end, f0, f1, f2, f3);
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
 *
 * in_ext and out_ext, NULL or not together, hold the rows' extents, two
 * values a row: row r's input extent from in_ext[2 r], and the extent of
 * the level row r of un and vn holds until this step, replaced by the new
 * one, from out_ext[2 r] (step_row). The extents of a row's input and
 * output may lie on another row's, as its fields do. They are used only for
 * an unforced step with zeros_stay_zero; otherwise every row is stepped
 * whole and its output extent set to the whole row.
 *
 * Returns r * n + i for the first site i of the first row r where un or vn
 * is not finite, or -1. Stepping first to last stops at that row, leaving
 * the rows after it, and their extents, unwritten; stepping last to first
 * steps every row, since a row stepped later may be the first bad one. */
ptrdiff_t lcd_step(const cplx *u, const cplx *v, cplx *un, cplx *vn, ptrdiff_t runs, ptrdiff_t stride,
                   ptrdiff_t out_stride, ptrdiff_t n, const ptrdiff_t *in_ext, ptrdiff_t *out_ext,
                   double h, double m, double alpha, double beta, int periodic,
                   const cplx *f0, const cplx *f1, const cplx *f2, const cplx *f3)
{
    const params k = {h, 0.5 * h, m, alpha, 2.0 * beta};
    const int backward = (uintptr_t)un > (uintptr_t)u;
    ptrdiff_t i, r, bad, first = -1;

    if (n <= 0)
        return -1;
    if (f0 || !zeros_stay_zero(&k))
        in_ext = NULL;
    for (i = 0; i < runs; i++) {
        r = backward ? runs - 1 - i : i;
        bad = step_row(u + r * stride, v + r * stride, un + r * out_stride, vn + r * out_stride, n, &k, periodic,
                       in_ext ? in_ext + 2 * r : NULL, out_ext ? out_ext + 2 * r : NULL, f0, f1, f2, f3);
        if (bad >= 0 && !backward)
            return r * n + bad;
        if (bad >= 0)
            first = r * n + bad;
    }
    return first;
}
