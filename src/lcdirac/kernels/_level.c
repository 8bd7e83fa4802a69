/* The elementwise terms of one audited level, and of the distances of two
 * runs, and their sums; see level_terms and distance_sums in
 * kernels/pure.py, the NumPy code this reproduces bit for bit. Each sum is
 * np.add.reduce's, in NumPy's pairwise order (add_reduce below, pinned
 * against NumPy by tests/test_kernels.py), and each scan is np.cumsum's
 * sequential one. Build with -ffp-contract=off and never with -ffast-math:
 * no multiply-add may be fused, no sum reassociated, and the NaN tests must
 * survive.
 *
 * With au = |u|^2, av = |v|^2 and the section [i0, i1):
 *   au, av, dens = au + av                  run A over the grid, run B over
 *                                           the section
 *   prod = au av, q = au suffix(av)         each run over the section
 * and for the pair (U = uA - uB, V = vA - vB, umod = auA + auB,
 * vmod = avA + avB), over the section:
 *   l1 = |U|^2 + |V|^2, d1 = |U|^2 vmod + umod |V|^2,
 *   q1u = |U|^2 suffix(vmod), q1v = umod suffix(|V|^2)
 * where suffix(b)_i = sum_{j > i} b_j, accumulated from the right as
 * q_upper's reversed cumsum does.
 *
 * Then the sums row: run A's dens over the grid; per run, the section's
 * sums of dens, prod and q; for the pair, of l1, d1, q1u and q1v. The sums
 * of q, q1u and q1v are 0.0 below two sites, where q_upper is 0.
 *
 * With with_margins set, also run A's prefix sums over the grid and the growth
 * margins against the level at t = 0 (kshift sites back along each
 * characteristic): the pointwise margins of |u|^2 and |v|^2 and the margin
 * over every dyadic window, widths 2, 4, ... up to the section, stride half
 * a width, width-major. Each margin is kept with its site as np.argmax picks
 * it: the first NaN, else the first strict maximum; -inf and site -1 when
 * there is no candidate. The caller checks that the feet i0 - kshift and
 * i1 + kshift lie on the grid.
 *
 * lcd_distance_sums sums, for each pair of runs of one level, l1 as above
 * and p1 = |uA vA - uB vB|^2 over the whole grid, each complex product in
 * real arithmetic: four products and two sums. The terms are never stored
 * past their pairwise-sum leaf: every pair's terms of each leaf of at most
 * 128 sites are written into stack scratch and summed there, in
 * add_reduce's order, so the sums are np.add.reduce's of the term arrays
 * pure.distance_sums writes. The leaves are taken in turn and the pairs
 * within each, so a run that is one pair's run B and the next pair's run A
 * (converge's consecutive pairs) has its product u v formed once a leaf.
 * Each field may come with its LevelPool row's extent (see _step.c),
 * outside which every bit is +0.0: a leaf that meets none of a pair's four
 * extents has only +0.0 terms, whose sum is +0.0, so it is skipped and its
 * sums set to +0.0, which keeps every bit.
 */
#include <math.h>
#include <stddef.h>

typedef struct { double re, im; } cplx;

/* Mirrored field by field by kernels.LevelTerms. runs x n arrays are row
 * major; pre_* and the prefix sums at t = 0 hold n + 1 values; sums holds
 * 4 values for one run, 11 for two. */
typedef struct {
    ptrdiff_t n, runs;
    double dx, m, C0;
    double *au, *av, *dens, *prod, *q;
    double *l1, *d1, *q1u, *q1v;
    double *pre_u, *pre_v;
    const double *au0, *av0, *pre_u0, *pre_v0;
    double *margins;
    ptrdiff_t *sites;
    double *sums;
} lcd_level;

static double abs2(cplx z)
{
    return z.re * z.re + z.im * z.im;
}

/* NumPy's pairwise sum of n contiguous doubles: below 8 terms in order;
 * up to 128, eight interleaved partial sums, combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail in
 * order; above 128, the sums of two halves split at n / 2 rounded down to
 * a multiple of 8. */
static double pairwise(const double *a, ptrdiff_t n)
{
    double r[8], s;
    ptrdiff_t i, j, n2;

    if (n < 8) {
        s = 0.0;
        for (i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.add.reduce(a[:n]): NumPy's identity +0.0 plus the pairwise sum, so a
 * sum of negative zeros is +0.0 */
static double add_reduce(const double *a, ptrdiff_t n)
{
    return 0.0 + pairwise(a, n);
}

/* add_reduce for the tests that pin NumPy's order on any doubles, also
 * those no term takes (negatives, -inf, negative zeros) */
double lcd_add_reduce(const double *a, ptrdiff_t n)
{
    return add_reduce(a, n);
}

/* the sum of a_i suffix(b)_i over n sites: q_upper, 0.0 below two sites */
static double upper_sum(const double *terms, ptrdiff_t n)
{
    return n < 2 ? 0.0 : add_reduce(terms, n);
}

/* np.argmax's pick, one candidate at a time; *at < 0 before the first.
 * !(x <= best): x is larger or NaN; once best is NaN it stays. */
static void pick(double x, ptrdiff_t i, double *best, ptrdiff_t *at)
{
    if (*at < 0 || (!(x <= *best) && *best == *best)) {
        *best = x;
        *at = i;
    }
}

/* np.maximum: a NaN in either argument wins, and b on a tie. a > b ? a : b
 * is the maxsd instruction's rule, so it compiles without a branch on which
 * side is larger; only a NaN in a (rare, so predicted) takes the branch. */
static double maximum(double a, double b)
{
    double m = a > b ? a : b;
    return a != a ? a : m;
}

static void densities(const cplx *restrict u, const cplx *restrict v, double *restrict au,
                      double *restrict av, double *restrict dens, ptrdiff_t i0, ptrdiff_t i1)
{
    ptrdiff_t i;

    for (i = i0; i < i1; i++) {
        au[i] = abs2(u[i]);
        av[i] = abs2(v[i]);
        dens[i] = au[i] + av[i];
    }
}

/* a_i suffix(b)_i for i in [i0, i1) */
static void upper_terms(const double *a, const double *b, double *out, ptrdiff_t i0, ptrdiff_t i1)
{
    double s;
    ptrdiff_t i;

    if (i1 - i0 < 1)
        return;
    out[i1 - 1] = a[i1 - 1] * 0.0;
    if (i1 - i0 < 2)
        return;
    s = b[i1 - 1];
    out[i1 - 2] = a[i1 - 2] * s;
    for (i = i1 - 3; i >= i0; i--) {
        s = s + b[i + 1];
        out[i] = a[i] * s;
    }
}

/* the prefix sums of a and b, one loop for two independent chains */
static void prefix2(const double *a, const double *b, double *pa, double *pb, ptrdiff_t n)
{
    double sa = a[0], sb = b[0];
    ptrdiff_t i;

    pa[0] = pb[0] = 0.0;
    pa[1] = sa;
    pb[1] = sb;
    for (i = 1; i < n; i++) {
        pa[i + 1] = sa = sa + a[i];
        pb[i + 1] = sb = sb + b[i];
    }
}

static void pair_terms(const lcd_level *L, const cplx *ua, const cplx *va, const cplx *ub,
                       const cplx *vb, ptrdiff_t i0, ptrdiff_t i1)
{
    const double *auA = L->au, *avA = L->av, *auB = L->au + L->n, *avB = L->av + L->n;
    double su = 0.0, sv = 0.0; /* suffix(vmod)_i and suffix(|V|^2)_i */
    ptrdiff_t i;

    for (i = i1 - 1; i >= i0; i--) {
        cplx U = {ua[i].re - ub[i].re, ua[i].im - ub[i].im};
        cplx V = {va[i].re - vb[i].re, va[i].im - vb[i].im};
        double aU2 = abs2(U), aV2 = abs2(V);
        double umod = auA[i] + auB[i], vmod = avA[i] + avB[i];

        L->l1[i] = aU2 + aV2;
        L->d1[i] = aU2 * vmod + umod * aV2;
        L->q1u[i] = aU2 * su;
        L->q1v[i] = umod * sv;
        su = i == i1 - 1 ? vmod : su + vmod;
        sv = i == i1 - 1 ? aV2 : sv + aV2;
    }
}

/* the sums row; see the header */
static void level_sums(const lcd_level *L, ptrdiff_t i0, ptrdiff_t i1)
{
    const ptrdiff_t n = L->n, len = i1 - i0;
    double *sums = L->sums;
    ptrdiff_t r;

    *sums++ = add_reduce(L->dens, n);
    for (r = 0; r < L->runs; r++) {
        *sums++ = add_reduce(L->dens + r * n + i0, len);
        *sums++ = add_reduce(L->prod + r * n + i0, len);
        *sums++ = upper_sum(L->q + r * n + i0, len);
    }
    if (L->runs == 2) {
        *sums++ = add_reduce(L->l1 + i0, len);
        *sums++ = add_reduce(L->d1 + i0, len);
        *sums++ = upper_sum(L->q1u + i0, len);
        *sums = upper_sum(L->q1v + i0, len);
    }
}

#define CHUNK 16 /* pointwise candidates tested at once for a new best */

/* pick over the pointwise candidates a_i - E (a0_{i + shift} + mC0), i in
 * [i0, i1) (shift reaches the feet), one chunk at a time: the candidates of a
 * chunk are formed and tested against the best so far in one vectorisable
 * loop, and only a chunk with one that pick would take (a larger one or a
 * NaN, while the best is no NaN; any, before the first) is picked from one
 * candidate at a time, so the pick is np.argmax's */
static void pointwise_picks(const double *a, const double *a0, ptrdiff_t shift, double E, double mC0,
                            ptrdiff_t i0, ptrdiff_t i1, double *best, ptrdiff_t *at)
{
    double x[CHUNK];
    ptrdiff_t lo, len, j;

    for (lo = i0; lo < i1; lo += CHUNK) {
        const double b = *best;
        int hit = *at < 0;

        len = i1 - lo < CHUNK ? i1 - lo : CHUNK;
        for (j = 0; j < len; j++) {
            x[j] = a[lo + j] - E * (a0[lo + j + shift] + mC0);
            hit |= !(x[j] <= b);
        }
        if (hit && b == b)
            for (j = 0; j < len; j++)
                pick(x[j], lo + j, best, at);
    }
}

static void growth_margins(const lcd_level *L, ptrdiff_t i0, ptrdiff_t i1, ptrdiff_t kshift, double E)
{
    const double *au = L->au, *av = L->av, *pre_u = L->pre_u, *pre_v = L->pre_v;
    const double *au0 = L->au0, *av0 = L->av0, *pre_u0 = L->pre_u0, *pre_v0 = L->pre_v0;
    const double dx = L->dx, mC0 = L->m * L->C0, emc = E * L->m * L->C0;
    double best[3] = {-HUGE_VAL, -HUGE_VAL, -HUGE_VAL};
    ptrdiff_t at[3] = {-1, -1, -1}, i, s, w;

    prefix2(au, av, L->pre_u, L->pre_v, L->n);
    pointwise_picks(au, au0, -kshift, E, mC0, i0, i1, &best[0], &at[0]);
    pointwise_picks(av, av0, kshift, E, mC0, i0, i1, &best[1], &at[1]);
    for (w = 2; w <= i1 - i0; w *= 2) {
        const double slack = emc * ((double)w * dx);
        for (s = i0; s + w <= i1; s += w / 2) {
            double su_t = (pre_u[s + w] - pre_u[s]) * dx;
            double sv_t = (pre_v[s + w] - pre_v[s]) * dx;
            double su_0 = (pre_u0[s - kshift + w] - pre_u0[s - kshift]) * dx;
            double sv_0 = (pre_v0[s + kshift + w] - pre_v0[s + kshift]) * dx;
            pick(maximum(su_t - E * su_0, sv_t - E * sv_0) - slack, s, &best[2], &at[2]);
        }
    }
    for (i = 0; i < 3; i++) {
        L->margins[i] = best[i];
        L->sites[i] = at[i];
    }
}

/* Runs A and B, n sites each (ub and vb NULL for one run); 0 <= i0 <= i1 <= n.
 * With with_margins, au0 and the other arrays at t = 0 are set and the feet
 * lie on the grid. */
void lcd_level_terms(const lcd_level *L, const cplx *ua, const cplx *va, const cplx *ub,
                     const cplx *vb, ptrdiff_t i0, ptrdiff_t i1, ptrdiff_t kshift,
                     int with_margins, double E)
{
    const cplx *const u[2] = {ua, ub}, *const v[2] = {va, vb};
    const ptrdiff_t n = L->n;
    ptrdiff_t r, i;

    for (r = 0; r < L->runs; r++) {
        double *au = L->au + r * n, *av = L->av + r * n, *prod = L->prod + r * n;

        /* run B's densities are read over the section only */
        densities(u[r], v[r], au, av, L->dens + r * n, r == 0 ? 0 : i0, r == 0 ? n : i1);
        for (i = i0; i < i1; i++)
            prod[i] = au[i] * av[i];
        upper_terms(au, av, L->q + r * n, i0, i1);
    }
    if (L->runs == 2)
        pair_terms(L, ua, va, ub, vb, i0, i1);
    level_sums(L, i0, i1);
    if (with_margins) {
        growth_margins(L, i0, i1, kshift, E);
        return;
    }
    for (i = 0; i < 3; i++) {
        L->margins[i] = -HUGE_VAL;
        L->sites[i] = -1;
    }
}

static cplx cmul(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

#define LEAF 128 /* the longest run pairwise sums without splitting it */

/* One level of runs and the pairs whose distances lcd_distance_sums takes:
 * rows[2 r] and rows[2 r + 1] are u and v of run r, with their
 * extents ext[2 r] and ext[2 r + 1] (NULL: the whole row), and pairs holds
 * npairs (A, B) run indices. */
typedef struct {
    const cplx *const *rows;
    const ptrdiff_t *const *ext;
    const ptrdiff_t *pairs;
    ptrdiff_t npairs;
} distances;

/* Whether field f's extent, the sites [e[0], e[1]), meets the sites [lo, hi) */
static int meets(const distances *D, ptrdiff_t f, ptrdiff_t lo, ptrdiff_t hi)
{
    const ptrdiff_t *e = D->ext[f];

    return !e || (e[0] < hi && e[1] > lo);
}

/* l1 and p1 of the runs A and B over len <= LEAF sites. Run B's product
 * u v is formed and kept in pb_re and pb_im; run A's is read from pa_re and
 * pa_im where they are given (the previous pair's run B is this pair's run
 * A), else formed. The products are kept as real and imaginary parts apart:
 * as complex values GCC's vectoriser finds a complex multiply and fuses it
 * into vfmaddsub, even under -ffp-contract=off. */
static void distance_terms(const cplx *restrict ua, const cplx *restrict va, const cplx *restrict ub,
                           const cplx *restrict vb, const double *restrict pa_re,
                           const double *restrict pa_im, double *restrict pb_re, double *restrict pb_im,
                           ptrdiff_t len, double *restrict l1, double *restrict p1)
{
    ptrdiff_t i;

    if (pa_re)
        for (i = 0; i < len; i++) {
            cplx U = {ua[i].re - ub[i].re, ua[i].im - ub[i].im};
            cplx V = {va[i].re - vb[i].re, va[i].im - vb[i].im};
            cplx pb = cmul(ub[i], vb[i]);
            cplx d = {pa_re[i] - pb.re, pa_im[i] - pb.im};

            pb_re[i] = pb.re;
            pb_im[i] = pb.im;
            l1[i] = abs2(U) + abs2(V);
            p1[i] = abs2(d);
        }
    else
        for (i = 0; i < len; i++) {
            cplx U = {ua[i].re - ub[i].re, ua[i].im - ub[i].im};
            cplx V = {va[i].re - vb[i].re, va[i].im - vb[i].im};
            cplx pa = cmul(ua[i], va[i]), pb = cmul(ub[i], vb[i]);
            cplx d = {pa.re - pb.re, pa.im - pb.im};

            pb_re[i] = pb.re;
            pb_im[i] = pb.im;
            l1[i] = abs2(U) + abs2(V);
            p1[i] = abs2(d);
        }
}

/* the sums of l1 and p1 of every pair k over the len <= LEAF sites from lo,
 * into out[2 k] and out[2 k + 1]: each pair's terms are written into stack
 * scratch and summed there in add_reduce's order; a run that is one pair's
 * run B and the next pair's run A has its product formed once, unless the
 * previous pair skipped the leaf, which no extent of its runs meets */
static void distance_leaf(const distances *D, ptrdiff_t lo, ptrdiff_t len, double *out)
{
    const cplx *const *rows = D->rows;
    double l1[LEAF], p1[LEAF], prod[2][2][LEAF]; /* the last two pairs' run B products */
    ptrdiff_t k;
    int formed = 0; /* whether the previous pair formed its run B product */

    for (k = 0; k < D->npairs; k++) {
        const ptrdiff_t a = D->pairs[2 * k], b = D->pairs[2 * k + 1];
        double(*kept)[LEAF] = prod[(k + 1) % 2], (*made)[LEAF] = prod[k % 2];
        const int reuse = formed && a == D->pairs[2 * k - 1];

        formed = meets(D, 2 * a, lo, lo + len) || meets(D, 2 * a + 1, lo, lo + len)
                 || meets(D, 2 * b, lo, lo + len) || meets(D, 2 * b + 1, lo, lo + len);
        if (!formed) {
            out[2 * k] = out[2 * k + 1] = 0.0;
            continue;
        }

        distance_terms(rows[2 * a] + lo, rows[2 * a + 1] + lo, rows[2 * b] + lo, rows[2 * b + 1] + lo,
                       reuse ? kept[0] : NULL, reuse ? kept[1] : NULL, made[0], made[1], len, l1, p1);
        out[2 * k] = pairwise(l1, len);
        out[2 * k + 1] = pairwise(p1, len);
    }
}

/* the sums of every pair over the len sites from lo, split as pairwise
 * splits them, into out[0 .. 2 npairs); the right half's sums go into the
 * next 2 npairs values, so each depth of the split takes one such slot */
static void distance_pairwise(const distances *D, ptrdiff_t lo, ptrdiff_t len, double *out)
{
    double *right = out + 2 * D->npairs;
    ptrdiff_t n2, k;

    if (len <= LEAF) {
        distance_leaf(D, lo, len, out);
        return;
    }
    n2 = len / 2;
    n2 -= n2 % 8;
    distance_pairwise(D, lo, n2, out);
    distance_pairwise(D, lo + n2, len - n2, right);
    for (k = 0; k < 2 * D->npairs; k++)
        out[k] = out[k] + right[k];
}

/* rows[2 r] and rows[2 r + 1] are u and v of run r, n sites each, and
 * ext[2 r] and ext[2 r + 1] their extents or NULL; pairs holds npairs
 * (A, B) run indices. Writes sums[2 k] and sums[2 k + 1], the
 * sums of l1 and p1 of pair k over the grid. partial holds 128 npairs
 * doubles: a slot of every pair's partial sums for each of at most 64
 * depths of the split, which leaves at most n / 2^d + 16 sites at depth d. */
void lcd_distance_sums(const cplx *const *rows, const ptrdiff_t *const *ext, const ptrdiff_t *pairs,
                       ptrdiff_t npairs, ptrdiff_t n, double *sums, double *partial)
{
    const distances D = {rows, ext, pairs, npairs};
    ptrdiff_t k;

    if (n > 0)
        distance_pairwise(&D, 0, n, partial);
    for (k = 0; k < 2 * npairs; k++) /* add_reduce: NumPy's identity, then the pairwise sum */
        sums[k] = 0.0 + (n > 0 ? partial[k] : 0.0);
}
