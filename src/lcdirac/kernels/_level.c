/* One audited level's sums, growth margins and edge densities, and the
 * distances of pairs of runs; see level_terms and distance_sums in
 * kernels/pure.py, the NumPy code this reproduces bit for bit. Each sum is
 * np.add.reduce's of the terms pure writes, in NumPy's pairwise order
 * (add_reduce below, pinned against NumPy by tests/test_kernels.py), and
 * each scan is np.cumsum's sequential one. Build with -ffp-contract=off and
 * never with -ffast-math: no multiply-add may be fused, no sum
 * reassociated, and the NaN tests must survive.
 *
 * With au = |u|^2, av = |v|^2 and the section [i0, i1), the terms are
 *   dens = au + av                          run A over the grid, each run
 *                                           over the section
 *   prod = au av, q = au suffix(av)         each run over the section
 * and for the pair (U = uA - uB, V = vA - vB, umod = auA + auB,
 * vmod = avA + avB), over the section:
 *   l1 = |U|^2 + |V|^2, d1 = |U|^2 vmod + umod |V|^2,
 *   q1u = |U|^2 suffix(vmod), q1v = umod suffix(|V|^2)
 * where suffix(b)_i = sum_{j > i} b_j, accumulated from the right as
 * q_upper's reversed cumsum does.
 *
 * lcd_level_terms stores no term. It writes one row: the sums (run A's
 * dens over the grid; per run, the section's sums of dens, prod and q; for
 * the pair, of l1, d1, q1u and q1v; those of q, q1u and q1v 0.0 below two
 * sites, where q_upper is 0), the three growth margins, their sites, and
 * run A's |u|^2 and |v|^2 at the triangle's edges. Two passes write it:
 *
 * - forward, over run A's grid in the leaves of NumPy's pairwise split of
 *   it (at most 128 sites): each leaf's densities go into stack scratch and
 *   are summed there; with margins, the prefix sums of au and av are
 *   carried up to i1 (the windows read them) and the pointwise margins are
 *   picked over the section;
 * - backward, over the section in the leaves of its own pairwise split,
 *   right to left: each site's u and v of each run are loaded once, every
 *   term of a leaf goes into stack scratch and is summed there, and the
 *   four suffix chains (run A's suffix(av), run B's, suffix(vmod) and
 *   suffix(|V|^2)) are carried from leaf to leaf.
 *
 * The growth margins, against the level at t = 0 (kshift sites back along
 * each characteristic), are those of |u|^2 and |v|^2 at each site and of
 * every dyadic window, widths 2, 4, ... up to the section, stride half a
 * width, width-major. Each is kept with its site as np.argmax picks it:
 * the first NaN, else the first strict maximum; -inf and site -1 when there
 * is no candidate. A width is skipped when no candidate of it can be
 * picked: see window_margins. The caller checks that the feet i0 - kshift
 * and i1 + kshift lie on the grid.
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

/* Mirrored field by field by kernels._Level. au0 and av0 (n values) and
 * the prefix sums at t = 0 (n + 1) are the origin's, NULL without one;
 * pre_u and pre_v (n + 1) are scratch for the level's prefix sums; ia and
 * ib are the triangle's edge sites, -1 without. row holds the sums (4
 * values for one run, 11 for two), then the three margins, their three
 * sites and the two edge densities. */
typedef struct {
    ptrdiff_t n, runs;
    double dx, m, C0;
    const double *au0, *av0, *pre_u0, *pre_v0;
    double *pre_u, *pre_v;
    ptrdiff_t ia, ib;
    double *row;
} lcd_level;

#define LEAF 128  /* the longest run pairwise sums without splitting it */
#define DEPTH 64  /* partial-sum slots: the split leaves n / 2^d + 16 sites at depth d */
#define SECTION 10 /* the section's sums: dens, prod and q per run, then l1, d1, q1u, q1v */

static double abs2(cplx z)
{
    return z.re * z.re + z.im * z.im;
}

/* where NumPy's pairwise sum splits n > LEAF terms: at n / 2 rounded down
 * to a multiple of 8 */
static ptrdiff_t split(ptrdiff_t n)
{
    return n / 2 - n / 2 % 8;
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
    if (n <= LEAF) {
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
    n2 = split(n);
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.add.reduce(a[:n]): NumPy's identity +0.0 plus the pairwise sum, so a
 * sum of negative zeros is +0.0 */
double lcd_add_reduce(const double *a, ptrdiff_t n)
{
    return 0.0 + pairwise(a, n);
}

#define CHUNK 16 /* candidates tested at once for a new best */

/* np.argmax's pick over the len candidates x, the j-th at site first + j
 * step, carried on from the best so far (*at < 0 before the first), one
 * chunk at a time: a chunk is tested against the best in one vectorisable
 * loop, and only a chunk with one np.argmax would take (a larger one or a
 * NaN, while the best is no NaN; any, before the first) is searched: its
 * first NaN, else its first largest, is the new best. Once the best is NaN
 * it stays. */
static void pick_from(const double *x, ptrdiff_t len, ptrdiff_t first, ptrdiff_t step, double *best,
                      ptrdiff_t *at)
{
    ptrdiff_t lo, end, j;

    for (lo = 0; lo < len; lo += CHUNK) {
        const double b = *best;
        double top = x[lo];
        int hit = *at < 0, nan = 0;

        end = len - lo < CHUNK ? len : lo + CHUNK;
        for (j = lo; j < end; j++)
            hit |= !(x[j] <= b);
        if (!hit || b != b)
            continue;
        for (j = lo; j < end; j++) {
            nan |= x[j] != x[j];
            top = x[j] > top ? x[j] : top;
        }
        for (j = lo; nan ? x[j] == x[j] : x[j] != top; j++)
            ;
        *best = x[j];
        *at = first + j * step;
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

/* One level's pass: its runs, section, feet and growth factor, the
 * margins picked so far, and the backward pass's suffix chains. */
typedef struct {
    const lcd_level *L;
    const cplx *u[2], *v[2];
    ptrdiff_t i0, i1, kshift, nsec; /* nsec: the section's sums, 3 for one run, SECTION for two */
    int with_margins;
    double E;
    double best[3];
    ptrdiff_t at[3];
    double chain[4]; /* suffix(av) of runs A and B, suffix(vmod), suffix(|V|^2) */
} pass;

/* The forward leaf of run A at the len <= LEAF sites from lo: their
 * densities' sum; with margins, the prefix sums up to i1 and the pointwise
 * picks over the section. */
static double forward_leaf(pass *P, ptrdiff_t lo, ptrdiff_t len)
{
    const lcd_level *L = P->L;
    const cplx *restrict u = P->u[0] + lo, *restrict v = P->v[0] + lo;
    const ptrdiff_t b = P->i1 - lo < len ? P->i1 - lo : len; /* the leaf's sites before i1 */
    double au[LEAF], av[LEAF], dens[LEAF], x[LEAF];
    ptrdiff_t j, a;

    for (j = 0; j < len; j++) {
        au[j] = abs2(u[j]);
        av[j] = abs2(v[j]);
        dens[j] = au[j] + av[j];
    }
    if (P->with_margins && b > 0) {
        const double E = P->E, mC0 = L->m * L->C0;
        double *restrict pu = L->pre_u + lo + 1, *restrict pv = L->pre_v + lo + 1;
        double su, sv;

        j = 0; /* the prefix sums up to i1, as np.cumsum's: its first value is the first term */
        if (lo) {
            su = pu[-1];
            sv = pv[-1];
        } else {
            pu[0] = su = au[0];
            pv[0] = sv = av[0];
            j = 1;
        }
        for (; j < b; j++) {
            pu[j] = su = su + au[j];
            pv[j] = sv = sv + av[j];
        }
        a = P->i0 - lo > 0 ? P->i0 - lo : 0; /* the pointwise candidates over the section */
        if (a < b) {
            const double *restrict au0 = L->au0 + lo + a - P->kshift, *restrict av0 = L->av0 + lo + a + P->kshift;

            for (j = a; j < b; j++)
                x[j] = au[j] - E * (au0[j - a] + mC0);
            pick_from(x + a, b - a, lo + a, 1, &P->best[0], &P->at[0]);
            for (j = a; j < b; j++)
                x[j] = av[j] - E * (av0[j - a] + mC0);
            pick_from(x + a, b - a, lo + a, 1, &P->best[1], &P->at[1]);
        }
    }
    return pairwise(dens, len);
}

/* pairwise's sum of run A's densities over the len sites from lo, split as
 * it splits them, the leaves left to right */
static double forward(pass *P, ptrdiff_t lo, ptrdiff_t len)
{
    ptrdiff_t n2;
    double left;

    if (len <= LEAF)
        return forward_leaf(P, lo, len);
    n2 = split(len);
    left = forward(P, lo, n2); /* first: the prefix sums run left to right */
    return left + forward(P, lo + n2, len - n2);
}

/* The backward leaf of the section at the len <= LEAF sites from lo: the
 * section's SECTION sums of its terms into out (the pair's only for two
 * runs), the suffix chains carried in from the sites right of it and out
 * to those left of it. */
static void backward_leaf(pass *P, ptrdiff_t lo, ptrdiff_t len, double *out)
{
    double au[2][LEAF], av[2][LEAF], aU2[LEAF], aV2[LEAF], umod[LEAF], vmod[LEAF];
    double t[SECTION][LEAF]; /* dens, prod, q of run A, of run B; l1, d1, q1u, q1v */
    double *chain = P->chain;
    ptrdiff_t r, j, k;

    for (r = 0; r < P->L->runs; r++) {
        const cplx *restrict u = P->u[r] + lo, *restrict v = P->v[r] + lo;
        double *restrict pu = au[r], *restrict pv = av[r], *restrict dens = t[3 * r], *restrict prod = t[3 * r + 1];

        for (j = 0; j < len; j++) {
            pu[j] = abs2(u[j]);
            pv[j] = abs2(v[j]);
            dens[j] = pu[j] + pv[j];
            prod[j] = pu[j] * pv[j];
        }
    }
    if (P->L->runs == 2) {
        const cplx *restrict ua = P->u[0] + lo, *restrict va = P->v[0] + lo;
        const cplx *restrict ub = P->u[1] + lo, *restrict vb = P->v[1] + lo;

        for (j = 0; j < len; j++) {
            cplx U = {ua[j].re - ub[j].re, ua[j].im - ub[j].im};
            cplx V = {va[j].re - vb[j].re, va[j].im - vb[j].im};

            aU2[j] = abs2(U);
            aV2[j] = abs2(V);
            umod[j] = au[0][j] + au[1][j];
            vmod[j] = av[0][j] + av[1][j];
            t[6][j] = aU2[j] + aV2[j];
            t[7][j] = aU2[j] * vmod[j] + umod[j] * aV2[j];
        }
        for (j = len - 1; j >= 0; j--) { /* the four chains, each from the right */
            t[2][j] = au[0][j] * chain[0];
            chain[0] = chain[0] + av[0][j];
            t[5][j] = au[1][j] * chain[1];
            chain[1] = chain[1] + av[1][j];
            t[8][j] = aU2[j] * chain[2];
            chain[2] = chain[2] + vmod[j];
            t[9][j] = umod[j] * chain[3];
            chain[3] = chain[3] + aV2[j];
        }
    } else
        for (j = len - 1; j >= 0; j--) {
            t[2][j] = au[0][j] * chain[0];
            chain[0] = chain[0] + av[0][j];
        }
    for (k = 0; k < P->nsec; k++)
        out[k] = pairwise(t[k], len);
}

/* the section's sums over the len sites from lo into out[0 .. SECTION),
 * split as pairwise splits them, the right half first so the suffix chains
 * run right to left; the left half's sums go into the next SECTION values,
 * so each depth of the split takes one such slot */
static void backward(pass *P, ptrdiff_t lo, ptrdiff_t len, double *out)
{
    double *left = out + SECTION;
    ptrdiff_t n2, k;

    if (len <= LEAF) {
        backward_leaf(P, lo, len, out);
        return;
    }
    n2 = split(len);
    backward(P, lo + n2, len - n2, out);
    backward(P, lo, n2, left);
    for (k = 0; k < P->nsec; k++)
        out[k] = left[k] + out[k];
}

/* the candidates of len windows of width w, the j-th from j step: pu, pv,
 * pu0 and pv0 are the prefix sums at the first window's start, at t and at
 * its feet at t = 0 */
static inline void window_candidates(const double *pu, const double *pv, const double *pu0, const double *pv0,
                                     ptrdiff_t w, ptrdiff_t step, ptrdiff_t len, double dx, double E,
                                     double slack, double *restrict x)
{
    ptrdiff_t j;

    for (j = 0; j < len; j++) {
        const ptrdiff_t a = j * step;
        double su_t = (pu[a + w] - pu[a]) * dx;
        double sv_t = (pv[a + w] - pv[a]) * dx;
        double su_0 = (pu0[a + w] - pu0[a]) * dx;
        double sv_0 = (pv0[a + w] - pv0[a]) * dx;
        x[j] = maximum(su_t - E * su_0, sv_t - E * sv_0) - slack;
    }
}

/* The margin over every dyadic window of the section, from the prefix sums
 * up to i1, into best[2] and at[2]. Width w is skipped when its bound
 * B_w = maximum(Tu, Tv) - slack_w, with Tu = (pre_u[i1] - pre_u[i0]) dx
 * and Tv the same for v, is at most the best so far and that best is a
 * number. That is exact while Tu, Tv, E, E m C0, slack_w and the totals at
 * t = 0 are finite and E >= 0 and dx > 0: rounding is monotone and prefix
 * sums of nonnegative terms never decrease, so each window's sum at t is
 * at most Tu (or Tv), its sum at t = 0 is finite and at least 0, and every
 * candidate is at most B_w and none is NaN: none would be picked. */
static void window_margins(pass *P)
{
    const lcd_level *L = P->L;
    const ptrdiff_t i0 = P->i0, i1 = P->i1, k = P->kshift;
    const double *pre_u = L->pre_u, *pre_v = L->pre_v, *pre_u0 = L->pre_u0, *pre_v0 = L->pre_v0;
    const double dx = L->dx, E = P->E, emc = E * L->m * L->C0;
    const double Tu = (pre_u[i1] - pre_u[i0]) * dx, Tv = (pre_v[i1] - pre_v[i0]) * dx;
    const int bounded = isfinite(Tu) && isfinite(Tv) && E >= 0.0 && isfinite(E) && isfinite(emc)
                        && isfinite(pre_u0[L->n]) && isfinite(pre_v0[L->n]) && dx > 0.0;
    double x[LEAF];
    ptrdiff_t w, s, len;

    for (w = 2; w <= i1 - i0; w *= 2) {
        const double slack = emc * ((double)w * dx);
        const ptrdiff_t step = w / 2, last = i1 - w; /* the last start */

        if (bounded && isfinite(slack) && P->at[2] >= 0 && P->best[2] == P->best[2]
            && maximum(Tu, Tv) - slack <= P->best[2])
            continue;
        for (s = i0; s <= last; s += len * step) {
            len = (last - s) / step + 1;
            len = len < LEAF ? len : LEAF;
            if (step == 1) /* width 2, with unit strides the loop vectorises without gathers */
                window_candidates(pre_u + s, pre_v + s, pre_u0 + s - k, pre_v0 + s + k, 2, 1, len, dx, E, slack, x);
            else
                window_candidates(pre_u + s, pre_v + s, pre_u0 + s - k, pre_v0 + s + k, w, step, len, dx, E, slack, x);
            pick_from(x, len, s, step, &P->best[2], &P->at[2]);
        }
    }
}

/* Runs A and B, n sites each (ub and vb NULL for one run); 0 <= i0 <= i1 <= n.
 * With with_margins, the origin is set and the feet lie on the grid. Writes
 * L->row; see the header and lcd_level. */
void lcd_level_terms(const lcd_level *L, const cplx *ua, const cplx *va, const cplx *ub,
                     const cplx *vb, ptrdiff_t i0, ptrdiff_t i1, ptrdiff_t kshift,
                     int with_margins, double E)
{
    const ptrdiff_t n = L->n, len = i1 - i0, nsec = L->runs == 2 ? SECTION : 3, sums = 1 + nsec;
    pass P = {L, {ua, ub}, {va, vb}, i0, i1, kshift, nsec, with_margins, E,
              {-HUGE_VAL, -HUGE_VAL, -HUGE_VAL}, {-1, -1, -1}, {0.0, 0.0, 0.0, 0.0}};
    double partial[DEPTH * SECTION];
    double *row = L->row;
    ptrdiff_t k;

    row[0] = 0.0 + (n > 0 ? forward(&P, 0, n) : 0.0); /* add_reduce: NumPy's identity, then the pairwise sum */
    if (len > 0)
        backward(&P, i0, len, partial);
    for (k = 0; k < nsec; k++)
        row[1 + k] = 0.0 + (len > 0 ? partial[k] : 0.0);
    if (len < 2) { /* q_upper is 0 below two sites */
        row[3] = 0.0;
        if (L->runs == 2)
            row[6] = row[9] = row[10] = 0.0;
    }
    if (with_margins)
        window_margins(&P);
    for (k = 0; k < 3; k++) {
        row[sums + k] = P.best[k];
        row[sums + 3 + k] = (double)P.at[k];
    }
    row[sums + 6] = row[sums + 7] = NAN;
    if (L->ia >= 0) {
        const ptrdiff_t eu = L->ib - kshift, ev = L->ia + kshift;

        if (0 <= eu && eu < n)
            row[sums + 6] = abs2(ua[eu]);
        if (0 <= ev && ev < n)
            row[sums + 7] = abs2(va[ev]);
    }
}

static cplx cmul(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

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
    n2 = split(len);
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
