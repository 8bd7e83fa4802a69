/* The elementwise terms of one audited level; see level_terms in
 * kernels/pure.py, the NumPy code this reproduces bit for bit. The pairwise
 * sums of the terms stay in NumPy (np.add.reduce on these buffers), so no
 * summation order changes; only the sequential scans (np.cumsum order) run
 * here. Build with -ffp-contract=off and never with -ffast-math: no
 * multiply-add may be fused but the explicit fma() calls, and the NaN tests
 * must survive.
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
 * In distance mode (two runs, no per-run term) only l1 and
 * p1 = |uA vA - uB vB|^2 are written over the section, each complex
 * product rounded as NumPy's: once per part (fma) where NumPy's FMA loops
 * run, twice otherwise; the caller probes NumPy and sets fused.
 *
 * With with_margins set, also run A's prefix sums over the grid and the growth
 * margins against the level at t = 0 (kshift sites back along each
 * characteristic): the pointwise margins of |u|^2 and |v|^2 and the margin
 * over every dyadic window, widths 2, 4, ... up to the section, stride half
 * a width, width-major. Each margin is kept with its site as np.argmax picks
 * it: the first NaN, else the first strict maximum; -inf and site -1 when
 * there is no candidate. The caller checks that the feet i0 - kshift and
 * i1 + kshift lie on the grid.
 */
#include <math.h>
#include <stddef.h>

typedef struct { double re, im; } cplx;

/* Mirrored field by field by kernels.LevelTerms. runs x n arrays are row
 * major; pre_* and the prefix sums at t = 0 hold n + 1 values. */
typedef struct {
    ptrdiff_t n, runs;
    int distance, fused;
    double dx, m, C0;
    double *au, *av, *dens, *prod, *q;
    double *l1, *d1, *q1u, *q1v, *p1;
    double *pre_u, *pre_v;
    const double *au0, *av0, *pre_u0, *pre_v0;
    double *margins;
    ptrdiff_t *sites;
} lcd_level;

static double abs2(cplx z)
{
    return z.re * z.re + z.im * z.im;
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

/* a b as NumPy multiplies complex arrays: fused, each part as one fma,
 * or unfused, four products and two sums. NumPy's fused real part is
 * a.re b.re - p, p = a.im b.im, by a subtracting fma, which returns a NaN
 * p unchanged; fma(a.re, b.re, -p) returns -p from a software fma, so p is
 * negated only when it is not a NaN. */
static inline cplx cmul(cplx a, cplx b, int fused)
{
    cplx r;

    if (fused) {
        double p = a.im * b.im;

        r.re = fma(a.re, b.re, p == p ? -p : p);
        r.im = fma(a.re, b.im, a.im * b.re);
    } else {
        r.re = a.re * b.re - a.im * b.im;
        r.im = a.re * b.im + a.im * b.re;
    }
    return r;
}

/* always inlined, so each call compiles a loop for one constant fused */
static inline __attribute__((always_inline)) void
distance_loop(const cplx *restrict ua, const cplx *restrict va, const cplx *restrict ub,
              const cplx *restrict vb, double *restrict l1, double *restrict p1, ptrdiff_t i0,
              ptrdiff_t i1, int fused)
{
    ptrdiff_t i;

    for (i = i0; i < i1; i++) {
        cplx U = {ua[i].re - ub[i].re, ua[i].im - ub[i].im};
        cplx V = {va[i].re - vb[i].re, va[i].im - vb[i].im};
        cplx pa = cmul(ua[i], va[i], fused), pb = cmul(ub[i], vb[i], fused);
        cplx d = {pa.re - pb.re, pa.im - pb.im};

        l1[i] = abs2(U) + abs2(V);
        p1[i] = abs2(d);
    }
}

static void distance_terms(const lcd_level *L, const cplx *ua, const cplx *va, const cplx *ub,
                           const cplx *vb, ptrdiff_t i0, ptrdiff_t i1)
{
    if (L->fused)
        distance_loop(ua, va, ub, vb, L->l1, L->p1, i0, i1, 1);
    else
        distance_loop(ua, va, ub, vb, L->l1, L->p1, i0, i1, 0);
}

static void growth_margins(const lcd_level *L, ptrdiff_t i0, ptrdiff_t i1, ptrdiff_t kshift, double E)
{
    const double *au = L->au, *av = L->av, *pre_u = L->pre_u, *pre_v = L->pre_v;
    const double *au0 = L->au0, *av0 = L->av0, *pre_u0 = L->pre_u0, *pre_v0 = L->pre_v0;
    const double dx = L->dx, mC0 = L->m * L->C0, emc = E * L->m * L->C0;
    double best[3] = {-HUGE_VAL, -HUGE_VAL, -HUGE_VAL};
    ptrdiff_t at[3] = {-1, -1, -1}, i, s, w;

    prefix2(au, av, L->pre_u, L->pre_v, L->n);
    for (i = i0; i < i1; i++) {
        pick(au[i] - E * (au0[i - kshift] + mC0), i, &best[0], &at[0]);
        pick(av[i] - E * (av0[i + kshift] + mC0), i, &best[1], &at[1]);
    }
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
 * lie on the grid; in distance mode, with_margins is 0. */
void lcd_level_terms(const lcd_level *L, const cplx *ua, const cplx *va, const cplx *ub,
                     const cplx *vb, ptrdiff_t i0, ptrdiff_t i1, ptrdiff_t kshift,
                     int with_margins, double E)
{
    const cplx *const u[2] = {ua, ub}, *const v[2] = {va, vb};
    const ptrdiff_t n = L->n;
    ptrdiff_t r, i;

    if (L->distance) {
        distance_terms(L, ua, va, ub, vb, i0, i1);
        return;
    }
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
    if (with_margins) {
        growth_margins(L, i0, i1, kshift, E);
        return;
    }
    for (i = 0; i < 3; i++) {
        L->margins[i] = -HUGE_VAL;
        L->sites[i] = -1;
    }
}
