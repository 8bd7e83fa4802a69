/* The sampled pointwise algebraic bounds of model.check_algebraic_bounds,
 * one chunk of draws in one pass; model._bound_terms and _feed are the
 * NumPy block loop this reproduces bit for bit, and
 * tests/test_model.py::_scalar_bound_terms spells out the operation order
 * both follow. Build with -ffp-contract=off and never with -ffast-math: no
 * multiply-add may be fused, and the NaN tests must survive.
 * -fno-math-errno keeps sqrt one instruction; sqrt is correctly rounded, so
 * no bit depends on it.
 *
 * A tuple (u, v, u', v') is four points sqrt(r) (cos th, sin th) of the
 * unit disk, rounded as np.sqrt(r) * np.exp(1j * th) rounds them: NumPy
 * multiplies the real sqrt(r) as the complex (sqrt(r), 0), and its complex
 * exp of (0, th) is glibc's (cos th, sin th), computed here by sincos. The
 * bounds, with U = u - u', V = v - v' and
 * r2 = |U|^2 (|v|^2 + |v'|^2) + (|u|^2 + |u'|^2) |V|^2:
 *   (a) |2Re(i conj(N1) u)| + |2Re(i conj(N2) v)| <= 8|beta| |u|^2 |v|^2
 *   (b) |u v - u' v'|^2 <= 2 r2
 *   (c) |DN1 conj(U)| + |DN2 conj(V)| <= (c_star / 2) r2
 */
#define _GNU_SOURCE /* sincos */
#include <float.h>
#include <math.h>
#include <stddef.h>

typedef struct { double re, im; } cplx;

/* What one pass finds for one bound (see lcd_algebraic_extremes). */
typedef struct {
    double excess, ratio, zero_lhs;
    ptrdiff_t excess_at, zero_at, nonfinite_at;
} extremes;

static double sq(cplx z)
{
    return z.re * z.re + z.im * z.im;
}

/* (s, 0) (cos th, sin th), NumPy's complex product, signed zeros included */
static cplx disk_point(double r, double th)
{
    double s = sqrt(r), sn, cs;

    sincos(th, &sn, &cs);
    return (cplx){s * cs - 0.0 * sn, s * sn + 0.0 * cs};
}

/* N1 and N2 of model.eval_nonlinearity, each product in its order */
static void nonlinearity(cplx u, cplx v, double alpha, double beta, cplx *n1, cplx *n2)
{
    double s = 2.0 * (u.re * v.re + u.im * v.im);
    double au2 = sq(u), av2 = sq(v), c = 2.0 * beta * s;

    n1->re = alpha * u.re * av2 + c * v.re;
    n1->im = alpha * u.im * av2 + c * v.im;
    n2->re = alpha * v.re * au2 + c * u.re;
    n2->im = alpha * v.im * au2 + c * u.im;
}

/* lhs[b] and rhs[b] of the bounds (a), (b), (c) at one tuple */
static void bound_terms(cplx u, cplx v, cplx up, cplx vp, double alpha, double beta, double c_star,
                        double lhs[3], double rhs[3])
{
    double s = 2.0 * (u.re * v.re + u.im * v.im);
    double ru = -4.0 * beta * s * (u.im * v.re - u.re * v.im);
    cplx U = {u.re - up.re, u.im - up.im}, V = {v.re - vp.re, v.im - vp.im};
    double r2 = sq(U) * (sq(v) + sq(vp)) + (sq(u) + sq(up)) * sq(V);
    double re = (u.re * v.re - u.im * v.im) - (up.re * vp.re - up.im * vp.im);
    double im = (u.re * v.im + u.im * v.re) - (up.re * vp.im + up.im * vp.re);
    cplx n1, n2, n1p, n2p, d1, d2;

    nonlinearity(u, v, alpha, beta, &n1, &n2);
    nonlinearity(up, vp, alpha, beta, &n1p, &n2p);
    d1 = (cplx){n1.re - n1p.re, n1.im - n1p.im};
    d2 = (cplx){n2.re - n2p.re, n2.im - n2p.im};
    lhs[0] = fabs(ru) + fabs(-ru);
    rhs[0] = 8.0 * fabs(beta) * sq(u) * sq(v);
    lhs[1] = re * re + im * im;
    rhs[1] = 2.0 * r2;
    lhs[2] = sqrt(sq(d1) * sq(U)) + sqrt(sq(d2) * sq(V));
    rhs[2] = 0.5 * c_star * r2;
}

static void feed(extremes *e, double lhs, double rhs, double slack, ptrdiff_t i)
{
    double excess = lhs - rhs * slack;

    if (excess > e->excess) {
        e->excess = excess;
        e->excess_at = i;
    }
    if (rhs > 0) {
        double q = lhs / rhs;
        if (q > e->ratio && q <= DBL_MAX) /* finite: NaN and inf never count */
            e->ratio = q;
    } else if (lhs > 0 && e->zero_at < 0) { /* rhs == 0 demands lhs == 0 exactly */
        e->zero_lhs = lhs;
        e->zero_at = i;
    }
    if (e->nonfinite_at < 0 && !(isfinite(lhs) && isfinite(rhs)))
        e->nonfinite_at = i;
}

/* out[i] = the disk point of (r[i], th[i]), as re, im pairs */
void lcd_disk_points(const double *r, const double *th, ptrdiff_t n, double *out)
{
    ptrdiff_t i;

    for (i = 0; i < n; i++) {
        cplx z = disk_point(r[i], th[i]);
        out[2 * i] = z.re;
        out[2 * i + 1] = z.im;
    }
}

/* One chunk of n tuples: draws holds r then th for u, v, u' and v', n
 * values each, as default_rng yields them. For each bound b, in the order
 * (a), (b), (c), vals[3b..3b+2] get the largest excess lhs - rhs slack
 * above 0 (slack = 1 + EXACT_SLACK), the largest finite lhs / rhs over
 * rhs > 0 (0 for none) and the lhs of the first tuple with !(rhs > 0) and
 * lhs > 0; at[3b..3b+2] get the first tuple of that excess, that first
 * tuple and the first tuple with a non-finite lhs or rhs, -1 for none.
 */
void lcd_algebraic_extremes(const double *const draws[8], ptrdiff_t n, double alpha, double beta,
                            double c_star, double slack, double *vals, ptrdiff_t *at)
{
    extremes e[3];
    ptrdiff_t i;
    int b;

    for (b = 0; b < 3; b++)
        e[b] = (extremes){0.0, 0.0, 0.0, -1, -1, -1};
    for (i = 0; i < n; i++) {
        cplx u = disk_point(draws[0][i], draws[1][i]), v = disk_point(draws[2][i], draws[3][i]);
        cplx up = disk_point(draws[4][i], draws[5][i]), vp = disk_point(draws[6][i], draws[7][i]);
        double lhs[3], rhs[3];

        bound_terms(u, v, up, vp, alpha, beta, c_star, lhs, rhs);
        for (b = 0; b < 3; b++)
            feed(&e[b], lhs[b], rhs[b], slack, i);
    }
    for (b = 0; b < 3; b++) {
        vals[3 * b] = e[b].excess;
        vals[3 * b + 1] = e[b].ratio;
        vals[3 * b + 2] = e[b].zero_lhs;
        at[3 * b] = e[b].excess_at;
        at[3 * b + 1] = e[b].zero_at;
        at[3 * b + 2] = e[b].nonfinite_at;
    }
}
