/* CSV rows of a C-contiguous block of doubles, each value as Python's
 * "%.17g" % x writes it: 17 significant digits rounded to nearest, ties to
 * even, trailing zeros dropped, fixed notation for decimal exponents -4 to
 * 16, otherwise d.ddde+XX with at least two exponent digits; "-0" for
 * negative zero, "inf" and "-inf", and "nan" whatever the NaN's sign.
 *
 * A finite nonzero x = m 2^q (m normalised to 64 bits) has decimal exponent
 * e = floor(log10 |x|) and digits D = round(|x| 10^(16 - e)) in [1e16, 1e17).
 * With 10^p ~ T 2^t, T the 128-bit truncated mantissa from the table below,
 * the 192-bit product m T is D's scaled value minus an error in [0, m): D is
 * decided when that interval cannot hold the half point. For 0 <= p <= 55
 * T is exact, so the product is exact and a true tie goes to the even D.
 * Otherwise the interval (2^64 wide, against a half point of about 2^134)
 * is almost never undecided; then the call fails and the caller formats the
 * block another way. There is no snprintf, so no locale, and no libm.
 *
 * The table is built with exact multi-limb arithmetic when the library is
 * loaded, so no call ever writes it.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define P_MIN (-300)
#define P_MAX 345
#define LIMBS 40          /* 32-bit limbs: 2^1184 and 10^345 both fit */
#define K_NEG 1184        /* 10^-p is read from floor(2^K_NEG / 10^p) */
#define TOKEN_MAX 25      /* "-2.2250738585072014e-308" and a separator */

typedef struct { uint64_t hi, lo; int t; int exact; } pow10_entry; /* 10^p ~ (hi:lo) 2^t */

static pow10_entry table[P_MAX - P_MIN + 1];

static const uint64_t E16 = UINT64_C(10000000000000000);
static const uint64_t E17 = UINT64_C(100000000000000000);

static int bit_length(const uint32_t *a, int n) /* a has n limbs, the top one nonzero */
{
    int len = 32 * (n - 1);
    for (uint32_t w = a[n - 1]; w; w >>= 1)
        len++;
    return len;
}

static uint64_t limb(const uint32_t *a, int i)
{
    return i >= 0 && i < LIMBS ? a[i] : 0;
}

static uint64_t bits64(const uint32_t *a, int pos) /* bits pos .. pos+63; below 0 read as 0 */
{
    int i = pos >= 0 ? pos / 32 : -((31 - pos) / 32), s = pos - 32 * i;
    uint64_t r = limb(a, i) >> s | limb(a, i + 1) << (32 - s);
    return s ? r | limb(a, i + 2) << (64 - s) : r;
}

static void set_entry(int p, const uint32_t *a, int n, int t_offset, int exact)
{
    int len = bit_length(a, n);
    pow10_entry *e = &table[p - P_MIN];
    e->hi = bits64(a, len - 64);
    e->lo = bits64(a, len - 128);
    e->t = len - 128 + t_offset;
    e->exact = exact;
}

__attribute__((constructor)) static void build_table(void)
{
    uint32_t a[LIMBS] = {1};
    int n = 1;
    for (int p = 0; p <= P_MAX; p++) { /* a = 10^p = 5^p 2^p: p trailing zero bits */
        set_entry(p, a, n, 0, bit_length(a, n) - 128 <= p);
        uint64_t carry = 0;
        for (int i = 0; i < n; i++) {
            uint64_t v = (uint64_t)a[i] * 10 + carry;
            a[i] = (uint32_t)v;
            carry = v >> 32;
        }
        if (carry)
            a[n++] = (uint32_t)carry;
    }
    memset(a, 0, sizeof a);
    n = K_NEG / 32 + 1;
    a[n - 1] = UINT32_C(1) << (K_NEG % 32);
    for (int p = 1; p <= -P_MIN; p++) { /* a = floor(2^K_NEG / 10^p), by exact nested floors */
        uint64_t rem = 0;
        for (int i = n - 1; i >= 0; i--) {
            uint64_t v = rem << 32 | a[i];
            a[i] = (uint32_t)(v / 10);
            rem = v % 10;
        }
        if (a[n - 1] == 0)
            n--;
        set_entry(-p, a, n, -K_NEG, 0);
    }
}

static void mul64(uint64_t a, uint64_t b, uint64_t *hi, uint64_t *lo)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *lo = mid << 32 | (p00 & 0xffffffffu);
    *hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* D = round(m 2^q 10^p) for a normalised m (top bit set): 1 when decided,
 * 0 when the truncated table leaves it open or p or the shift is out of range.
 * *floor_d is the integer part of the truncated product, for the caller's
 * exponent check. */
static int scaled_digits(uint64_t m, int q, int p, uint64_t *d, uint64_t *floor_d)
{
    if (p < P_MIN || p > P_MAX)
        return 0;
    const pow10_entry *e = &table[p - P_MIN];
    uint64_t a1, a0, b1, b0;
    mul64(m, e->lo, &a1, &a0);
    mul64(m, e->hi, &b1, &b0);
    uint64_t r0 = a0, r1 = a1 + b0, r2 = b1 + (r1 < b0); /* the product r2:r1:r0 */
    int sh = -(q + e->t) - 128;                           /* value = product / 2^(128 + sh) */
    if (sh < 1 || sh > 63)
        return 0;
    uint64_t i = r2 >> sh, rt = r2 & ((UINT64_C(1) << sh) - 1), half = UINT64_C(1) << (sh - 1);
    *floor_d = i;
    if (e->exact) {
        int above = rt > half || (rt == half && (r1 | r0)), tie = rt == half && !(r1 | r0);
        *d = i + (above || (tie && (i & 1)));
        return 1;
    }
    /* the exact value lies in (product, product + m): compare both ends with the half */
    if (rt >= half) {
        *d = i + 1;
        return 1;
    }
    uint64_t s0 = r0 + m, s1 = r1 + (s0 < r0);
    uint64_t st = rt + (s0 < r0 && s1 == 0); /* the sum's carry into the top part */
    if (st < half || (st == half && !(s1 | s0))) {
        *d = i;
        return 1;
    }
    return 0;
}

/* One finite nonzero |x| = m 2^q: D in [1e16, 1e17) and e as defined above. */
static int decimal(uint64_t m, int q, uint64_t *d, int *e10)
{
    int lz = m >> 52 ? 11 : 0; /* normalise m to 64 bits: subnormals need more */
    m <<= lz;
    while (!(m >> 63)) {
        m <<= 1;
        lz++;
    }
    q -= lz;
    int b = q + 63;                                      /* floor(log2 |x|) */
    int e = b >= 0 ? (b * 78913) >> 18 : -((-b * 78913 + 262143) >> 18); /* floor(b log10 2) */
    uint64_t fl;
    if (!scaled_digits(m, q, 16 - e, d, &fl))
        return 0;
    if (fl >= E17) { /* |x| >= 10^(e+1): one digit too many */
        e++;
        if (!scaled_digits(m, q, 16 - e, d, &fl) || fl >= E17)
            return 0;
    }
    if (*d == E17) { /* rounded up to the next power of ten */
        *d = E16;
        e++;
    }
    if (*d < E16 || *d >= E17)
        return 0;
    *e10 = e;
    return 1;
}

static char *put_double(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    if (biased == 0x7ff && frac) {
        memcpy(out, "nan", 3);
        return out + 3;
    }
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0x7ff) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    if (biased == 0 && frac == 0) {
        *out++ = '0';
        return out;
    }
    uint64_t m = biased ? frac | UINT64_C(1) << 52 : frac, d;
    int q = (biased ? biased : 1) - 1075, e;
    if (!decimal(m, q, &d, &e))
        return NULL;

    char dig[17];
    for (int i = 16; i >= 0; i--) {
        dig[i] = (char)('0' + d % 10);
        d /= 10;
    }
    int nd = 17;
    while (dig[nd - 1] == '0')
        nd--;
    if (e >= -4 && e < 17) {
        if (e >= 0) {
            memcpy(out, dig, (size_t)e + 1);
            out += e + 1;
            if (nd > e + 1) {
                *out++ = '.';
                memcpy(out, dig + e + 1, (size_t)(nd - e - 1));
                out += nd - e - 1;
            }
        } else {
            memcpy(out, "0.000", (size_t)(1 - e));
            out += 1 - e;
            memcpy(out, dig, (size_t)nd);
            out += nd;
        }
        return out;
    }
    *out++ = dig[0];
    if (nd > 1) {
        *out++ = '.';
        memcpy(out, dig + 1, (size_t)(nd - 1));
        out += nd - 1;
    }
    *out++ = 'e';
    *out++ = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100)
        *out++ = (char)('0' + e / 100);
    *out++ = (char)('0' + e / 10 % 10);
    *out++ = (char)('0' + e % 10);
    return out;
}

/* Rows of x (rows x cols, row-major) as CSV text in out: values joined by
 * ',', each row ended by '\n'. Returns the bytes written, or -1 when a value
 * is undecided or out could overflow cap (nothing past cap is written). */
ptrdiff_t lcd_format_rows(const double *x, size_t rows, size_t cols, char *out, size_t cap)
{
    char *p = out, *end = out + cap;
    for (size_t r = 0; r < rows; r++) {
        for (size_t c = 0; c < cols; c++) {
            if (end - p < TOKEN_MAX)
                return -1;
            p = put_double(p, x[r * cols + c]);
            if (p == NULL)
                return -1;
            *p++ = c + 1 < cols ? ',' : '\n';
        }
    }
    return p - out;
}
