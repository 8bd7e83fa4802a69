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
 * For every other p the interval never holds it: over every double and
 * both decimal exponents decimal() tries, no product comes within 2^4.5
 * interval widths of a half point, and none whose digits are kept within
 * 2^9.1 (tests/test_format_proof.py counts them with exact integers). The
 * same test shows that p stays in the table and the shift in 1..63, so every
 * double is decided. There is no snprintf, so no locale, and no libm.
 *
 * The 64x64 -> 128-bit products come from the compiler (u128). D's 17
 * digits are written two at a time from a 200-byte pair table, in two
 * independent halves (the top 9 and the bottom 8). Every store has a fixed
 * size: a token is written into the TOKEN_MAX bytes the caller guarantees
 * free, and a store past its end is overwritten by the separator and the
 * next token, or lies beyond the returned length.
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
#define INLINE static inline __attribute__((always_inline))
#define TOKEN_MAX 25      /* "-2.2250738585072014e-308" and a separator */

__extension__ typedef unsigned __int128 u128; /* __extension__: accepted under -pedantic */

typedef struct { uint64_t hi, lo; int t; int exact; } pow10_entry; /* 10^p ~ (hi:lo) 2^t */

static pow10_entry table[P_MAX - P_MIN + 1];

static const uint64_t E16 = UINT64_C(10000000000000000);
static const uint64_t E17 = UINT64_C(100000000000000000);

static const char PAIRS[201] = /* "00" "01" ... "99" */
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

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

/* D = round(m 2^q 10^p) for a normalised m (top bit set). *floor_d is the
 * integer part of the truncated product, for the caller's exponent check. */
INLINE uint64_t scaled_digits(uint64_t m, int q, int p, uint64_t *floor_d)
{
    const pow10_entry *e = &table[p - P_MIN];
    u128 a = (u128)m * e->lo, b = (u128)m * e->hi;
    u128 mid = (a >> 64) + (uint64_t)b;
    uint64_t r0 = (uint64_t)a, r1 = (uint64_t)mid, r2 = (uint64_t)(b >> 64) + (uint64_t)(mid >> 64); /* the product r2:r1:r0 */
    int sh = -(q + e->t) - 128;                           /* value = product / 2^(128 + sh) */
    uint64_t i = r2 >> sh, rt = r2 & ((UINT64_C(1) << sh) - 1), half = UINT64_C(1) << (sh - 1);
    *floor_d = i;
    /* Both rules are evaluated, without a branch: which one applies, and
     * its outcome, change from value to value. An exact product rounds half
     * to even. For a truncated entry the exact value lies in (product,
     * product + m), which holds no half point, so the product's side of the
     * half decides. */
    int up_exact = (rt > half) | ((rt == half) & ((r1 | r0) != 0 || (i & 1)));
    return i + (uint64_t)(e->exact ? up_exact : rt >= half);
}

/* One finite nonzero |x| = m 2^q: D in [1e16, 1e17) and its decimal
 * exponent e as defined above, returned. */
static int decimal(uint64_t m, int q, uint64_t *d)
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
    *d = scaled_digits(m, q, 16 - e, &fl);
    if (fl >= E17) { /* |x| >= 10^(e+1): one digit too many */
        e++;
        *d = scaled_digits(m, q, 16 - e, &fl);
    }
    if (*d == E17) { /* rounded up to the next power of ten */
        *d = E16;
        e++;
    }
    return e;
}

/* x < 10^8 as 8 digits, four pairs */
INLINE void put8(char *out, uint32_t x)
{
    uint32_t a = x / 10000, b = x % 10000;
    memcpy(out, PAIRS + 2 * (a / 100), 2);
    memcpy(out + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(out + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(out + 6, PAIRS + 2 * (b % 100), 2);
}

/* D in [1e16, 1e17) as its 17 digits at out, the top 9 and the bottom 8
 * written independently; returns the count of digits without the trailing
 * zeros. */
static int put17(char *out, uint64_t d)
{
    uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    out[0] = (char)('0' + hi / 100000000);
    put8(out + 1, hi % 100000000);
    put8(out + 9, lo);
    int nd = lo ? 17 : 9;
    while (out[nd - 1] == '0')
        nd--;
    return nd;
}

/* The token of x at out, where TOKEN_MAX bytes are free and every store
 * stays: returns the token's end. */
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
    uint64_t d;
    int e = decimal(biased ? frac | UINT64_C(1) << 52 : frac, (biased ? biased : 1) - 1075, &d);

    if (e >= 0 && e < 17) {
        char t[40]; /* the digits with the point after e + 1 of them, built here: the stores reach t + 33 */
        int nd = put17(t, d);
        if (nd > e + 1) {
            memmove(t + e + 2, t + e + 1, 16);
            t[e + 1] = '.';
        }
        memcpy(out, t, 18); /* up to 17 digits and the point */
        return out + (nd > e + 1 ? nd + 1 : e + 1);
    }
    if (e < 0 && e >= -4) {
        memcpy(out, "0.000000", 8); /* "0." and -e - 1 zeros, then the digits */
        return out + 1 - e + put17(out + 1 - e, d);
    }
    int nd = put17(out + 1, d); /* d.ddd: the first digit moves one place left, the point takes its place */
    out[0] = out[1];
    out[1] = '.';
    out += nd > 1 ? nd + 1 : 1;
    out[0] = 'e';
    out[1] = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100) {
        out[2] = (char)('0' + e / 100);
        memcpy(out + 3, PAIRS + 2 * (e % 100), 2);
        return out + 5;
    }
    memcpy(out + 2, PAIRS + 2 * e, 2);
    return out + 4;
}

/* Rows of x (rows x cols, row-major) as CSV text in out: values joined by
 * ',', each row ended by '\n'. Returns the bytes written, or -1 when out could
 * overflow cap (nothing past cap is written). */
ptrdiff_t lcd_format_rows(const double *x, size_t rows, size_t cols, char *out, size_t cap)
{
    char *p = out, *end = out + cap;
    for (size_t r = 0; r < rows; r++) {
        for (size_t c = 0; c < cols; c++) {
            if (end - p < TOKEN_MAX)
                return -1;
            p = put_double(p, x[r * cols + c]);
            *p++ = c + 1 < cols ? ',' : '\n';
        }
    }
    return p - out;
}
