"""Proof, with exact integers, that ``_format.c`` decides every double.

The C writes a finite nonzero |x| = m 2^q, m normalised to 64 bits, from
the 192-bit product m T, where 10^p ~ T 2^t and T = floor(10^p 2^-t) is a
128-bit table entry. The scaled value x 10^p is the product over
W = 2^(128 + sh), sh = -(q + t) - 128, and for a truncated entry the exact
value lies in (m T, m T + m). D = round(x 10^p) is decided unless that error
interval holds a half point jW + W/2, that is unless

    W/2 - m < (m T mod W) < W/2.

Every binary exponent is one class: the normal doubles of one biased
exponent (m = m53 2^11, m53 from 2^52 to 2^53 - 1) and the subnormals of one
bit length L (m = f 2^(64 - L), f of L bits). For each class and each of the
two decimal exponents ``decimal()`` can try, the count of m whose closed
error interval [m T, m T + m] holds a half point is a difference of two sums
of floor((a y + b) / W) over the class, each summed in O(log W) steps by
``floor_sum`` (the Euclid-like sum of the AtCoder Library; Ryu's proof,
Adams 2018, and Paxson's 1991 hardest-case search bound the same linear form
modulo a power of two). The count is zero for every truncated entry, so the
C needs no undecided outcome and no fallback.

The counter itself is checked: widened 2^16-fold it finds doubles, each of
which a direct evaluation confirms, and ``test_serialization`` formats every
one of them and compares with ``"%.17g" % x``.
"""
import functools
import itertools
import math
import re
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from lcdirac import kernels

SOURCE = Path(kernels.__file__).with_name("_format.c").read_text()
P_MIN = int(re.search(r"#define P_MIN \((-\d+)\)", SOURCE).group(1))
P_MAX = int(re.search(r"#define P_MAX (\d+)", SOURCE).group(1))
WIDE = 2**16  # the widened band of the counter's own check


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a i + b) / m) for i from 0 to n - 1, for m > 0 and
    any integers a and b, in O(log m) steps."""
    total = n * (b // m) + n * (n - 1) // 2 * (a // m)
    a, b = a % m, b % m
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


@functools.cache
def entry(p: int) -> tuple[int, int, bool]:
    """The table entry of 10^p from its definition: T = floor(10^p 2^-t)
    with 2^127 <= T < 2^128, t, and whether T 2^t is exactly 10^p."""
    t = (10**p).bit_length() - 128 if p >= 0 else -(127 + (10**-p).bit_length())
    whole = Fraction(10) ** p / Fraction(2) ** t
    return math.floor(whole), t, whole.denominator == 1


def floor_log10_pow2(b: int) -> int:
    """floor(b log10 2), the largest e with 10^e <= 2^b, from the digits of 2^|b|."""
    return len(str(2**b)) - 1 if b >= 0 else -len(str(2**-b))


def classes():
    """Every binary exponent as (scale, q, y0, y1): the doubles m 2^q with
    m = scale y for y in [y0, y1), m normalised to 64 bits as in the C."""
    for biased in range(1, 2047):
        yield 2**11, biased - 1075 - 11, 2**52, 2**53
    for length in range(1, 53):
        yield 2 ** (64 - length), -1074 - (64 - length), 2 ** (length - 1), 2**length


@functools.cache
def tries() -> list[tuple]:
    """Every (scale, q, y0, y1, b, e, p, sh) of a class and a decimal
    exponent decimal() tries: e its estimate of floor(log10 |x|), then
    p = 16 - e and, for an |x| with 18 digits there, p = 15 - e."""
    out = []
    for scale, q, y0, y1 in classes():
        b = q + 63
        e = (b * 78913) >> 18  # the C's estimate; >> floors for a negative b too
        for p in (16 - e, 15 - e):
            out.append((scale, q, y0, y1, b, e, p, -(q + entry(p)[1]) - 128))
    return out


def truncated():
    """The tries whose entry is truncated: (scale, q, y0, y1, p, T, W)."""
    for scale, q, y0, y1, _, _, p, sh in tries():
        T, _, exact = entry(p)
        if not exact:
            yield scale, q, y0, y1, p, T, 2 ** (128 + sh)


@functools.cache
def truncated_by_q() -> dict[int, list[tuple]]:
    """The truncated tries by q: (scale, y0, y1, p, T, W)."""
    by_q = {}
    for scale, q, y0, y1, p, T, W in truncated():
        by_q.setdefault(q, []).append((scale, y0, y1, p, T, W))
    return by_q


def near_half(T: int, W: int, scale: int, y0: int, y1: int, k: int) -> int:
    """The count of y in [y0, y1) whose error interval, widened by k - 1
    widths on each side, holds a half point: jW + W/2 in
    [(T - k + 1) x, (T + k) x] for x = scale y. At k = 1 it is the closed
    interval [x T, x T + x]."""
    half, hi, lo = W // 2, (T + k) * scale, (T - k + 1) * scale
    n = y1 - y0
    return floor_sum(n, W, hi, hi * y0 - half) - floor_sum(n, W, lo, lo * y0 - half - 1)


def gap(m: int, T: int, W: int) -> Fraction:
    """The distance from the half point to the error interval [m T, m T + m]
    modulo W, in widths m: 0 when the interval holds it. A y counts in
    near_half exactly when gap(scale y, T, W) <= k - 1."""
    r = m * T % W
    return Fraction(max(r - W // 2, W // 2 - r - m, 0), m)


def c_mantissa(x: float) -> tuple[int, int]:
    """m and q of |x| as the C normalises them, from the bits of x."""
    bits = struct.unpack("<Q", struct.pack("<d", abs(x)))[0]
    biased, frac = bits >> 52, bits & (2**52 - 1)
    m, q = (frac | 2**52, biased - 1075) if biased else (frac, -1074)
    shift = 64 - m.bit_length()
    return m << shift, q - shift


def find(T: int, W: int, scale: int, y0: int, y1: int, k: int, count: int) -> list[int]:
    """The y in [y0, y1) that near_half counts, count of them, by bisection."""
    if count == 0:
        return []
    if y1 - y0 == 1:
        return [y0]
    mid = (y0 + y1) // 2
    left = near_half(T, W, scale, y0, mid, k)
    return find(T, W, scale, y0, mid, k, left) + find(T, W, scale, mid, y1, k, count - left)


@functools.cache
def near_half_doubles() -> np.ndarray:
    """Every positive double whose error interval, for a decimal exponent
    the C tries, comes within WIDE - 1 widths of a half point."""
    found = set()
    for scale, q, y0, y1, p, T, W in truncated():
        hits = find(T, W, scale, y0, y1, WIDE, near_half(T, W, scale, y0, y1, WIDE))
        found.update(math.ldexp(float(scale * y), q) for y in hits)
    return np.array(sorted(found))


def test_table_entries_follow_their_definition():
    for p in range(P_MIN, P_MAX + 1):
        T, t, exact = entry(p)
        assert 2**127 <= T < 2**128, p
        assert T <= Fraction(10) ** p / Fraction(2) ** t < T + 1, p
        assert exact == (0 <= p <= 55), p  # the exact entries _format.c names


def test_every_try_stays_in_the_table_and_the_shift_range():
    """For every binary exponent: the C's decimal exponent estimate is exact,
    both p it can try have a table entry, the shift of each product is in
    1..63, and the second try's value has fewer than 18 digits."""
    assert len(tries()) == 2 * 2098  # 2046 normal exponents, 52 subnormal bit lengths
    for scale, q, y0, y1, b, e, p, sh in tries():
        assert (scale * y0).bit_length() == (scale * (y1 - 1)).bit_length() == 64
        assert e == floor_log10_pow2(b), b
        assert P_MIN <= p <= P_MAX, (b, p)
        assert 1 <= sh <= 63, (b, p, sh)
        assert Fraction(2) ** (b + 1) <= Fraction(10) ** (e + 2), b  # |x| 10^(15 - e) < 1e17


def test_no_double_is_undecided():
    """No product of a truncated entry has a half point in its closed error
    interval: not inside it (undecided) and not on either end."""
    counts = [near_half(T, W, scale, y0, y1, 1) for scale, q, y0, y1, p, T, W in truncated()]
    assert len(counts) == 3824
    assert sum(counts) == 0


def test_floor_sum_matches_the_plain_sum():
    for n, m, a, b in itertools.product(range(0, 9), range(1, 8), range(-9, 10, 3), range(-11, 12, 4)):
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)


def test_widened_band_finds_doubles_the_direct_evaluation_confirms():
    """The same counter finds doubles in a band widened 2^16-fold; each is in
    the band by direct evaluation, and on windows around them the count
    equals a direct count. No product comes within 15 widths of a half
    point (k = 2^4), one within 31 (k = 2^5)."""
    assert sum(near_half(T, W, s, y0, y1, 2**4) for s, q, y0, y1, p, T, W in truncated()) == 0
    assert sum(near_half(T, W, s, y0, y1, 2**5) for s, q, y0, y1, p, T, W in truncated()) == 1
    doubles = near_half_doubles()
    assert len(doubles) == 312
    for x in doubles.tolist():
        m, q = c_mantissa(x)
        near = [try_ for try_ in truncated_by_q()[q] if gap(m, try_[4], try_[5]) <= WIDE - 1]
        assert near, x
        for scale, y0, y1, p, T, W in near:
            lo, hi = max(y0, m // scale - 2**7), min(y1, m // scale + 2**7)
            direct = sum(gap(scale * y, T, W) <= WIDE - 1 for y in range(lo, hi))
            assert near_half(T, W, scale, lo, hi, WIDE) == direct >= 1, (x, p)


def test_margin_to_the_nearest_half_point():
    """The nearest product to a half point, over all tries, lies 2^4.56
    widths from it (a first try at p = -199, |x| about 1.36e216, whose
    digits decimal() discards); over the tries whose digits are kept, 2^9.15
    widths (p = -49, |x| about 1.31e65)."""
    gaps = [(gap(m, T, W), 10**16 <= Fraction(x) * Fraction(10) ** p < 10**17)
            for x in near_half_doubles().tolist() for m, q in [c_mantissa(x)]
            for scale, y0, y1, p, T, W in truncated_by_q()[q]]
    assert 2**4.56 < min(g for g, kept in gaps) < 2**4.57
    assert 2**9.14 < min(g for g, kept in gaps if kept) < 2**9.15
