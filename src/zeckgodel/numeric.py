"""Arbitrary-precision Fibonacci arithmetic and the Cantor pairing bijection.

Fibonacci indexing convention used everywhere in this package:

    F_1 = 1, F_2 = 2, F_e = F_{e-1} + F_{e-2}

i.e. the sequence 1, 2, 3, 5, 8, 13, 21, ...  All indices are >= 1 so every
term is positive, which is what the coding layers require.

CPython's ``math.isqrt`` and ``//`` are quadratic in the operand size, while
its multiplication is Karatsuba, so the big-integer kernels here lean on
multiplication (Brent and Zimmermann, Modern Computer Arithmetic, 1.5-1.7):

- ``_divmod`` is Burnikel and Ziegler's recursive division (Fast Recursive
  Division, MPI-I-98-1-022; Brent and Zimmermann 1.4.3) for quotients and
  divisors past DIV_LEAF_BITS, with the built-in ``divmod`` as its leaf.  It
  is the one quotient routine of the kernels below; a caller keeps a
  quotient under the leaf on the built-in inline.
- ``_sqrtrem`` is Zimmermann's Karatsuba square root (SqrtRem, INRIA RR-3805)
  above SQRT_LEAF_BITS, with ``math.isqrt`` as its leaf.  Its divisions are a
  quarter of the operand's size.
- ``split_fibs(m)`` is (F_m, F_{m-1}, F_{m-2}) at a power of two m, doubled
  up from the largest power already cached.
- ``lucas_ratio(n, m, top)`` reads n / L(m), L(m) the Lucas number, off a
  reciprocal cached per power of two m, with one multiplication.  The
  reciprocal is sized from a bound the decode passes, n < F_{top+1}, not
  from n itself, and is one quotient.
- ``sqrt5_fixed(p)`` is floor(sqrt(5) * 2**p), truncated from one cached
  value.

The memo table [F_1, F_2, ...] is the greedy leaf of the conversions in
zeckendorf, which split off whatever it lacks.  A conversion grows it toward
its own top index by at most one doubling, and never past FIB_TABLE_CAP, so a
one-shot conversion fills little more than it reads.  Each cache is built on
first use, and rebuilt more precise only when a call needs more precision
than it holds; importing builds nothing.

The public entries (fib, max_fib_index_le, cantor_pair, cantor_unpair,
zeck_length_bound) check their arguments once and raise InvalidSupportError
on anything but a natural in their domain; the kernels, and ``_unpair`` for
the callers in seqcode, take naturals unchecked.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from math import isqrt

from .errors import InvalidSupportError, ZeckGodelError

# Dense memo table is only grown up to this index; beyond it one-off values
# come from fast doubling (a full table to 2**16 would cost ~190 MB), and the
# conversions in zeckendorf use the table as it stands as the leaf of a
# divide and conquer.
FIB_TABLE_CAP = 1 << 14

# 10^4-scaled lower bound for log2(phi) = 0.69424...; dividing bit counts by
# this slightly overestimates Fibonacci indices, which is what the searchers
# need as a starting point.
_LOG2_PHI_E4 = 6942

# Up to this many bits a square root is math.isqrt; above it, SqrtRem splits
# the operand, which pays from about 3 kbit on CPython 3.11.
SQRT_LEAF_BITS = 2048

# Up to this many bits of quotient or divisor a division is the built-in
# divmod (schoolbook in CPython 3.11); above both, _divmod recurses, which
# pays from about 5 kbit of quotient on CPython 3.11.
DIV_LEAF_BITS = 3000

# Fixed-point values carry this many bits beyond what they are multiplied
# with, so a truncated product is off by less than 2**-GUARD_BITS.
GUARD_BITS = 32

_fib_table = [1, 2]  # _fib_table[i] == F_{i+1}
_fib_lock = threading.Lock()
# power of two m -> (F_m, F_{m-1}, F_{m-2}); the divide-and-conquer
# conversions split only there, so this holds one entry per bit of the
# largest index seen
_split_fibs: dict[int, tuple[int, int, int]] = {}
# power of two m -> (s, q, floor(2**q / L(m))), lucas_ratio's reciprocal
_split_recips: dict[int, tuple[int, int, int]] = {}
# 0 -> (p, floor(sqrt(5) * 2**p)) at the largest precision p asked for yet
_sqrt5: dict[int, tuple[int, int]] = {}


def _fib_pair(n: int) -> tuple[int, int]:
    """Classical-convention fast doubling: (F(n), F(n+1)) with F(0)=0, F(1)=1."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def _extend_table(e: int) -> None:
    with _fib_lock:
        while len(_fib_table) < e:
            _fib_table.append(_fib_table[-1] + _fib_table[-2])


def _check_natural(value, what: str, least: int = 0) -> None:
    """The public entries' domain check: value must be an int >= least.

    A bool passes as an int, as everywhere in the package.  The message
    shows a wrong int only up to 64 bits, since a huge one cannot be
    formatted under Python's int/str digit limit.
    """
    if not isinstance(value, int) or value < least:
        got = value if isinstance(value, int) and value.bit_length() <= 64 else type(value).__name__
        raise InvalidSupportError(f"{what} must be an integer >= {least}, got {got}")


def fib(e: int) -> int:
    """F_e under the shifted convention (F_1 = 1, F_2 = 2)."""
    _check_natural(e, "a Fibonacci index", 1)
    if e <= FIB_TABLE_CAP:
        return fib_table(e)[e - 1]
    # shifted convention: F_e here is the classical F(e+1)
    return _fib_pair(e)[1]


def fib_table(e: int) -> list[int]:
    """The shared memo list [F_1, F_2, ...], grown to hold at least F_e.

    Callers only read it; e must not exceed FIB_TABLE_CAP.
    """
    if e > len(_fib_table):
        _extend_table(e)
    return _fib_table


def _leaf_table(top: int) -> list[int]:
    """The shared memo list, grown toward F_top for a conversion with top index top.

    A shorter table grows by at most one doubling, to 2**10 at first, and
    never past min(top, FIB_TABLE_CAP), so repeated conversions leave it at
    min(the largest top seen, FIB_TABLE_CAP).
    """
    size = len(_fib_table)
    if size < top and size < FIB_TABLE_CAP:
        _extend_table(min(top, FIB_TABLE_CAP, max(1 << 10, 2 * size)))
    return _fib_table


def split_fibs(m: int) -> tuple[int, int, int]:
    """(F_m, F_{m-1}, F_{m-2}) for a power of two m >= 2, with F_0 = 1; cached.

    A missing m doubles up from the largest cached power of two below it,
    caching each power on the way, so the powers up to m cost one doubling
    each whatever order they are asked in.
    """
    fibs = _split_fibs.get(m)
    if fibs is None:
        if m < 2 or m & (m - 1):
            raise ZeckGodelError(f"split point must be a power of two >= 2, got {m}")
        j = m >> 1
        while j > 1 and j not in _split_fibs:
            j >>= 1
        # classical (F(j), F(j+1)) == shifted (F_{j-1}, F_j); F(1) = F(2) = 1
        b, a, _ = _split_fibs.get(j, (1, 1, 0))
        while j < m:
            a, b = a * (2 * b - a), a * a + b * b
            j <<= 1
            fibs = _split_fibs.setdefault(j, (b, a, b - a))
    return fibs


def lucas_ratio(n: int, m: int, top: int = 0) -> tuple[int, int]:
    """(v, w) with n/L(m) - 2**-GUARD_BITS < v / 2**w <= n/L(m).

    L(m) = F_m + F_{m-2} is the Lucas number, m a power of two >= 2, and
    n >= L(m).  The ratio is one multiplication of quotient-sized operands:
    n without its low s bits (an error under 2**s / L(m) <=
    2**(-GUARD_BITS-1)), times a reciprocal floor(2**q / L(m)) truncated to
    t = bits(n) + GUARD_BITS + 1 bits past the point (an error under
    n / 2**t < 2**(-GUARD_BITS-1)).  The reciprocal is cached per m and
    built for every n < F_{top+1}, the bound a decode passes, so calls
    at m under the same bound share one quotient.  A larger n rebuilds
    it with at least twice the quotient bits, so a small quotient never
    pays for a large one.
    """
    t = n.bit_length() + GUARD_BITS + 1
    recip = _split_recips.get(m)
    if recip is None or recip[1] < t:
        fm, _, fm2 = split_fibs(m)
        lucas = fm + fm2
        bits = lucas.bit_length()
        # F_{top+1} <= phi**(top+1), and log2(phi) < 0.6943
        q = max(t, (top + 1) * (_LOG2_PHI_E4 + 1) // 10000 + GUARD_BITS + 2)
        if recip is not None:
            q = max(q, 2 * recip[1] - bits)
        inv = (1 << q) // lucas if q - bits <= DIV_LEAF_BITS else _divmod(1 << q, lucas)[0]
        recip = _split_recips[m] = (max(0, bits - GUARD_BITS - 2), q, inv)
    s, q, r = recip
    return (n >> s) * (r >> q - t), t - s


def sqrt5_fixed(p: int) -> int:
    """floor(sqrt(5) * 2**p), truncated from the most precise value so far.

    A request past that precision computes the root again at p, or at twice
    the old precision if that is more, so rising requests cost few roots.
    """
    top, s = _sqrt5.get(0, (0, 2))
    if top < p:
        top = max(p, 2 * top)
        s = _sqrtrem(5 << 2 * top)[0]
        _sqrt5[0] = (top, s)
    return s >> top - p


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0, by Burnikel and Ziegler's division.

    With a quotient or a divisor of at most DIV_LEAF_BITS bits it is the
    built-in.  Otherwise a is read from the top in digits of n = bits(b),
    and each remainder-and-digit pair, below b * 2**n, is one _div2by1.
    """
    n = b.bit_length()
    if n <= DIV_LEAF_BITS or a.bit_length() - n <= DIV_LEAF_BITS:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2by1(r << n | a >> shift & mask, b, n)
        q = q << n | digit
    return q, r


def _div2by1(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and a < b * 2**n.

    The quotient's upper and lower halves are each a _div3by2 by b split
    at h = n / 2 (n made even by doubling a and b).
    """
    if a.bit_length() - n <= DIV_LEAF_BITS:
        return divmod(a, b)
    odd = n & 1
    if odd:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b0 = b >> h, b & mask
    q1, r = _div3by2(a >> n, a >> h & mask, b, b1, b0, h)
    q0, r = _div3by2(r, a & mask, b, b1, b0, h)
    return q1 << h | q0, r >> odd


def _div3by2(a1: int, a0: int, b: int, b1: int, b0: int, h: int) -> tuple[int, int]:
    """divmod(a1 * 2**h + a0, b) for b = b1 * 2**h + b0, b1 of exactly h
    bits, a0 < 2**h and a1 < b.

    The quotient by b1 alone, capped at 2**h - 1, overshoots by at most two,
    because b1's top bit is set; the remainder's sign corrects it.
    """
    if a1 >> h == b1:
        q, r = (1 << h) - 1, a1 - (b1 << h) + b1
    else:
        q, r = _div2by1(a1, b1, h)
    r = (r << h | a0) - q * b0
    while r < 0:
        q -= 1
        r += b
    return q, r


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) for s = floor(sqrt(n)), by Zimmermann's SqrtRem.

    With b = 2**l, n = A*b**2 + a1*b + a0 where a1, a0 < b.  From
    A = s'**2 + r' it takes q, u = _divmod(r'*b + a1, 2*s'), so s = s'*b + q
    and n - s**2 = u*b + a0 - q**2 exactly.  Splitting at l = (bits - 1) // 4
    leaves A >= b**2, hence s' >= b and q <= b: that bound is the
    normalization which keeps the remainder above -2s, so one correction
    step is enough.
    """
    if n.bit_length() <= SQRT_LEAF_BITS:
        s = isqrt(n)
        return s, n - s * s
    l = (n.bit_length() - 1) >> 2
    mask = (1 << l) - 1
    s, r = _sqrtrem(n >> 2 * l)
    num, den = (r << l) | (n >> l & mask), s << 1
    q, u = divmod(num, den) if l <= DIV_LEAF_BITS else _divmod(num, den)
    s = (s << l) + q
    r = (u << l) + (n & mask) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    return s, r


def max_fib_index_le(n: int) -> int:
    """The unique e with F_e <= n < F_{e+1}.  Requires n >= 1."""
    _check_natural(n, "a number bracketed by Fibonacci numbers", 1)
    if n <= 2:
        return n
    # F_e <= phi**e and log2(phi) < 0.6943, so an n longer than this lies
    # past the last entry the table can hold and is never looked up there
    in_reach = n.bit_length() <= FIB_TABLE_CAP * (_LOG2_PHI_E4 + 1) // 10000 + 1
    if in_reach and _fib_table[-1] < n and len(_fib_table) < FIB_TABLE_CAP:
        _extend_table(min(FIB_TABLE_CAP, fib_index_bound(n)))
    if n <= _fib_table[-1]:
        return bisect_right(_fib_table, n)
    # beyond the table: start near the answer and walk to F_e <= n < F_{e+1}
    e = fib_index_bound(n)
    a, b = _fib_pair(e + 1)  # classical (F(e+1), F(e+2)) == shifted (F_e, F_{e+1})
    while a > n:
        a, b = b - a, a
        e -= 1
    while b <= n:
        a, b = b, a + b
        e += 1
    return e


def fib_index_bound(n: int) -> int:
    """An index e, a few above max_fib_index_le(n), so that n < F_{e+1}."""
    # log2(F_e) ~ 0.694*e - 0.47, so bits(n)/log2(phi) + 4 always overshoots
    return n.bit_length() * 10000 // _LOG2_PHI_E4 + 4


def cantor_pair(x: int, y: int) -> int:
    _check_natural(x, "a paired value")
    _check_natural(y, "a paired value")
    return (x + y) * (x + y + 1) // 2 + x


def cantor_unpair(p: int) -> tuple[int, int]:
    """Inverse of cantor_pair, exact at any magnitude (integer square root, no floats)."""
    _check_natural(p, "an unpaired value")
    return _unpair(p)


def _unpair(p: int) -> tuple[int, int]:
    """cantor_unpair without the domain check, for callers holding a natural.

    With w = x + y, 8p + 1 = (2w + 1)**2 + 8x and 0 <= x <= w, so the root
    t of 8p + 1 is 2w + 1 or 2w + 2, and x comes off SqrtRem's remainder r
    with no second square: x = r / 8 for odd t, (r + 2t - 1) / 8 for even t.
    """
    t, r = _sqrtrem(8 * p + 1)
    x = (r if t & 1 else r + 2 * t - 1) >> 3
    return x, (t - 1 >> 1) - x


def zeck_length_bound(n: int) -> int:
    """Upper bound on the number of terms in n's Zeckendorf decomposition.

    Computed as the largest Fibonacci index <= n rather than via real-valued
    logarithms; still a valid bound since supports live inside {1..e_max}.
    """
    _check_natural(n, "a Zeckendorf-coded number")
    return max_fib_index_le(n) if n else 0
