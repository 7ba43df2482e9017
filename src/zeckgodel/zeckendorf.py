"""Zeckendorf encode/decode between naturals and non-consecutive index sets.

A support is a strictly decreasing tuple of Fibonacci indices with pairwise
gap >= 2; the empty tuple stands for 0.  Every natural has exactly one such
support.

Both directions read the memo table in numeric greedily for top indices up
to its length as it stands, and divide and conquer above that, splitting at
powers of two m and joining the halves with
F_{e+m} = F_e*F_m + F_{e-1}*F_{m-1} (F_0 = 1), in the manner of subquadratic
radix conversion (Brent and Zimmermann, Modern Computer Arithmetic, 1.7).
Each conversion first grows the table toward its top index by at most one
doubling (numeric._leaf_table), so a cold process fills about what it reads.
All arithmetic is exact integer arithmetic.

A decode split costs four multiplications and no big division or square
root: the high part's value comes from a reciprocal of the Lucas number L(k)
cached per level and sized once per decode, for every part the decode can
split at k (numeric.lucas_ratio), and sigma(a) = floor((a+1)/phi) from a
fixed-point sqrt(5) truncated to a's size (numeric.sqrt5_fixed), with an
exact square root only when the product lies too near an integer to round.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence

from .errors import InvalidSupportError
from .numeric import (
    GUARD_BITS,
    _leaf_table,
    _sqrtrem,
    fib_index_bound,
    lucas_ratio,
    split_fibs,
    sqrt5_fixed,
)


def is_valid_support(indices: Sequence[int]) -> bool:
    """True iff all ints >= 1, strictly decreasing, and no two indices adjacent."""
    prev = None
    for e in indices:
        if not isinstance(e, int) or e < 1:
            return False
        if prev is not None and prev - e < 2:
            return False
        prev = e
    return True


def z_encode(support: Iterable[int]) -> int:
    """Sum of F_e over the support; inverse of z_decode."""
    indices = tuple(support)
    if not is_valid_support(indices):
        raise InvalidSupportError(f"malformed Zeckendorf support {list(indices)}")
    return fib_sum(indices)


def fib_sum(indices: Sequence[int]) -> int:
    """Sum of F_e over strictly decreasing indices >= 1 (not re-validated)."""
    if not indices:
        return 0
    table = _leaf_table(indices[0])
    total = 0
    while indices and indices[0] > len(table):
        m, high, indices = _split(indices)
        fm, fm1, _ = split_fibs(m)
        a, b = _fib_sums(high, table)
        total += fm * a + fm1 * b
    return total + sum(table[e - 1] for e in indices)


def _fib_sums(indices: Sequence[int], table: list[int]) -> tuple[int, int]:
    """(sum of F_e, sum of F_{e-1}) over non-empty decreasing indices >= 1."""
    if indices[0] <= len(table):
        return (
            sum(table[e - 1] for e in indices),
            sum(table[e - 2] if e > 1 else 1 for e in indices),
        )
    m, high, low = _split(indices)
    fm, fm1, fm2 = split_fibs(m)
    a, b = _fib_sums(high, table)
    total, shifted = fm * a + fm1 * b, fm1 * a + fm2 * b
    if low:
        c, d = _fib_sums(low, table)
        total, shifted = total + c, shifted + d
    return total, shifted


def _split_point(top: int) -> int:
    """The largest power of two below top, so both sides of it have top <= it."""
    return 1 << (top - 1).bit_length() - 1


def _split(indices: Sequence[int]) -> tuple[int, list[int], Sequence[int]]:
    """(m, the indices above m shifted down by m, the rest) for m = _split_point(top)."""
    m = _split_point(indices[0])
    cut = next((i for i, e in enumerate(indices) if e <= m), len(indices))
    return m, [e - m for e in indices[:cut]], indices[cut:]


def z_decode(n: int) -> tuple[int, ...]:
    """Zeckendorf support of n, indices in decreasing order."""
    if not isinstance(n, int) or n < 0:
        raise InvalidSupportError("only a natural number has a Zeckendorf support")
    out: list[int] = []
    if n:
        top = fib_index_bound(n)
        _decode_into(n, top, 0, out, _leaf_table(top), top)
    return tuple(out)


def _sigma(x: int, v: int, p: int) -> int:
    """sigma(x - 1) = floor(x/phi) = (floor(x*sqrt(5)) - x) // 2, for
    0 <= x <= 2**p and v = x * sqrt5_fixed(p).

    sigma(a) is the sum of F_{e-1} over a's support.  x*sqrt(5) lies in
    [v, v + x) / 2**p, so v >> p is its floor unless the fraction of
    v / 2**p is within x / 2**p of 1; then the exact root decides.
    """
    t = v >> p
    if (v & (1 << p) - 1) + x > 1 << p:
        t = _sqrtrem(5 * x * x)[0]
    return (t - x) >> 1


def _decode_into(n: int, hi: int, shift: int, out: list[int], table: list[int], top: int) -> None:
    """Append shift + e for each e in n's support, decreasing; 0 < n < F_{hi+1}.

    top is the whole decode's bound.  A split at k has hi <= min(top, 2k),
    so sizing k's reciprocal for that bound builds it once per decode.
    """
    if hi <= len(table):
        # greedy: after picking F_e the remainder is < F_{e-1}, so no two
        # picked indices are consecutive
        while n:
            e = bisect_right(table, n)
            out.append(e + shift)
            n -= table[e - 1]
        return
    # Split n's support at k: the part above k, shifted down by k, codes some
    # a and contributes high(a) = F_k*a + F_{k-1}*sigma(a); the rest is
    # < F_{k+1}, and a is the largest value with high(a) <= n.
    k = _split_point(hi)
    fk, fk1, _ = split_fibs(k)
    if n < fk + fk1:  # n < F_{k+1} = high(1)
        a = high = 0
    else:
        # Up to terms of order phi^-k, n/L(k) - a = (1/phi - f)/sqrt(5) +
        # rest/L(k), f in (0, 1) being the fraction sigma(a) drops and
        # rest/L(k) < phi^2/sqrt(5).  That lies in (-0.171, 1.448), so with
        # the ratio's error below 2**-GUARD_BITS, n/L(k) + 3/8 rounds down to
        # a or a + 1.
        v, w = lucas_ratio(n, k, min(top, 2 * k))
        a = (v + (3 << w - 3)) >> w
        x = a + 1
        p = x.bit_length() + GUARD_BITS
        s5 = sqrt5_fixed(p)
        xs = x * s5
        sigma = _sigma(x, xs, p)
        high = fk * a + fk1 * sigma
        if high > n:
            # one step down; sigma(a-1) is sigma(a) or one less, read off a*s5 = xs - s5
            high -= fk if _sigma(a, xs - s5, p) == sigma else fk + fk1
            a -= 1
    if a:
        _decode_into(a, hi - k, shift + k, out, table, top)
    if n > high:
        _decode_into(n - high, k, shift, out, table, top)
