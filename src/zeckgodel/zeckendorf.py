"""Zeckendorf encode/decode between naturals and non-consecutive index sets.

A support is a strictly decreasing tuple of Fibonacci indices with pairwise
gap >= 2; the empty tuple stands for 0.  Every natural has exactly one such
support.

Both directions use the memo table in numeric for top indices up to
FIB_TABLE_CAP and divide and conquer above it, splitting at powers of two m
and joining the halves with F_{e+m} = F_e*F_m + F_{e-1}*F_{m-1} (F_0 = 1), in
the manner of subquadratic radix conversion (Brent and Zimmermann, Modern
Computer Arithmetic, 1.7).  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from math import isqrt

from .errors import InvalidSupportError
from .numeric import FIB_TABLE_CAP, fib_index_bound, fib_table, split_fibs


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
    total = 0
    while indices and indices[0] > FIB_TABLE_CAP:
        m, high, indices = _split(indices)
        fm, fm1, _ = split_fibs(m)
        a, b = _fib_sums(high)
        total += fm * a + fm1 * b
    if indices:
        table = fib_table(indices[0])
        total += sum(table[e - 1] for e in indices)
    return total


def _fib_sums(indices: Sequence[int]) -> tuple[int, int]:
    """(sum of F_e, sum of F_{e-1}) over non-empty decreasing indices >= 1."""
    if indices[0] <= FIB_TABLE_CAP:
        table = fib_table(indices[0])
        return (
            sum(table[e - 1] for e in indices),
            sum(table[e - 2] if e > 1 else 1 for e in indices),
        )
    m, high, low = _split(indices)
    fm, fm1, fm2 = split_fibs(m)
    a, b = _fib_sums(high)
    total, shifted = fm * a + fm1 * b, fm1 * a + fm2 * b
    if low:
        c, d = _fib_sums(low)
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
    if n < 0:
        raise InvalidSupportError("cannot decode a negative number")
    out: list[int] = []
    if n:
        _decode_into(n, fib_index_bound(n), 0, out)
    return tuple(out)


def _shift_down(a: int) -> int:
    """Sum of F_{e-1} over a's support, which is floor((a+1)/phi), exactly."""
    x = a + 1
    return (isqrt(5 * x * x) - x) // 2


def _decode_into(n: int, hi: int, shift: int, out: list[int]) -> None:
    """Append shift + e for each e in n's support, decreasing; 0 < n < F_{hi+1}."""
    if hi <= FIB_TABLE_CAP:
        # greedy: after picking F_e the remainder is < F_{e-1}, so no two
        # picked indices are consecutive
        table = fib_table(hi)
        while n:
            e = bisect_right(table, n)
            out.append(e + shift)
            n -= table[e - 1]
        return
    # Split n's support at k: the part above k, shifted down by k, codes some
    # a and contributes high(a) = F_k*a + F_{k-1}*sigma(a); the rest is
    # < F_{k+1}.  high(a+1) - high(a) is F_k, or F_{k+1} whenever the rest
    # could reach F_k, so a is the largest value with high(a) <= n.
    k = _split_point(hi)
    fk, fk1, fk2 = split_fibs(k)
    a = n // (fk + fk2)  # the Lucas number L(k) ~ phi^k puts a within one of the answer
    while (high := fk * a + fk1 * _shift_down(a)) > n:
        a -= 1
    # a rest below F_k settles it without evaluating high(a+1)
    while n - high >= fk and (bigger := fk * (a + 1) + fk1 * _shift_down(a + 1)) <= n:
        a, high = a + 1, bigger
    if a:
        _decode_into(a, hi - k, shift + k, out)
    if n > high:
        _decode_into(n - high, k, shift, out)
