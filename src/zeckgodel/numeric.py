"""Arbitrary-precision Fibonacci arithmetic and the Cantor pairing bijection.

Fibonacci indexing convention used everywhere in this package:

    F_1 = 1, F_2 = 2, F_e = F_{e-1} + F_{e-2}

i.e. the sequence 1, 2, 3, 5, 8, 13, 21, ...  All indices are >= 1 so every
term is positive, which is what the coding layers require.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from math import isqrt

from .errors import ZeckGodelError

# Dense memo table is only grown up to this index; beyond it one-off values
# come from fast doubling (a full table to 2**16 would cost ~190 MB), and the
# conversions in zeckendorf use the table as the leaf of a divide and conquer.
FIB_TABLE_CAP = 1 << 14

# 10^4-scaled lower bound for log2(phi) = 0.69424...; dividing bit counts by
# this slightly overestimates Fibonacci indices, which is what the searchers
# need as a starting point.
_LOG2_PHI_E4 = 6942

_fib_table = [1, 2]  # _fib_table[i] == F_{i+1}
_fib_lock = threading.Lock()
# power of two m -> (F_m, F_{m-1}, F_{m-2}); the divide-and-conquer
# conversions split only there, so this holds one entry per bit of the
# largest index seen
_split_fibs: dict[int, tuple[int, int, int]] = {}


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


def fib(e: int) -> int:
    """F_e under the shifted convention (F_1 = 1, F_2 = 2)."""
    if e < 1:
        raise ZeckGodelError(f"Fibonacci index must be >= 1, got {e}")
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


def split_fibs(m: int) -> tuple[int, int, int]:
    """(F_m, F_{m-1}, F_{m-2}) for a power of two m >= 2, with F_0 = 1; cached."""
    fibs = _split_fibs.get(m)
    if fibs is None:
        if m < 2 or m & (m - 1):
            raise ZeckGodelError(f"split point must be a power of two >= 2, got {m}")
        a, b = _fib_pair(m)  # classical (F(m), F(m+1)) == shifted (F_{m-1}, F_m)
        fibs = _split_fibs.setdefault(m, (b, a, b - a))
    return fibs


def max_fib_index_le(n: int) -> int:
    """The unique e with F_e <= n < F_{e+1}.  Requires n >= 1."""
    if n < 1:
        raise ZeckGodelError("no positive Fibonacci number is <= 0")
    if n <= 2:
        return n
    if _fib_table[-1] < n and len(_fib_table) < FIB_TABLE_CAP:
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
    return (x + y) * (x + y + 1) // 2 + x


def cantor_unpair(p: int) -> tuple[int, int]:
    """Inverse of cantor_pair, exact at any magnitude (isqrt, no floats)."""
    w = (isqrt(8 * p + 1) - 1) // 2
    t = w * (w + 1) // 2
    x = p - t
    return x, w - x


def zeck_length_bound(n: int) -> int:
    """Upper bound on the number of terms in n's Zeckendorf decomposition.

    Computed as the largest Fibonacci index <= n rather than via real-valued
    logarithms; still a valid bound since supports live inside {1..e_max}.
    """
    if n == 0:
        return 0
    return max_fib_index_le(n)
