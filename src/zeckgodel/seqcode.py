"""Sequence coding over Zeckendorf supports.

A sequence [a_1, ..., a_m] is coded by the support {2*pair(a_i, i) + 1}:
every index is odd (distinct odd numbers are automatically >= 2 apart) and
carries its position, so decoding is unambiguous regardless of ordering.

Codes are kept in support form (a tuple of indices, which may themselves be
bignums for nested codes) and materialized to an exact integer only on
demand and only below a configurable size threshold.

Decoding unpairs each support index with an integer square root: the
inline ``math.isqrt`` for ordinary supports, and numeric's ``_unpair``
(``cantor_unpair`` without its domain check) on its Karatsuba square root
once the top index passes SQRT_LEAF_BITS, as a proof code's does.

``_splice_code`` encodes a list with every copy of one symbol replaced by
a block, for the substitution layer, by shifting supports.  Item a at
position i has index e = s(s+1) + 2a + 1 with s = a + i, so moving it p
places to the right maps e to e + p·t + p² with t = 2s + 1, which keeps a
block's indices in order.  The block's indices E and s values S, each sorted
(sorting by e sorts by s, so the two line up), and ONE, a 1 per lane, are
packed into lanes of w 64-bit words wide enough that no carry crosses a
lane, and T = 2S + ONE; each copy is then one big-integer expression,
E + p(T + p·ONE), read back as words in ascending order.  Indices order by (s, a), so a copy
overlaps its neighbours only by the spread of the block's s values: the
splice appends each copy, and each other symbol's index, as a sorted run,
and where a run starts below the last index so far it sorts only the two
overlapping ends, out's tail above the run's first index and the run's head
below out's last.

A support passed to ``SeqCode`` is validated; the supports the library
builds itself (``seq_encode``, ``from_number`` and the substitution splice)
are valid by construction and go through ``_trusted_code`` instead.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt
from collections.abc import Sequence

from .errors import CodeTooLargeError, InvalidSupportError, NotSequenceCodeError
from .numeric import SQRT_LEAF_BITS, _unpair
from .zeckendorf import fib_sum, is_valid_support, z_decode

# Largest support index for which to_number will build the exact integer.
# F_e has ~0.694*e bits, so this cap corresponds to ~23-Mbit numbers.
DEFAULT_MATERIALIZE_MAX_INDEX = 1 << 25

assert array("Q").itemsize == 8  # the packed splice reads 64-bit lanes


@dataclass(frozen=True)
class SeqCode:
    """A sequence code: canonical support plus an optional cached integer."""

    support: tuple[int, ...]
    number: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not is_valid_support(self.support):
            raise InvalidSupportError(
                f"not a Zeckendorf support: {list(self.support)[:8]}..."
                if len(self.support) > 8
                else f"not a Zeckendorf support: {list(self.support)}"
            )

    @property
    def max_index(self) -> int:
        return self.support[0] if self.support else 0

    def __repr__(self) -> str:
        if len(self.support) <= 8:
            return f"SeqCode(support=[{', '.join(map(_index_text, self.support))}])"
        head = ", ".join(map(_index_text, self.support[:4]))
        return f"SeqCode(support=[{head}, ...], len={len(self.support)})"


def _index_text(e: int) -> str:
    """An index in decimal, or by its bit length past 2,048 bits.

    2**2048 has 617 digits, under every int/str digit limit Python accepts.
    """
    return str(e) if e.bit_length() <= 2048 else f"<{e.bit_length()}-bit index>"


def _trusted_code(support: tuple[int, ...], number: int | None = None) -> SeqCode:
    """A SeqCode on a support the library built, skipping the validity check."""
    c = object.__new__(SeqCode)
    object.__setattr__(c, "support", support)
    object.__setattr__(c, "number", number)
    return c


def as_code(value: "SeqCode | int") -> SeqCode:
    """Coerce an exact natural to a SeqCode; SeqCodes pass through.

    Anything else raises InvalidSupportError.  A bool is an int here, as
    in seq_encode: True codes like 1 and False like 0.
    """
    if isinstance(value, SeqCode):
        return value
    if not isinstance(value, int) or value < 0:
        raise InvalidSupportError("a code must be a SeqCode or a natural number")
    return from_number(value)


def from_number(n: int) -> SeqCode:
    return _trusted_code(z_decode(n), n)


def bits_estimate(c: "SeqCode | int") -> int:
    """Upper bound on the bit size of the materialized code."""
    c = c if isinstance(c, SeqCode) else as_code(c)
    if c.number is not None:
        return c.number.bit_length()
    if not c.support:
        return 0
    return (6943 * c.max_index + 9999) // 10000 + 1


def to_number(c: "SeqCode | int", max_index: int | None = None) -> int:
    """Exact integer value of the code; refuses above the index threshold.

    A natural number is its own value; any other non-code raises as in as_code."""
    if isinstance(c, int) and c >= 0:
        return c
    c = as_code(c)
    if c.number is not None:
        return c.number
    cap = DEFAULT_MATERIALIZE_MAX_INDEX if max_index is None else max_index
    if c.max_index > cap:
        est = bits_estimate(c)
        raise CodeTooLargeError(
            f"code too large to materialize: max support index {c.max_index} "
            f"exceeds threshold {cap} (~{est} bits)",
            bits_estimate=est,
        )
    value = fib_sum(c.support)
    object.__setattr__(c, "number", value)  # idempotent cache fill
    return value


def seq_encode(items: Sequence[int]) -> SeqCode:
    """Code of [a_1, ..., a_m]; the empty sequence codes to 0.

    Raises InvalidSupportError unless every item is a natural number: a
    negative item pairs like some natural one, so its code would not be
    injective, and a fraction gives a fractional index.
    """
    if items and (not all(issubclass(k, int) for k in set(map(type, items))) or min(items) < 0):
        raise InvalidSupportError("sequence items must be natural numbers")
    # 2 * cantor_pair(a, i) + 1, inlined: a call per item would cost more than the arithmetic
    indices = [(a + i) * (a + i + 1) + 2 * a + 1 for i, a in enumerate(items, start=1)]
    indices.sort(reverse=True)
    return _trusted_code(tuple(indices), 0 if not indices else None)


def _splice_code(codes: list[int], target: int, replacement: list[int]) -> SeqCode:
    """Code of ``codes`` with every ``target`` replaced by ``replacement``.

    Equal to seq_encode of the spliced list, without building that list.
    """
    k, copies, order = len(replacement), codes.count(target), sys.byteorder
    width, block, step, one = 8, 0, 0, 0  # lane bytes; E, T and ONE packed
    if k and copies:
        s = [a + i for i, a in enumerate(replacement, start=1)]
        e = sorted([x * (x + 1) + 2 * a + 1 for x, a in zip(s, replacement)])
        s.sort()
        last = len(codes) + copies * (k - 1) - k  # no copy starts further right
        width = 8 * -(-(e[-1] + last * (2 * s[-1] + 1 + last)).bit_length() // 64)  # fits the largest lane value
        block, half = (
            int.from_bytes(array("Q", xs).tobytes(), order) if width == 8
            else int.from_bytes(b"".join(x.to_bytes(width, order) for x in xs), order)
            for xs in (e, s)
        )
        one = int.from_bytes((1).to_bytes(width, order) * k, order)
        step = 2 * half + one  # T, the lanes t = 2s + 1
    out, p = [], 0  # ascending; p counts the symbols emitted so far
    for a in codes:
        if a == target:
            if not k:
                continue
            raw = (block + p * (step + p * one)).to_bytes(width * k, order)
            run = array("Q", raw) if width == 8 else [
                int.from_bytes(raw[j : j + width], order) for j in range(0, len(raw), width)
            ]
            p += k
        else:
            p += 1
            run = ((a + p) * (a + p + 1) + 2 * a + 1,)
        if out and run[0] < out[-1]:
            # a seam: the indices out of order are out's tail above run[0]
            # and run's head below out[-1], so only those two are sorted
            j, m = bisect_right(out, run[0]), bisect_right(run, out[-1])
            out[j:] = sorted([*out[j:], *run[:m]])
            out += run[m:]
        else:
            out += run
    out.reverse()
    return _trusted_code(tuple(out), None if out else 0)


def _positions(c: SeqCode) -> list[int] | None:
    """The coded items in position order, or None if not a sequence code."""
    m = len(c.support)
    items: list[int | None] = [None] * m
    big = m and c.support[0].bit_length() > SQRT_LEAF_BITS
    for e in c.support:
        if not e & 1:
            return None
        p = e >> 1
        if big:
            a, i = _unpair(p)
        else:
            # cantor_unpair(p), inlined like seq_encode's pairing
            w = (isqrt(8 * p + 1) - 1) >> 1
            a = p - (w * (w + 1) >> 1)
            i = w - a
        # m items in m distinct slots fill every slot
        if not 1 <= i <= m or items[i - 1] is not None:
            return None
        items[i - 1] = a
    return items


def _items(c: "SeqCode | int") -> list[int] | None:
    """_positions of any value: None for a non-code, a non-natural included."""
    try:
        c = as_code(c)
    except InvalidSupportError:
        return None
    return _positions(c)


def is_code(c: "SeqCode | int") -> bool:
    return _items(c) is not None


def seq_decode(c: "SeqCode | int") -> list[int]:
    items = _positions(as_code(c))
    if items is None:
        raise NotSequenceCodeError("not a sequence code")
    return items


def seq_len(c: "SeqCode | int") -> int:
    """Number of coded elements; 0 for anything that is not a code."""
    items = _items(c)
    return 0 if items is None else len(items)


def symbol_at(c: "SeqCode | int", i: int) -> int:
    """The i-th element (1-based, by recovered position); 0 when undefined."""
    items = _items(c)
    if items is None or not 1 <= i <= len(items):
        return 0
    return items[i - 1]


def concat(left: "SeqCode | int", right: "SeqCode | int") -> SeqCode:
    return seq_encode(seq_decode(left) + seq_decode(right))
