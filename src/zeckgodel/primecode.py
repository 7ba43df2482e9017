"""Classical prime-exponent numbering as a baseline, plus size benchmarks.

Code_P([a_1..a_m]) = prod p_i^a_i requires every a_i >= 1 (a zero exponent
would erase the symbol) and decoding is honest trial division, which is the
cost the comparison is meant to expose.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass
from collections.abc import Sequence

from .errors import PrimeCodingError
from .seqcode import _splice_code, seq_decode, seq_encode, to_number

_primes = [2, 3, 5, 7, 11, 13]

DEFAULT_PRIME_LIMIT = 10_000


def _ensure_primes(count: int) -> None:
    candidate = _primes[-1]
    while len(_primes) < count:
        candidate += 2
        if all(candidate % p for p in _primes if p * p <= candidate):
            _primes.append(candidate)


def prime(i: int) -> int:
    """The i-th prime, 1-based (prime(1) == 2)."""
    if i < 1:
        raise PrimeCodingError(f"prime index must be >= 1, got {i}")
    _ensure_primes(i)
    return _primes[i - 1]


def prime_table(count: int) -> list[int]:
    _ensure_primes(count)
    return _primes[:count]


def code_p(seq: Sequence[int]) -> int:
    """prod p_i^a_i; empty sequence codes to 1."""
    out = 1
    for i, a in enumerate(seq, start=1):
        if a < 1:
            raise PrimeCodingError(
                f"symbol value 0 not representable under prime coding (position {i})"
            )
        out *= prime(i) ** a
    return out


def decode_p(n: int, max_primes: int = DEFAULT_PRIME_LIMIT) -> list[int]:
    """Invert code_p by trial division over consecutive primes."""
    if n < 1:
        raise PrimeCodingError(f"prime codes are >= 1, got {n}")
    out: list[int] = []
    i = 0
    while n > 1:
        i += 1
        if i > max_primes:
            raise PrimeCodingError(f"factor exceeds table of {max_primes} primes")
        p = prime(i)
        a = 0
        while n % p == 0:
            a += 1
            n //= p
        if a == 0:
            raise PrimeCodingError(f"gap in prime support at p_{i} = {p}")
        out.append(a)
    return out


def sub_prime(formula_seq: Sequence[int], term_seq: Sequence[int], target_code: int) -> int:
    """Splice term_seq over occurrences of target_code, then re-encode."""
    spliced: list[int] = []
    for a in formula_seq:
        if a == target_code:
            spliced.extend(term_seq)
        else:
            spliced.append(a)
    return code_p(spliced)


@dataclass(frozen=True)
class SizeReport:
    sequence_length: int
    zeck_bits: int
    prime_bits: int
    zeck_max_index: int
    zeck_encode_s: float
    prime_encode_s: float
    zeck_sub_s: float
    prime_sub_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _capacity_bits(n: int) -> int:
    # ceil(log2 n): 1 for the code 2, 7 for 72; 0 for the empty codes 0 and 1
    return (n - 1).bit_length() if n >= 1 else 0


def _median_time(fn, runs: int = 5) -> float:
    samples = []
    fn()  # warm caches before timing
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def compare_sizes(seq: Sequence[int], runs: int = 5) -> SizeReport:
    """Measure both codings of one sequence: exact bit sizes plus timings.

    The timed substitution replaces every occurrence of the first symbol
    with that symbol doubled, exercising decode + splice + re-encode under
    both schemes (trial division on the prime side).
    """
    seq = list(seq)
    zc = seq_encode(seq)
    zn = to_number(zc)
    pn = code_p(seq)

    zeck_encode_s = _median_time(lambda: sum_encode(seq), runs)
    prime_encode_s = _median_time(lambda: code_p(seq), runs)

    if seq:
        target = seq[0]
        block = [target, target]

        def zeck_sub():
            return to_number(_splice_code(seq_decode(zc), target, block))

        def prime_sub():
            return sub_prime(decode_p(pn), block, target)

        zeck_sub_s = _median_time(zeck_sub, runs)
        prime_sub_s = _median_time(prime_sub, runs)
    else:
        zeck_sub_s = prime_sub_s = 0.0

    return SizeReport(
        sequence_length=len(seq),
        zeck_bits=_capacity_bits(zn),
        prime_bits=_capacity_bits(pn),
        zeck_max_index=zc.max_index,
        zeck_encode_s=zeck_encode_s,
        prime_encode_s=prime_encode_s,
        zeck_sub_s=zeck_sub_s,
        prime_sub_s=prime_sub_s,
    )


def sum_encode(seq: Sequence[int]) -> int:
    """Full Zeckendorf encode of a sequence to its exact integer value."""
    return to_number(seq_encode(seq))
