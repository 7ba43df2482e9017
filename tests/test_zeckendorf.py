import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import zeckgodel.numeric as numeric
from zeckgodel.errors import InvalidSupportError
from zeckgodel.numeric import fib, zeck_length_bound
from zeckgodel.seqcode import SeqCode, to_number
from zeckgodel.zeckendorf import is_valid_support, z_decode, z_encode

from helpers import fib_list, greedy_support


def test_encode_examples():
    assert z_encode([7, 5, 3]) == 32
    assert z_encode([]) == 0
    assert z_encode([4]) == 5


def test_decode_examples():
    assert z_decode(32) == (7, 5, 3)
    assert z_decode(0) == ()


def test_is_valid_support():
    assert is_valid_support([7, 5, 3])
    assert is_valid_support([])
    assert not is_valid_support([4, 3])      # consecutive
    assert not is_valid_support([3, 5])      # not decreasing
    assert not is_valid_support([5, 5])
    assert not is_valid_support([2, 0])      # index below 1


def test_encode_rejects_malformed_supports():
    for bad in ([4, 3], [3, 5], [1, 1], [0]):
        with pytest.raises(InvalidSupportError):
            z_encode(bad)


def test_roundtrip_exhaustive_small():
    for n in range(100_001):
        support = z_decode(n)
        assert z_encode(support) == n
        assert len(support) <= zeck_length_bound(n)


def test_roundtrip_random_256bit():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.getrandbits(256)
        assert z_encode(z_decode(n)) == n


def test_decode_matches_independent_greedy():
    rng = random.Random(99)
    candidates = list(range(0, 2000)) + [rng.getrandbits(128) for _ in range(200)]
    for n in candidates:
        assert list(z_decode(n)) == greedy_support(n)


def test_uniqueness_brute_force():
    # every valid gap->=2 subset of {1..17} has a distinct sum; each n <= 2000
    # is hit exactly once
    fibs = fib_list(17)
    counts: Counter[int] = Counter()
    indices = list(range(1, 18))
    for k in range(0, 10):
        for combo in combinations(indices, k):
            support = tuple(sorted(combo, reverse=True))
            if is_valid_support(support):
                counts[sum(fibs[e - 1] for e in support)] += 1
    for n in range(1, 2001):
        assert counts[n] == 1, f"expected exactly one support for {n}, got {counts[n]}"
    assert counts[0] == 1  # the empty support


def test_greedy_remainder_below_previous_fib():
    # after picking F_e the remainder is < F_{e-1}, which bans consecutive picks
    for n in range(1, 20_000):
        rem = n
        for e in z_decode(n):
            rem -= fib(e)
            if e >= 2:
                assert rem < fib(e - 1)
        assert rem == 0


def test_decode_beyond_table_cap():
    support = (40_000, 25_000, 17_000, 3, 1)
    n = sum(fib(e) for e in support)
    assert z_decode(n) == support


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=1 << 512))
def test_roundtrip_property(n):
    support = z_decode(n)
    assert is_valid_support(support)
    assert z_encode(support) == n


def _random_support(rng, top):
    support, e = [], top
    while e >= 1:
        if e == top or rng.random() < 0.3:
            support.append(e)
            e -= 2
        else:
            e -= 1
    return support


def test_conversions_match_oracles_across_the_table_cap():
    # tops from well inside the table to just past 2^15: the table leaf alone,
    # one split at k = 2^14, and splits at 2^15 and then 2^14
    k = numeric.FIB_TABLE_CAP
    fibs = fib_list(2 * k + 8)
    rng = random.Random(2014)
    tops = [1_000, 9_000, k - 1, k, k + 1, k + 2, 20_000, 30_000, 2 * k - 1, 2 * k, 2 * k + 1, 2 * k + 7]
    supports = [_random_support(rng, top) for top in tops]
    # the seams: k+1 with and without k-1 below it, k+2 over k, the same at 2k
    supports += [
        [k + 1],
        [30_000, k + 1, k - 1, 3],
        [30_000, k + 1, 7],
        [30_000, k + 2, k, 1],
        [2 * k + 7, 2 * k + 1, 2 * k - 1, k + 1, k - 1],
    ]
    for support in supports:
        n = sum(fibs[e - 1] for e in support)
        assert z_encode(support) == n
        assert to_number(SeqCode(tuple(support))) == n
        assert list(z_decode(n)) == greedy_support(n)
    edges = [fibs[e - 1] + d for e in (k, k + 1, 2 * k, 2 * k + 1) for d in (-1, 0, 1)]
    for m in (k, 2 * k):
        lucas = fibs[m - 1] + fibs[m - 3]  # L(m) = F_m + F_{m-2}, the quotient's divisor at split m
        edges += [lucas - 1, lucas, lucas + 1]
    for n in edges:
        assert list(z_decode(n)) == greedy_support(n)


def test_split_cache_holds_only_powers_of_two():
    z_decode(fib(3 * numeric.FIB_TABLE_CAP + 5) + 7)
    z_encode([5 * numeric.FIB_TABLE_CAP + 3, 2 * numeric.FIB_TABLE_CAP + 1, 4])
    keys = list(numeric._split_fibs)
    assert keys and all(m & (m - 1) == 0 for m in keys)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60_000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
def test_roundtrip_property_past_the_table(n):
    support = z_decode(n)
    assert is_valid_support(support)
    assert fib(support[0]) <= n < fib(support[0] + 1)
    assert z_encode(support) == n
