import functools
import random
from collections import Counter
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import zeckgodel.numeric as numeric
import zeckgodel.zeckendorf as zeckendorf
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


# --- the split's kernels: sigma from a fixed-point sqrt(5), the quotient ----

def _sigma_oracle(a):
    x = a + 1
    return (isqrt(5 * x * x) - x) // 2


def _sigma(a):
    x = a + 1
    p = x.bit_length() + numeric.GUARD_BITS
    return zeckendorf._sigma(x, x * numeric.sqrt5_fixed(p), p)


def test_sigma_matches_the_exact_root_near_fibonacci_and_lucas_numbers(monkeypatch):
    # at x = F(j) and L(j) (classical), 5x^2 = L(j)^2 -+ 4 or 5F(j)^2 +- 4, so
    # x*sqrt(5) lies within about 1/x of an integer: the hardest values to round
    calls = []

    def counted(n):
        calls.append(n)
        return numeric._sqrtrem(n)

    monkeypatch.setattr(zeckendorf, "_sqrtrem", counted)
    f, g = 0, 1  # classical F(j), F(j+1)
    lucas = [2, 1]
    for j in range(1, 2_600):
        f, g = g, f + g
        lucas.append(lucas[-1] + lucas[-2])
        if j < 300 or j % 97 < 3:
            for x in (f - 1, f, f + 1, lucas[j] - 1, lucas[j] + 1):
                if x >= 1:
                    assert _sigma(x - 1) == _sigma_oracle(x - 1), (j, x)
    # at an even j past 2^GUARD_BITS, F(j)*sqrt(5) is just below L(j), inside
    # the truncation error, so the exact root decided
    assert any(m.bit_length() > 2 * numeric.GUARD_BITS for m in calls)


def test_sigma_matches_the_exact_root_on_random_values():
    rng = random.Random(58)
    for bits in (1, 5, 31, 32, 33, 64, 1000, 30_000):
        for _ in range(20):
            a = rng.getrandbits(bits)
            assert _sigma(a) == _sigma_oracle(a)


def _lucas(k):
    fk, _, fk2 = numeric.split_fibs(k)
    return fk + fk2


@pytest.mark.parametrize("k", [1 << 14, 1 << 15, 1 << 16, 1 << 17])
def test_z_decode_matches_greedy_just_past_each_power_of_two(k):
    # a top just past k splits there with a tiny high part and the whole
    # rest below; F_e +- 1 and L(k) +- 1 sit on the seams of both splits
    if k < 1 << 16:
        ns = [fib(e) + d for e in (k - 1, k, k + 1, k + 2, k + 3) for d in (-1, 0, 1)]
        ns += [_lucas(k) + d for d in (-1, 1)] + [_lucas(k // 2) * fib(k // 2 + 2) + d for d in (-1, 1)]
    elif k == 1 << 16:
        ns = [fib(k + 1) - 1, fib(k + 2) + 1, _lucas(k) + 1, _lucas(k // 2) * fib(k // 2 + 2) - 1]
    else:
        ns = [fib(k + 2) - 1, fib(k + 3) + _lucas(k // 2) + 1]
    for n in ns:
        assert list(z_decode(n)) == greedy_support(n), (k, n.bit_length())


def test_z_decode_at_the_edges_of_the_quotient_estimate():
    # n / L(k) - a is least when the rest is 0 and sigma(a) rounds down the
    # most, and greatest when the rest is F_{k+1} - 1 and sigma(a) barely
    # rounds; a near F_j and L_j makes (a+1)/phi nearly an integer
    k = numeric.FIB_TABLE_CAP
    rng = random.Random(3)
    bases = [fib(j) + d for j in (2, 11, 401, k - 2) for d in (-1, 0, 1)]
    bases += [_lucas(j) + d for j in (16, 1024) for d in (-1, 1)]
    bases += [rng.getrandbits(11_000) for _ in range(2)]
    full_rest = list(range(k, 0, -2))  # F_{k+1} - 1
    for a in bases:
        high = [e + k for e in z_decode(a)]
        for low in ([], [1], full_rest if high[-1] >= k + 2 else full_rest[1:]):
            support = high + low
            n = z_encode(support)
            assert list(z_decode(n)) == greedy_support(n) == support


# --- the table as a conversion finds it: grown by need, split past its end --

def _table_of(size):
    """Leave the shared Fibonacci table holding exactly `size` entries."""
    numeric.fib_table(size)
    with numeric._fib_lock:
        del numeric._fib_table[size:]


# the table a conversion may start from: bare, one first doubling, a length
# that is no power of two, full
_TABLE_SIZES = [2, 1 << 10, 1500, numeric.FIB_TABLE_CAP]
_greedy = functools.lru_cache(maxsize=None)(greedy_support)


@pytest.mark.parametrize("size", _TABLE_SIZES)
def test_conversions_match_greedy_from_any_table_length(size):
    # F_e and F_{e+1} at each power of two e, +-1: the leaf's edge lies at
    # one of them for every table length a conversion can grow to
    for j in range(1, 18):
        for e in (1 << j, (1 << j) + 1):
            for n in (fib(e) - 1, fib(e) + 1):
                support = _greedy(n)
                _table_of(size)
                assert list(z_decode(n)) == support, (size, e)
                _table_of(size)
                assert z_encode(support) == n, (size, e)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(_TABLE_SIZES), st.integers(1, 100_000).flatmap(lambda b: st.integers(0, (1 << b) - 1)))
def test_conversions_match_greedy_from_any_table_length_on_random_values(size, n):
    support = greedy_support(n)
    _table_of(size)
    assert list(z_decode(n)) == support
    _table_of(size)
    assert z_encode(support) == n


def test_the_table_grows_to_the_largest_top_seen():
    cap = numeric.FIB_TABLE_CAP
    _table_of(2)
    z_encode([700])
    assert len(numeric._fib_table) == 700  # a top under 2^10 is filled at once
    _table_of(2)
    z_encode([9_000])
    assert len(numeric._fib_table) == 1 << 10  # a larger one fills 2^10
    z_decode(numeric._fib_pair(5_000)[1])  # F_5000, not read off the table
    assert len(numeric._fib_table) == 1 << 11  # then one doubling a conversion
    z_encode([2_000, 5])
    assert len(numeric._fib_table) == 1 << 11  # and none for a top inside it
    rng = random.Random(20)
    for tops in ((700, 12_000, 5_000), (3_000, 40_000, 9_000)):  # largest top inside the cap, past it
        _table_of(2)
        supports = [_random_support(rng, top) for top in tops]
        seen = 0
        for _ in range(6):
            for support in supports:
                n = z_encode(support)
                assert z_decode(n) == tuple(support)
                seen = max(seen, numeric.fib_index_bound(n))
        assert len(numeric._fib_table) == min(seen, cap)


class _CountingRecips(dict):
    """numeric._split_recips, counting the reciprocals built at each level."""

    def __init__(self):
        super().__init__()
        self.builds = Counter()

    def __setitem__(self, m, value):
        self.builds[m] += 1
        super().__setitem__(m, value)


def test_a_cold_decode_builds_each_split_reciprocal_once(monkeypatch):
    # a top index of 2^17 with a random rest: each level below the top split
    # reads a high part and then a low part, often the longer of the two
    k = 1 << 17
    rng = random.Random(1)
    for _ in range(3):
        monkeypatch.setattr(numeric, "_split_recips", recips := _CountingRecips())
        n = fib(k) + rng.getrandbits(fib(k - 1).bit_length() - 1)
        assert z_decode(n)[0] == k
        assert recips.builds and set(recips.builds.values()) == {1}, recips.builds


def test_a_level_reached_by_a_high_chain_and_a_low_part_builds_once(monkeypatch):
    # a one-shot 40-bit (= n n) decode (top bound 158,039, table at 2^10)
    # reaches levels such as 2^11 first down the high part's chain, with a
    # residual bound between k and 2k, and later through a low part with 2k
    from zeckgodel.syntax import Eq, encode_syntax, numeral

    for n in (2**40 - 77, 2**40 - 1, 3**25):
        c = encode_syntax(Eq(numeral(n), numeral(n)))
        value = to_number(c)
        _table_of(2)
        monkeypatch.setattr(numeric, "_split_recips", recips := _CountingRecips())
        assert z_decode(value) == c.support
        assert len(numeric._fib_table) == 1 << 10
        assert len(recips.builds) > 5 and set(recips.builds.values()) == {1}, recips.builds
