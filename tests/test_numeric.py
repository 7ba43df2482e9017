import os
import random
import subprocess
import sys
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import zeckgodel
from zeckgodel.errors import InvalidSupportError, ZeckGodelError
from zeckgodel.numeric import (
    DIV_LEAF_BITS,
    GUARD_BITS,
    SQRT_LEAF_BITS,
    _divmod,
    _fib_pair,
    _sqrtrem,
    cantor_pair,
    cantor_unpair,
    fib,
    lucas_ratio,
    max_fib_index_le,
    split_fibs,
    sqrt5_fixed,
    zeck_length_bound,
)
from zeckgodel.seqcode import SeqCode, _positions, seq_encode
from zeckgodel.zeckendorf import z_decode

from helpers import fib_list, fib_upto, unpair_oracle


def test_fib_small_values():
    assert [fib(e) for e in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]
    assert fib(7) == 21


def test_fib_100_matches_iteration_oracle():
    oracle = fib_list(100)
    assert fib(100) == oracle[99] == 573147844013817084101


def test_fib_rejects_index_zero():
    with pytest.raises(ZeckGodelError):
        fib(0)


def test_fib_recurrence_holds_exactly():
    values = fib_list(10_002)
    for e in range(1, 10_001):
        assert values[e + 1] == values[e] + values[e - 1]
        assert fib(e) == values[e - 1]


def test_fast_doubling_agrees_with_iteration():
    values = fib_list(10_001)
    for e in range(1, 10_001):
        # classical F(e+1) is the shifted-convention F_e
        assert _fib_pair(e)[1] == values[e - 1]


def test_fib_beyond_table_cap_uses_doubling():
    e = (1 << 14) + 17
    values = fib_list(e)
    assert fib(e) == values[-1]


def test_max_fib_index_le_examples():
    assert max_fib_index_le(32) == 7
    assert max_fib_index_le(1) == 1
    with pytest.raises(ZeckGodelError):
        max_fib_index_le(0)


def test_max_fib_index_le_against_linear_scan():
    fibs = fib_upto(10**6)
    e = len(fibs)
    assert max_fib_index_le(10**6) == e
    for n in [2, 3, 4, 5, 20, 21, 22, 10**3, 10**4, 5 * 10**5]:
        scan = len(fib_upto(n))
        assert max_fib_index_le(n) == scan


def test_max_fib_index_le_brackets_large_values():
    for e in [100, 5000, 20_000, 70_000]:
        v = fib(e)
        assert max_fib_index_le(v) == e
        assert max_fib_index_le(v - 1) == e - 1
        assert max_fib_index_le(v + 1) == e


def test_cantor_pair_examples():
    assert cantor_pair(0, 1) == 1
    assert cantor_pair(0, 2) == 3
    assert cantor_pair(0, 0) == 0


def test_cantor_unpair_examples():
    assert cantor_unpair(1) == (0, 1)
    assert cantor_unpair(0) == (0, 0)
    assert cantor_unpair(cantor_pair(17, 42)) == (17, 42)


def test_cantor_roundtrip_exhaustive():
    for x in range(0, 1001):
        for y in range(0, 1001):
            if cantor_unpair(cantor_pair(x, y)) != (x, y):
                raise AssertionError(f"roundtrip failed at ({x}, {y})")


def test_cantor_roundtrip_random_large():
    rng = random.Random(20260810)
    for _ in range(10_000):
        x = rng.getrandbits(rng.randrange(1, 400))
        y = rng.getrandbits(rng.randrange(1, 400))
        assert cantor_unpair(cantor_pair(x, y)) == (x, y)


def test_cantor_pair_injective_small():
    seen = {cantor_pair(x, y) for x in range(201) for y in range(201)}
    assert len(seen) == 201 * 201


def test_numeric_entries_raise_domain_errors_on_values_that_are_not_naturals():
    hostile = (-1, -(2**300), -(10**5000), 2.5, "3", None, [3], 3j)
    entries = (fib, max_fib_index_le, cantor_unpair, zeck_length_bound, z_decode,
               lambda v: cantor_pair(v, 2), lambda v: cantor_pair(2, v))
    for value in hostile:
        for entry in entries:
            with pytest.raises(InvalidSupportError):
                entry(value)
    # zero is a natural but neither a Fibonacci index nor bracketed by them
    for entry in (fib, max_fib_index_le):
        with pytest.raises(InvalidSupportError):
            entry(0)
    assert zeck_length_bound(0) == 0 and z_decode(0) == () and cantor_unpair(0) == (0, 0)
    # a bool is an int, as everywhere in the package
    assert fib(True) == 1 and cantor_pair(True, False) == 2


@given(st.integers(min_value=0), st.integers(min_value=0))
def test_cantor_roundtrip_property(x, y):
    assert cantor_unpair(cantor_pair(x, y)) == (x, y)


def test_fib_memo_is_safe_under_concurrent_readers():
    import threading

    import zeckgodel.numeric as numeric

    # reset the shared table so the threads race on extending it
    with numeric._fib_lock:
        del numeric._fib_table[2:]
    expected = fib_list(3000)
    errors = []

    def worker(offset):
        for e in range(1 + offset, 3001, 7):
            if fib(e) != expected[e - 1]:
                errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_zeck_length_bound_examples():
    assert zeck_length_bound(0) == 0
    assert zeck_length_bound(32) == 7
    assert len(z_decode(32)) <= 7


def test_zeck_length_bound_dominates_support_size():
    for n in range(0, 100_001):
        if len(z_decode(n)) > zeck_length_bound(n):
            raise AssertionError(f"bound violated at {n}")


# --- the recursive quotient ------------------------------------------------

def _assert_quotient(a, b):
    assert _divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())


@pytest.fixture
def quotients(monkeypatch):
    """The quotient bit lengths of the kernels' calls to _divmod."""
    import zeckgodel.numeric as numeric

    seen = []

    def recorded(a, b):
        seen.append(a.bit_length() - b.bit_length())
        return _divmod(a, b)

    monkeypatch.setattr(numeric, "_divmod", recorded)
    return seen


def test_divmod_matches_the_builtin_on_random_operands():
    rng = random.Random(3041)
    # (divisor bits, quotient bits): under, at and past the leaf, balanced and lopsided
    shapes = [(1, 50), (64, 5_000), (DIV_LEAF_BITS, DIV_LEAF_BITS), (DIV_LEAF_BITS + 1, DIV_LEAF_BITS + 1),
              (3 * DIV_LEAF_BITS, 3 * DIV_LEAF_BITS), (7_777, 7_776), (40_000, 40_001), (100_003, 99_999)]
    # quotients far shorter than the divisor, and far longer
    shapes += [(60_000, DIV_LEAF_BITS + 1), (60_000, 10), (DIV_LEAF_BITS + 500, 60_000), (9_001, 47_000)]
    for nbits, qbits in shapes:
        for _ in range(3):
            b = rng.getrandbits(nbits) | 1 << nbits - 1
            _assert_quotient(rng.getrandbits(nbits + qbits), b)
            _assert_quotient(rng.getrandbits(nbits - 1), b)  # a < b


def test_divmod_at_every_bit_length_mod_64_around_the_leaf():
    # the divisor's parity picks the padded halving, and the quotient's
    # length picks the leaf at each level of the recursion
    rng = random.Random(64)
    for bits in range(DIV_LEAF_BITS - 66, DIV_LEAF_BITS + 67):
        b = rng.getrandbits(bits) | 1 << bits - 1
        _assert_quotient(rng.getrandbits(2 * bits), b)
        long = rng.getrandbits(3 * DIV_LEAF_BITS) | 1 << 3 * DIV_LEAF_BITS - 1
        _assert_quotient(rng.getrandbits(3 * DIV_LEAF_BITS + bits), long)
    for bits in range(2 * DIV_LEAF_BITS - 66, 2 * DIV_LEAF_BITS + 67, 5):
        b = rng.getrandbits(bits) | 1 << bits - 1
        _assert_quotient(rng.getrandbits(2 * bits), b)


def test_divmod_at_powers_of_two_and_exact_multiples():
    rng = random.Random(65)
    for k in (DIV_LEAF_BITS, DIV_LEAF_BITS + 1, 2 * DIV_LEAF_BITS + 3, 10_000, 16_384):
        for b in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            # the largest dividend the halving takes, then a random one and a power of two
            for a in ((b << b.bit_length()) - 1, rng.getrandbits(2 * k), 1 << 2 * k + 7, (1 << 2 * k) - 1):
                _assert_quotient(a, b)
        b = rng.getrandbits(k) | 1 << k - 1
        for q in (1 << k, (1 << k) - 1, rng.getrandbits(k + 9), rng.getrandbits(4 * k)):
            for a in (q * b - 1, q * b, q * b + 1, q * b + b - 1):
                _assert_quotient(a, b)


# --- the Karatsuba square root and the cached fixed-point values -----------

def _assert_root(n):
    s, r = _sqrtrem(n)
    assert s == isqrt(n) and r == n - s * s, n.bit_length()


def test_sqrtrem_matches_isqrt_on_random_operands_up_to_300kbit():
    rng = random.Random(1805)
    sizes = [1, 2, 3, 64, 1000, SQRT_LEAF_BITS - 1, SQRT_LEAF_BITS, SQRT_LEAF_BITS + 1, 3001, 9_999, 40_000]
    sizes += [rng.randrange(SQRT_LEAF_BITS, 120_000) for _ in range(6)] + [300_000]
    for bits in sizes:
        for _ in range(3 if bits < 100_000 else 1):
            _assert_root(rng.getrandbits(bits) | 1 << bits - 1)


def test_sqrtrem_at_every_bit_length_mod_4_around_the_leaf():
    # the split point (bits - 1) // 4 changes with the length mod 4, and the
    # operand's top quarter must stay large enough for one correction step
    rng = random.Random(4)
    for bits in range(SQRT_LEAF_BITS - 4, 4 * SQRT_LEAF_BITS + 9):
        if bits > SQRT_LEAF_BITS + 8 and bits % 97 > 3:
            continue
        top = 1 << bits - 1
        for n in (top, 2 * top - 1, top | rng.getrandbits(bits - 1), top | top >> 1 | rng.getrandbits(bits - 2)):
            _assert_root(n)


def test_sqrtrem_at_every_bit_length_mod_4_around_the_quotient_leaf(quotients):
    # an operand of 4 * DIV_LEAF_BITS bits has a top division of about DIV_LEAF_BITS quotient bits
    rng = random.Random(5)
    for bits in range(4 * DIV_LEAF_BITS - 12, 4 * DIV_LEAF_BITS + 13):
        top = 1 << bits - 1
        for n in (top, 2 * top - 1, top | rng.getrandbits(bits - 1)):
            _assert_root(n)
    assert max(quotients) > DIV_LEAF_BITS


def test_sqrtrem_on_squares_and_powers_of_two():
    rng = random.Random(9)
    for bits in (SQRT_LEAF_BITS // 2 + 1, SQRT_LEAF_BITS, 5_000, 33_333, 70_001):
        s = rng.getrandbits(bits) | 1 << bits - 1
        for n in (s * s - 1, s * s, s * s + 1, s * s + 2 * s, (s + 1) ** 2 - 1, (s + 1) ** 2):
            _assert_root(n)
    for k in (SQRT_LEAF_BITS - 1, SQRT_LEAF_BITS, SQRT_LEAF_BITS + 1, 4_097, 10_000, 65_536, 65_537):
        for n in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            _assert_root(n)


def test_cantor_unpair_and_positions_match_the_oracle_across_the_leaf():
    rng = random.Random(77)
    for bits in (SQRT_LEAF_BITS - 6, SQRT_LEAF_BITS - 2, SQRT_LEAF_BITS + 3, 5_000, 45_000):
        p = rng.getrandbits(bits) | 1 << bits - 1
        assert cantor_unpair(p) == unpair_oracle(p)
        # a sequence whose first item pairs to an index of about `bits` bits
        items = [rng.getrandbits(bits // 2) | 1 << bits // 2 - 1, rng.getrandbits(40), 0]
        c = seq_encode(items)
        assert c.support[0].bit_length() > bits - 3
        assert _positions(c) == items
        assert sorted(unpair_oracle(e >> 1)[::-1] for e in c.support) == [(i, a) for i, a in enumerate(items, 1)]
        # a stray index for a position that does not exist is refused
        e = 2 * cantor_pair(items[0], 5) + 1
        assert _positions(SeqCode(tuple(sorted((*c.support, e), reverse=True)))) is None


def test_cantor_unpair_reads_both_root_parities_off_the_remainder(quotients):
    # x = 0 makes the root of 8p + 1 odd, x = w even; the sizes of p straddle
    # the root's leaf and, at four times the quotient's leaf, that one too
    rng = random.Random(78)
    sizes = [1, 2, 3, 10, 64, *range(SQRT_LEAF_BITS - 8, SQRT_LEAF_BITS + 8), 5_000, 30_000, 100_000,
             *range(4 * DIV_LEAF_BITS - 6, 4 * DIV_LEAF_BITS + 7)]
    for bits in sizes:
        w = rng.getrandbits(bits // 2 + 1) | 1
        for x, parity in ((0, 1), (w, 0)):
            p = cantor_pair(x, w - x)
            assert isqrt(8 * p + 1) & 1 == parity
            assert cantor_unpair(p) == unpair_oracle(p) == (x, w - x), bits
        p = rng.getrandbits(bits)
        assert cantor_unpair(p) == unpair_oracle(p), bits
    assert max(quotients) > DIV_LEAF_BITS


def test_lucas_ratio_is_within_the_guard_below_the_ratio(quotients, monkeypatch):
    import zeckgodel.numeric as numeric

    monkeypatch.setattr(numeric, "_split_recips", {})
    rng = random.Random(21)
    for m in (2, 4, 64, 1 << 10, 1 << 14, 1 << 15, 1 << 16):
        fm, _, fm2 = split_fibs(m)
        lucas = fm + fm2
        # rising sizes rebuild the cached reciprocal; the last reads a truncation of it
        for n in (lucas, lucas + 1, 2 * lucas - 1, lucas * lucas, 2 * lucas * lucas - 1, lucas**3,
                  rng.randrange(lucas, 2 * lucas * lucas)):
            v, w = lucas_ratio(n, m)
            # n/L - 2^-GUARD < v / 2^w <= n/L, in integers
            assert v * lucas <= n << w
            assert (v << GUARD_BITS) * lucas + (lucas << w) > n << w + GUARD_BITS
    # the larger reciprocals were quotients past the leaf
    assert max(quotients) > DIV_LEAF_BITS


def test_sqrt5_fixed_is_the_floor_at_every_precision():
    # rising precisions recompute the cached root; the last ones truncate it
    for p in (1, 2, 3, 31, 32, 33, 1000, 1024, 1025, 5000, 4999, 7, 1):
        s = sqrt5_fixed(p)
        assert s * s <= 5 << 2 * p < (s + 1) ** 2


def test_split_fibs_match_fast_doubling_asked_in_any_order(monkeypatch):
    import zeckgodel.numeric as numeric

    monkeypatch.setattr(numeric, "_split_fibs", {})
    powers = [1 << j for j in range(1, 18)]
    random.Random(2).shuffle(powers)
    for m in powers:
        a, b = _fib_pair(m)  # classical (F(m), F(m+1)) == shifted (F_{m-1}, F_m)
        assert split_fibs(m) == (b, a, b - a), m
    assert sorted(numeric._split_fibs) == sorted(powers)


def _run_fresh(code):
    src = os.path.dirname(os.path.dirname(zeckgodel.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_builds_no_table_or_cache():
    _run_fresh(
        "import zeckgodel, zeckgodel.numeric as n; "
        "import zeckgodel.syntax, zeckgodel.substitution, zeckgodel.logic; "
        "import zeckgodel.primecode, zeckgodel.oracle, zeckgodel.cli as cli; "
        "assert n._fib_table == [1, 2], n._fib_table; "
        "assert not n._split_fibs and not n._split_recips and not n._sqrt5; "
        "assert cli._pow10 == {}, cli._pow10"
    )


def test_importing_logic_leaves_substitution_unloaded():
    _run_fresh("import sys, zeckgodel.logic; assert 'zeckgodel.substitution' not in sys.modules")


def test_a_one_shot_proof_sized_decode_fills_the_table_only_in_part():
    # a 40-bit (= n n) has a top index past 2^17; encoding and decoding it
    # once grows the table by one doubling each
    _run_fresh(
        "import zeckgodel.numeric as n; from zeckgodel.seqcode import to_number; "
        "from zeckgodel.syntax import Eq, encode_syntax, numeral; from zeckgodel.zeckendorf import z_decode; "
        "c = encode_syntax(Eq(numeral(2**40 - 77), numeral(2**40 - 77))); v = to_number(c); "
        "assert c.support[0] > 2**17 and z_decode(v) == c.support; "
        "assert len(n._fib_table) < n.FIB_TABLE_CAP, len(n._fib_table)"
    )


def test_numbers_past_the_table_leave_it_unfilled():
    # both sums lie past F_cap, where the search walks from fast doubling
    _run_fresh(
        "import zeckgodel.numeric as n; from zeckgodel.oracle import oracle_solve; "
        "assert oracle_solve(65599, 65600) == 65602; "
        "assert n.max_fib_index_le(n.fib(2**16)) == 2**16; "
        "assert len(n._fib_table) == 2, len(n._fib_table)"
    )


@pytest.mark.parametrize("table", ["empty", "full"])
def test_max_fib_index_le_at_the_table_cap(table):
    import zeckgodel.numeric as numeric

    cap = numeric.FIB_TABLE_CAP
    at, past = _fib_pair(cap)[1], _fib_pair(cap + 1)[1]  # F_cap, F_{cap+1}, not via the table
    cases = [(at - 1, cap - 1), (at, cap), (at + 1, cap), (past - 1, cap), (past, cap + 1)]
    for n, e in cases:
        with numeric._fib_lock:
            del numeric._fib_table[2:]
        if table == "full":
            numeric.fib_table(cap)
        assert max_fib_index_le(n) == e
    assert fib(cap) == at and fib(cap + 1) == past
