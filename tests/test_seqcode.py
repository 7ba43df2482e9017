import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import sys

from zeckgodel.errors import CodeTooLargeError, InvalidSupportError, NotSequenceCodeError
from zeckgodel.numeric import cantor_pair, cantor_unpair
from zeckgodel.seqcode import (
    SeqCode,
    as_code,
    bits_estimate,
    concat,
    from_number,
    is_code,
    seq_decode,
    seq_encode,
    seq_len,
    symbol_at,
    to_number,
)

from zeckgodel.zeckendorf import is_valid_support, z_encode

from helpers import decode_attempt, pair_oracle, seq_number_oracle


def test_paper_example_indices():
    c = seq_encode([0, 0])
    assert c.support == (7, 3)
    assert to_number(c) == 24


def test_empty_sequence():
    c = seq_encode([])
    assert c.support == ()
    assert to_number(c) == 0
    assert seq_decode(c) == []


def test_decode_example():
    assert seq_decode(SeqCode((7, 3))) == [0, 0]
    assert seq_decode(24) == [0, 0]


def test_is_code_examples():
    assert is_code(24)
    assert not is_code(1)  # Z(1) = {1} unpairs to position 0
    assert is_code(0)


def test_len_examples():
    assert seq_len(24) == 2
    assert seq_len(0) == 0
    assert seq_len(1) == 0  # not a code, so 0 by convention


def test_symbol_at_examples():
    assert symbol_at(24, 1) == 0
    assert symbol_at(24, 2) == 0
    assert symbol_at(24, 3) == 0  # out of range default
    assert symbol_at(seq_encode([5, 9, 2]), 2) == 9
    assert symbol_at(1, 1) == 0  # non-code default


def test_concat():
    n = seq_encode([1])
    m = seq_encode([2])
    assert concat(n, m).support == seq_encode([1, 2]).support
    assert concat(0, m).support == m.support
    assert concat(n, 0).support == n.support


def test_concat_rejects_non_codes():
    with pytest.raises(NotSequenceCodeError):
        concat(1, 0)
    with pytest.raises(NotSequenceCodeError):
        concat(0, 1)


def test_concat_length_additive():
    rng = random.Random(7)
    for _ in range(500):
        a = [rng.randrange(0, 50) for _ in range(rng.randrange(0, 8))]
        b = [rng.randrange(0, 50) for _ in range(rng.randrange(0, 8))]
        joined = concat(seq_encode(a), seq_encode(b))
        assert seq_len(joined) == len(a) + len(b)
        for i in range(1, len(a) + 1):
            assert symbol_at(joined, i) == a[i - 1]
        for i in range(1, len(b) + 1):
            assert symbol_at(joined, len(a) + i) == b[i - 1]


def test_injectivity_exhaustive_121():
    codes = set()
    count = 0
    for length in range(0, 5):
        for seq in product(range(3), repeat=length):
            codes.add(to_number(seq_encode(list(seq))))
            count += 1
    assert count == 121
    assert len(codes) == 121


def test_encoded_supports_are_odd_and_gapped():
    rng = random.Random(11)
    for _ in range(300):
        seq = [rng.randrange(0, 1000) for _ in range(rng.randrange(0, 12))]
        support = seq_encode(seq).support
        assert all(e % 2 == 1 for e in support)
        assert all(support[i] - support[i + 1] >= 2 for i in range(len(support) - 1))


def test_roundtrip_random_long_sequences():
    rng = random.Random(5)
    for _ in range(1000):
        seq = [rng.randrange(0, 10_001) for _ in range(rng.randrange(0, 31))]
        assert seq_decode(seq_encode(seq)) == seq


def test_number_mode_matches_independent_sum():
    rng = random.Random(23)
    for _ in range(50):
        seq = [rng.randrange(0, 8) for _ in range(rng.randrange(0, 5))]
        assert to_number(seq_encode(seq)) == seq_number_oracle(seq)


def test_image_characterization_against_decode_attempt():
    for n in range(100_001):
        oracle = decode_attempt(n)
        assert is_code(n) == (oracle is not None), f"is_code mismatch at {n}"
        if oracle is not None:
            assert seq_decode(n) == oracle
            assert seq_len(n) == len(oracle)
        else:
            assert seq_len(n) == 0


def test_symbol_at_against_decode_attempt_sample():
    for n in range(0, 3000):
        oracle = decode_attempt(n)
        top = (len(oracle) if oracle else 0) + 2
        for i in range(1, top + 1):
            expected = oracle[i - 1] if oracle and i <= len(oracle) else 0
            assert symbol_at(n, i) == expected


def test_to_number_roundtrip():
    for n in [0, 1, 24, 1000, 12345]:
        assert to_number(from_number(n)) == n


def test_to_number_threshold():
    huge = SeqCode((10**9,))
    with pytest.raises(CodeTooLargeError) as exc:
        to_number(huge)
    assert exc.value.bits_estimate == (6943 * 10**9 + 9999) // 10000 + 1
    assert "code too large" in str(exc.value)
    # explicit larger cap admits moderately large codes
    assert to_number(SeqCode((101,)), max_index=200) > 0


def test_to_number_refuses_what_as_code_refuses(monkeypatch):
    from zeckgodel import seqcode

    for bad in (-5, 2.5, "24", None):
        with pytest.raises(InvalidSupportError) as want:
            as_code(bad)
        with pytest.raises(InvalidSupportError) as got:
            to_number(bad)
        assert str(got.value) == str(want.value)
    # a natural is its own value, returned without a conversion to a support
    monkeypatch.setattr(seqcode, "z_decode", lambda n: pytest.fail("z_decode called"))
    for n in (0, 24, 10**40, True):
        assert to_number(n) is n


def test_bits_estimate():
    assert bits_estimate(SeqCode(())) == 0
    c = SeqCode((7, 3))
    assert bits_estimate(c) == (6943 * 7 + 9999) // 10000 + 1
    assert bits_estimate(from_number(24)) == 24 .bit_length()


def test_as_code_coercion():
    c = as_code(32)
    assert c.support == (7, 5, 3)
    assert as_code(c) is c


def test_predicates_are_total_on_values_that_are_not_naturals():
    for value in (-1, -(2**300), 2.5, "3", None, [3], 3j):
        assert not is_code(value)
        assert seq_len(value) == 0
        assert symbol_at(value, 1) == 0
        with pytest.raises(InvalidSupportError):
            as_code(value)
        with pytest.raises(InvalidSupportError):
            seq_decode(value)
        with pytest.raises(InvalidSupportError):
            from_number(value)  # its check is z_decode's
    # a bool is an int, as in seq_encode: False codes the empty sequence
    assert as_code(True).support == (1,) and not is_code(True)
    assert is_code(False) and seq_decode(False) == []


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=20))
def test_roundtrip_property(seq):
    assert seq_decode(seq_encode(seq)) == seq


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=300) | st.integers(min_value=2**64, max_value=2**200), max_size=24))
def test_support_indices_are_odd_pairings(seq):
    # proof codes nest bignum items, so the items run past 2^64 too
    indices = seq_encode(seq).support
    assert indices == tuple(sorted((2 * pair_oracle(a, i) + 1 for i, a in enumerate(seq, start=1)), reverse=True))
    assert seq_decode(seq_encode(seq)) == seq


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**200), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=2**200))
def test_decode_unpairs_like_cantor_unpair(seq, stray):
    support = seq_encode(seq).support
    pairs = sorted((i, a) for a, i in (cantor_unpair((e - 1) // 2) for e in support))
    assert [i for i, _ in pairs] == list(range(1, len(seq) + 1))
    assert seq_decode(SeqCode(support)) == [a for _, a in pairs] == seq
    # an index for position 0 or past the length, or an even index, is refused
    for i in (0, len(seq) + 2):
        e = 2 * cantor_pair(stray, i) + 1
        assert not is_code(SeqCode(tuple(sorted((*support, e), reverse=True))))
    assert not is_code(SeqCode((2 * support[0] + 2, *support)))


def test_seq_encode_rejects_items_that_are_not_naturals():
    # -5 would pair like 0 and 1.5 would give the support [12.75]
    for items in ([-5], [0, -1], [1.5], [3, "4"]):
        with pytest.raises(InvalidSupportError):
            seq_encode(items)
    assert seq_encode([0]).support == (3,)


def test_supports_with_non_int_indices_are_invalid():
    assert not is_valid_support((12.75,))
    with pytest.raises(InvalidSupportError):
        SeqCode((12.75,))
    with pytest.raises(InvalidSupportError):
        z_encode([12.75])


def test_repr_names_huge_indices_by_bit_length():
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if old is not None:
            sys.set_int_max_str_digits(4300)
        short = repr(seq_encode([10**5000]))
        long = repr(seq_encode([10**5000] + [0] * 9))
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)
    bits = seq_encode([10**5000]).max_index.bit_length()
    assert short == f"SeqCode(support=[<{bits}-bit index>])"
    assert long.startswith("SeqCode(support=[<") and long.endswith(", ...], len=10)")
    assert repr(seq_encode([0, 0])) == "SeqCode(support=[7, 3])"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=300) | st.integers(min_value=2**64, max_value=2**200), max_size=24),
       st.integers(min_value=0, max_value=2**3000))
def test_library_built_supports_are_valid(seq, n):
    # seq_encode and from_number skip the support check, so their outputs must pass it
    assert is_valid_support(seq_encode(seq).support)
    assert is_valid_support(from_number(n).support)
