import random
import sys
from dataclasses import fields
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from zeckgodel.errors import AlphabetError, NotTermCodeError, NotWffCodeError, NumeralTooLargeError
from zeckgodel.seqcode import is_code, seq_decode, seq_encode, seq_len, to_number
from zeckgodel.substitution import _splice_code, diag, fixed_point, sub_free, sub_z
from zeckgodel.syntax import (
    DEFAULT_ALPHABET,
    DiagFn,
    Eq,
    Exists,
    Forall,
    Imp,
    Neg,
    ProvP,
    Succ,
    Var,
    Zero,
    decode_syntax,
    encode_syntax,
    flatten,
    is_term_code,
    is_wff_code,
    numeral,
)
from zeckgodel.zeckendorf import is_valid_support

from helpers import pair_oracle, random_formula, random_term, seq_number_oracle, shuffled_alphabet
from test_syntax import _formula_strategy

S0 = Succ(Zero())


def codes_of(node):
    return [DEFAULT_ALPHABET.code_of(s) for s in flatten(node)]


def test_sub_z_basic():
    fc = encode_syntax(Eq(Var(0), Var(0)))
    tc = encode_syntax(Zero())
    assert sub_z(fc, tc).support == encode_syntax(Eq(Zero(), Zero())).support


def test_sub_z_identity_substitution():
    fc = encode_syntax(Eq(Var(0), Var(0)))
    assert sub_z(fc, encode_syntax(Var(0))).support == fc.support


def test_sub_z_no_occurrence():
    fc = encode_syntax(Eq(Zero(), Succ(Zero())))
    assert sub_z(fc, encode_syntax(Zero())).support == fc.support


def test_sub_z_replaces_bound_occurrences_too():
    fc = encode_syntax(Forall(0, Eq(Var(0), Var(0))))
    out = sub_z(fc, encode_syntax(Zero()))
    assert is_code(out)
    assert not is_wff_code(out)  # the binder slot got a term spliced into it


def test_sub_z_precondition_errors():
    with pytest.raises(NotWffCodeError):
        sub_z(encode_syntax(Succ(Zero())), encode_syntax(Zero()))
    with pytest.raises(NotTermCodeError):
        sub_z(encode_syntax(Eq(Var(0), Var(0))), encode_syntax(Eq(Zero(), Zero())))


def test_sub_free_skips_bound_occurrences():
    fc = encode_syntax(Forall(0, Eq(Var(0), Var(0))))
    assert sub_free(fc, encode_syntax(Zero())).support == fc.support


def test_sub_free_mixed_free_and_bound():
    phi = Imp(Eq(Var(0), Zero()), Forall(0, Eq(Var(0), Var(0))))
    out = sub_free(encode_syntax(phi), encode_syntax(S0))
    expected = Imp(Eq(S0, Zero()), Forall(0, Eq(Var(0), Var(0))))
    assert decode_syntax(out) == expected


def test_sub_free_respects_other_binders():
    phi = Forall(1, Eq(Var(0), Var(1)))
    out = sub_free(encode_syntax(phi), encode_syntax(S0))
    assert decode_syntax(out) == Forall(1, Eq(S0, Var(1)))


def test_sub_free_matches_sub_z_on_binder_free():
    rng = random.Random(17)
    for _ in range(200):
        phi = random_formula(rng, depth=4, allow_binders=False)
        t = random_term(rng, depth=2, var_pool=(1, 2))
        fc, tc = encode_syntax(phi), encode_syntax(t)
        assert sub_z(fc, tc).support == sub_free(fc, tc).support


def test_sub_z_validity_and_splice_oracle():
    # binders never bind v0, so symbol-level substitution keeps outputs wffs
    rng = random.Random(4)
    zero_code = DEFAULT_ALPHABET.code_of("0")
    target = DEFAULT_ALPHABET.var_code(0)
    for _ in range(500):
        phi = random_formula(rng, depth=4, var_pool=(0, 1), binder_pool=(1, 2))
        t = random_term(rng, depth=2, var_pool=(1,))
        out = sub_z(encode_syntax(phi), encode_syntax(t))
        assert is_code(out)
        assert is_wff_code(out)
        tcodes = codes_of(t)
        spliced = []
        for a in codes_of(phi):
            spliced.extend(tcodes) if a == target else spliced.append(a)
        assert to_number(out, max_index=out.max_index) == seq_number_oracle(spliced)


def test_sub_z_with_custom_alphabet_offset():
    from zeckgodel.syntax import Alphabet

    alphabet = Alphabet(base=dict(DEFAULT_ALPHABET.base), offset=40)
    fc = encode_syntax(Eq(Var(0), Var(0)), alphabet)
    out = sub_z(fc, encode_syntax(Zero(), alphabet), 0, alphabet)
    assert out.support == encode_syntax(Eq(Zero(), Zero()), alphabet).support
    # the default-offset code of the same formula is different
    assert fc.support != encode_syntax(Eq(Var(0), Var(0))).support


def test_diag_simple_formula():
    fc = encode_syntax(Eq(Var(0), Var(0)))
    value = to_number(fc)
    expected = encode_syntax(Eq(numeral(value), numeral(value)))
    assert diag(fc).support == expected.support


def test_diag_without_target_variable_is_identity():
    fc = encode_syntax(Eq(Zero(), Zero()))
    assert diag(fc).support == fc.support


def test_diag_output_is_valid_code():
    fc = encode_syntax(ProvP(Var(0)))
    out = diag(fc)
    assert is_code(out)
    assert is_wff_code(out)


def test_diag_errors():
    with pytest.raises(NotWffCodeError):
        diag(encode_syntax(Succ(Zero())))
    with pytest.raises(NumeralTooLargeError):
        diag(encode_syntax(Eq(Var(0), Var(0))), max_bits=16)


def test_fixed_point_identity_for_equality_formula():
    phi = encode_syntax(Eq(Var(0), Var(0)))
    psi, m = fixed_point(phi)
    assert psi.support == diag(m).support
    assert is_wff_code(psi)


def test_fixed_point_identity_for_godel_shape():
    phi = encode_syntax(Neg(ProvP(Var(0))))
    psi, m = fixed_point(phi)
    assert psi.support == diag(m).support
    ast = decode_syntax(psi)
    assert isinstance(ast, Neg) and isinstance(ast.arg, ProvP)
    assert isinstance(ast.arg.arg, DiagFn)


def test_fixed_point_theta_shape():
    phi = encode_syntax(Eq(Var(0), Var(0)))
    _, m = fixed_point(phi)
    assert decode_syntax(m) == Eq(DiagFn(Var(0)), DiagFn(Var(0)))


def test_fixed_point_length_accounting():
    phi = encode_syntax(Eq(Var(0), Var(0)))
    psi, m = fixed_point(phi)
    theta_codes = seq_decode(m)
    occurrences = theta_codes.count(DEFAULT_ALPHABET.var_code(0))
    num_len = len(flatten(numeral(to_number(m, max_index=m.max_index))))
    assert seq_len(psi) == len(theta_codes) + occurrences * (num_len - 1)


def test_diag_length_accounting():
    phi = Imp(Eq(Var(0), Zero()), Eq(Var(0), Var(0)))
    fc = encode_syntax(phi)
    occurrences = seq_decode(fc).count(DEFAULT_ALPHABET.var_code(0))
    num_len = len(flatten(numeral(to_number(fc))))
    assert seq_len(diag(fc)) == seq_len(fc) + occurrences * (num_len - 1)


def test_fixed_point_errors():
    with pytest.raises(NotWffCodeError):
        fixed_point(encode_syntax(Succ(Zero())))  # a term
    with pytest.raises(NotWffCodeError):
        fixed_point(2)  # support (2,): not a sequence code
    with pytest.raises(NotWffCodeError):
        fixed_point(0)  # the empty sequence
    with pytest.raises(NotWffCodeError):
        fixed_point(seq_encode([14]))  # 14 is no symbol of the default alphabet
    with pytest.raises(NumeralTooLargeError):
        fixed_point(encode_syntax(Eq(Var(0), Var(0))), max_bits=16)


def test_sub_free_precondition_errors():
    wff = encode_syntax(Eq(Var(0), Var(0)))
    with pytest.raises(NotWffCodeError):
        sub_free(encode_syntax(Succ(Zero())), encode_syntax(Zero()))
    with pytest.raises(NotWffCodeError):
        sub_free(2, encode_syntax(Zero()))
    with pytest.raises(NotTermCodeError):
        sub_free(wff, encode_syntax(Eq(Zero(), Zero())))
    with pytest.raises(NotTermCodeError):
        sub_free(wff, 2)



def test_entry_checks_agree_with_predicates_on_a_huge_variable():
    # naming v_i for a 5,000-digit i trips Python's int/str digit limit where
    # one is set; the entry check must then refuse as is_term_code does
    huge = seq_encode([10**5000])
    wff = encode_syntax(Eq(Var(0), Var(0)))
    if is_term_code(huge):
        assert is_code(sub_free(wff, huge))
    else:
        with pytest.raises(NotTermCodeError):
            sub_free(wff, huge)


def test_huge_variable_verdicts_ignore_the_digit_limit():
    # no decode or validation path names a variable in decimal, so the verdicts
    # are the same under the default int/str digit limit and with none
    huge = seq_encode([10**5000])
    neg_huge = seq_encode([DEFAULT_ALPHABET.base["¬"], 10**5000])  # ¬ followed by a term
    wff = encode_syntax(Eq(Var(0), Var(0)))
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        for limit in ([4300, 0] if old is not None else [None]):
            if limit is not None:
                sys.set_int_max_str_digits(limit)
            assert is_term_code(huge) and not is_wff_code(huge)
            assert not is_wff_code(neg_huge)
            assert is_code(sub_free(wff, huge))
            with pytest.raises(NotWffCodeError):
                sub_z(neg_huge, huge)
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


# --- differential check against the composition built from public steps -----

def _support_oracle(values):
    return tuple(sorted((2 * pair_oracle(a, i) + 1 for i, a in enumerate(values, start=1)), reverse=True))


def _spliced(values, target, replacement):
    out = []
    for a in values:
        out.extend(replacement) if a == target else out.append(a)
    return out


def _free_subst(node, var, t):
    """AST-level substitution of t for the free v_var (recursive: small ASTs only)."""
    if isinstance(node, Var):
        return t if node.index == var else node
    if isinstance(node, (Forall, Exists)):
        return node if node.var == var else type(node)(node.var, _free_subst(node.body, var, t))
    return type(node)(*(_free_subst(getattr(node, f.name), var, t) for f in fields(node)))


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, shuffled_alphabet(5)], ids=["default", "offset40"])
def test_substitution_matches_old_composition(alphabet):
    rng = random.Random(2024)

    def codes(node):
        return [alphabet.code_of(s) for s in flatten(node)]

    for _ in range(30):
        var = rng.choice((0, 1))
        target = alphabet.var_code(var)
        phi = random_formula(rng, depth=3)
        t = random_term(rng, depth=2)
        fc, tc = encode_syntax(phi, alphabet), encode_syntax(t, alphabet)

        assert sub_z(fc, tc, var, alphabet).support == _support_oracle(_spliced(codes(phi), target, codes(t)))
        assert sub_free(fc, tc, var, alphabet).support == _support_oracle(codes(_free_subst(phi, var, t)))

        value = seq_number_oracle(codes(phi))
        assert diag(fc, var, alphabet).support == _support_oracle(
            _spliced(codes(phi), target, codes(numeral(value)))
        )

        psi, m = fixed_point(fc, var, alphabet)
        theta = codes(_free_subst(phi, var, DiagFn(Var(var))))
        assert m.support == _support_oracle(theta)
        assert to_number(m, max_index=m.max_index) == seq_number_oracle(theta)
        num = codes(numeral(seq_number_oracle(theta)))
        assert psi.support == _support_oracle(_spliced(theta, target, num))
        old = sub_z(m, encode_syntax(numeral(to_number(m, max_index=m.max_index)), alphabet), var, alphabet)
        assert psi.support == old.support
        assert psi.support == diag(m, var, alphabet).support


_V0_EQ_0 = Eq(Var(0), Zero())


@settings(max_examples=60, deadline=None)
@given(_formula_strategy, st.integers(0, 3))
@example(Forall(0, Imp(_V0_EQ_0, Forall(0, _V0_EQ_0))), 0)  # bound again inside its own scope
@example(Imp(_V0_EQ_0, Exists(0, Eq(Var(0), Var(1)))), 0)  # shadowed by ∃
@example(Imp(_V0_EQ_0, Forall(0, _V0_EQ_0)), 0)  # free left of →, bound right
@example(Imp(Exists(0, _V0_EQ_0), _V0_EQ_0), 0)  # bound left of →, free right
@example(Forall(1, Imp(Exists(0, _V0_EQ_0), Forall(2, _V0_EQ_0))), 0)  # free under other binders
def test_free_substitution_matches_the_ast_oracle_on_nested_binders(phi, var):
    t = Succ(Var(var))  # the replacement holds the target, so a second pass would show
    fc = encode_syntax(phi)
    assert sub_free(fc, encode_syntax(t), var).support == seq_encode(codes_of(_free_subst(phi, var, t))).support
    if len(flatten(phi)) <= 80:  # ψ's numeral makes fixed_point take seconds on ~400 symbols
        _, m = fixed_point(fc, var)
        assert m.support == seq_encode(codes_of(_free_subst(phi, var, DiagFn(Var(var))))).support


# --- the shifting splice encoder against the generic encoder ------------------

def test_splice_code_matches_encoding_the_spliced_list():
    rng = random.Random(31)
    big = [2**64 + 3, 3**200, 10**300]  # nested codes carry bignum items
    cases = [
        ([16, 7, 8], 16, [9, 8]),  # target at position 1
        ([7, 16, 16], 16, [9, 9, 8]),  # adjacent targets
        ([16, 16, 16, 16], 16, [8]),  # nothing but targets
        ([7, 8, 8], 16, [9, 8]),  # absent target
        ([], 16, [9, 8]),
        ([2, 16, 5, 16], 16, big),
        ([big[0], 1, big[0], 0], big[0], [big[2], 0, big[1]]),  # a bignum target
    ]
    for _ in range(200):
        pool = [0, 1, 2, 16, 17, rng.choice(big)]
        codes = [rng.choice(pool) for _ in range(rng.randrange(0, 30))]
        replacement = [rng.choice(pool + big) for _ in range(rng.randrange(1, 12))]
        cases.append((codes, rng.choice(pool), replacement))
    for codes, target, replacement in cases:
        want = seq_encode(_spliced(codes, target, replacement))
        got = _splice_code(codes, target, replacement)
        assert got.support == want.support
        assert got.number == want.number  # 0 for the empty code, else not yet known


def _lane_edge(bound, p):
    """(codes, target, replacement) whose largest spliced index is the largest
    one below ``bound``: copies of [1, 0, a] at offsets 0 and p, the last at
    the end, with a as large as that allows."""

    def top(a):  # index of a at position 3 of the copy p places in
        s = a + 3 + p
        return s * (s + 1) + 2 * a + 1

    a = isqrt(bound) - 3 - p
    while top(a) >= bound:
        a -= 1
    while top(a + 1) < bound:
        a += 1
    return [16] + [5] * (p - 3) + [16], 16, [1, 0, a]


@pytest.mark.parametrize("bound", [2**64, 2**128], ids=["2^64", "2^128"])
@pytest.mark.parametrize("side", [0, 1], ids=["below", "above"])
def test_splice_code_across_lane_widths(bound, side):
    # the largest index in a copy decides how many 64-bit words a lane needs:
    # 1 | 2 words across 2^64, 2 | 3 across 2^128; a lane one word too narrow
    # would carry into its neighbour or out of the top
    codes, target, replacement = _lane_edge(bound, 8)
    replacement[-1] += side
    want = seq_encode(_spliced(codes, target, replacement))
    assert (want.support[0] >= bound) == side
    assert _splice_code(codes, target, replacement).support == want.support


def test_splice_code_edge_placements():
    a = _lane_edge(2**64, 8)[2][-1]
    cases = [
        ([16, 7, 16], 16, []),  # an empty replacement deletes the target
        ([7, 8, 7], 16, [1, 0, a]),  # absent target
        ([16, 7, 8], 16, [1, 0, a + 1]),  # target at position 1: p = 0 only
        ([7, 8, 9, 16], 16, [a, 0, a + 1]),  # the largest p, at the end
        ([16], 16, [2**64 - 1, 2**64, 2**128]),
    ]
    for codes, target, replacement in cases:
        want = seq_encode(_spliced(codes, target, replacement))
        assert _splice_code(codes, target, replacement).support == want.support


def _seam_cases():
    """(codes, target, replacement) where the runs the splice appends overlap."""
    numeral = [9, 9, 8, 11, 9, 8, 9, 9, 8]
    wide = list(range(1, 41))
    random.Random(18).shuffle(wide)
    cases = []
    for big in (2**20, 2**70):
        row = [16] * 4
        # before the row, the big index must move past every copy; after
        # it, it lands last; inside the replacement, a small symbol after
        # the row moves back past whole copies
        cases += [
            ([big] + row + [7], 16, numeral),
            ([7] + row + [big], 16, numeral),
            ([7, big, 3] + row + [big, 0], 16, wide),
            ([5] + row + [0, 1], 16, [1, big, 0]),
        ]
    for gap in (0, 1, 2):
        sep = [5, 0][:gap]
        cases += [
            ([16] + sep + [16] + sep + [16], 16, numeral),
            ([12, 16] + sep + [16] + sep + [16, 0], 16, wide),
            ([16] + sep + [16] + sep + [16], 16, [40]),  # a one-symbol replacement
        ]
    return cases


@pytest.mark.parametrize("codes, target, replacement", _seam_cases())
def test_splice_code_merges_overlapping_runs(codes, target, replacement):
    got = _splice_code(codes, target, replacement).support
    assert got == seq_encode(_spliced(codes, target, replacement)).support
    assert all(x > y for x, y in zip(got, got[1:]))


def _near(bits):
    return st.integers(-3, 3).map(lambda d: 2**bits + d)


_LANE_ITEMS = st.one_of(
    st.integers(0, 20), _near(31), _near(32), _near(63), st.integers(2**64, 2**200)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LANE_ITEMS, max_size=16), st.lists(_LANE_ITEMS, max_size=8), st.data())
def test_splice_code_property_near_word_edges(codes, replacement, data):
    target = data.draw(st.sampled_from(codes) if codes else _LANE_ITEMS)
    got = _splice_code(codes, target, replacement)
    assert got.support == seq_encode(_spliced(codes, target, replacement)).support
    assert is_valid_support(got.support)


def test_public_splice_with_a_variable_past_two_to_the_forty():
    big = Var(2**40)
    phi = Imp(Eq(Var(0), big), Eq(Succ(Var(0)), Zero()))
    t = Succ(big)
    fc = encode_syntax(phi)
    # v_{2^40}'s code puts the copies' indices past 2^64, in two-word lanes
    out = sub_z(fc, encode_syntax(t))
    assert out.support[0] >= 2**64
    assert out.support == seq_encode(_spliced(codes_of(phi), DEFAULT_ALPHABET.var_code(0), codes_of(t))).support
    assert decode_syntax(out) == Imp(Eq(t, big), Eq(Succ(t), Zero()))
    # the formula's own value has about 2^79 bits, so its numeral is refused
    # before any splice
    with pytest.raises(NumeralTooLargeError):
        diag(fc)
    with pytest.raises(NumeralTooLargeError):
        fixed_point(fc)


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, shuffled_alphabet(5)], ids=["default", "offset40"])
@pytest.mark.parametrize("var", [-1, -3, -25, 2.0, "0", True])
def test_substitutions_refuse_a_variable_index_that_is_not_natural(alphabet, var):
    # -3 + 16 and -25 + 40 are the codes of base glyphs, so an unchecked index
    # would replace a symbol that is no variable
    fc = encode_syntax(Neg(ProvP(Var(0))), alphabet)
    tc = encode_syntax(Zero(), alphabet)
    with pytest.raises(AlphabetError):
        sub_z(fc, tc, var, alphabet)
    with pytest.raises(AlphabetError):
        sub_free(fc, tc, var, alphabet)
    with pytest.raises(AlphabetError):
        diag(fc, var, alphabet)
    with pytest.raises(AlphabetError):
        fixed_point(fc, var, alphabet)


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, shuffled_alphabet(5)], ids=["default", "offset40"])
def test_substitutions_match_encoding_the_spliced_list(alphabet):
    rng = random.Random(4242)

    def codes(node):
        return [alphabet.code_of(s) for s in flatten(node)]

    formulas = [
        Eq(Var(0), Var(0)),  # adjacent targets
        Eq(Zero(), Succ(Var(1))),  # absent target
        Imp(Eq(Var(0), Zero()), Forall(0, Eq(Var(0), Var(0)))),
        Neg(ProvP(Var(0))),
    ] + [random_formula(rng, depth=3, var_pool=(0, 1)) for _ in range(20)]
    terms = [Var(2**200), Succ(Var(3**100)), numeral(2**70 + 5), Zero()]  # bignum variable codes
    for phi in formulas:
        t = rng.choice(terms + [random_term(rng, depth=2)])
        fc, tc = encode_syntax(phi, alphabet), encode_syntax(t, alphabet)
        target = alphabet.var_code(0)

        assert sub_z(fc, tc, 0, alphabet).support == seq_encode(_spliced(codes(phi), target, codes(t))).support
        assert sub_free(fc, tc, 0, alphabet).support == seq_encode(codes(_free_subst(phi, 0, t))).support

        value = to_number(seq_encode(codes(phi)))
        num = codes(numeral(value))
        assert diag(fc, 0, alphabet).support == seq_encode(_spliced(codes(phi), target, num)).support

        psi, m = fixed_point(fc, 0, alphabet)
        theta = codes(_free_subst(phi, 0, DiagFn(Var(0))))
        num = codes(numeral(to_number(seq_encode(theta))))
        assert psi.support == seq_encode(_spliced(theta, target, num)).support
