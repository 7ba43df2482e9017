import json
import random
import re
import sys
from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zeckgodel.errors import (
    AlphabetError,
    InvalidSymbolError,
    NotProofCodeError,
    ParseError,
    ZeckGodelError,
)
from zeckgodel.seqcode import SeqCode, seq_encode, to_number
from zeckgodel.syntax import (
    Alphabet,
    DEFAULT_ALPHABET,
    And,
    DiagFn,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Neg,
    Or,
    Plus,
    ProvP,
    Succ,
    Term,
    Times,
    Var,
    Zero,
    decode_proof,
    decode_syntax,
    default_alphabet,
    encode_proof,
    encode_syntax,
    flatten,
    format_text,
    is_term_code,
    is_wff_code,
    load_alphabet,
    numeral,
    parse,
    parse_text,
)
from zeckgodel.syntax import _from_codes, _numeral_codes, _spans, _to_codes

from helpers import (
    eval_term,
    format_text_reference,
    from_codes_reference,
    parse_text_reference,
    random_formula,
    random_term,
    reference_heads,
    shuffled_alphabet,
)


def test_default_alphabet_table():
    a = default_alphabet()
    assert a.code_of("¬") == 1
    assert a.code_of("=") == 7
    assert a.code_of("Prov") == 13
    assert a.code_of("v0") == 16
    assert a.code_of("v3") == 19
    assert a.offset == 16
    # the whole table: the default codes follow the grammar's order
    glyphs = ["¬", "→", "∧", "∨", "∀", "∃", "=", "0", "S", "+", "·", "diagfn", "Prov"]
    assert dict(a.base) == {g: code for code, g in enumerate(glyphs, start=1)}


def test_variable_and_base_codes_disjoint():
    a = default_alphabet()
    assert max(a.base.values()) == 13
    assert a.var_code(0) == 16 > 13


def test_symbol_of_rejects_unassigned_codes():
    a = default_alphabet()
    for bad in (0, 14, 15):
        with pytest.raises(InvalidSymbolError):
            a.symbol_of(bad)
    assert a.symbol_of(16) == "v0"
    assert a.symbol_of(1) == "¬"


def test_alphabet_validation():
    with pytest.raises(AlphabetError):
        Alphabet(base={"¬": 1}, offset=16)  # missing symbols
    base = dict(DEFAULT_ALPHABET.base)
    with pytest.raises(AlphabetError):
        Alphabet(base=base, offset=13)  # base code not below offset
    clash = dict(base, **{"¬": 7})
    with pytest.raises(AlphabetError):
        Alphabet(base=clash, offset=16)


def test_load_alphabet(tmp_path):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"symbols": dict(DEFAULT_ALPHABET.base), "offset": 20}))
    a = load_alphabet(str(path))
    assert a.code_of("v0") == 20
    with pytest.raises(AlphabetError):
        load_alphabet({"symbols": {}, "offset": 2})


def test_equal_alphabets_hash_equal_and_serve_as_keys():
    same = load_alphabet({"symbols": {g: c for g, c in reversed(DEFAULT_ALPHABET.base.items())}, "offset": 16})
    other = shuffled_alphabet(3)
    assert same == DEFAULT_ALPHABET and same is not DEFAULT_ALPHABET
    assert hash(same) == hash(DEFAULT_ALPHABET)
    assert {DEFAULT_ALPHABET, same, other} == {DEFAULT_ALPHABET, other}
    assert {DEFAULT_ALPHABET: 1, other: 2}[same] == 1
    # the same codes under another offset is another alphabet
    moved = Alphabet(base=dict(DEFAULT_ALPHABET.base), offset=17)
    assert moved != DEFAULT_ALPHABET and moved not in {DEFAULT_ALPHABET, other}


def test_flatten_examples():
    assert flatten(Eq(Zero(), Zero())) == ["=", "0", "0"]
    assert flatten(Forall(0, Eq(Var(0), Var(0)))) == ["∀", "v0", "=", "v0", "v0"]


def test_parse_inverts_flatten():
    node = Imp(Eq(Succ(Zero()), Plus(Var(1), Zero())), Exists(2, ProvP(Var(2))))
    assert parse(flatten(node)) == node


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse(["=", "0"])
    assert "truncated input" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse(["=", "0", "0", "0"])
    assert "trailing symbols" in str(exc.value)
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse(["∀", "0", "=", "0", "0"])  # binder needs a variable
    with pytest.raises(ParseError):
        parse([])
    with pytest.raises(ParseError):
        parse(["v1\n"])  # flatten writes no such name


def test_parse_category_pinning():
    assert isinstance(parse(["S", "0"]), Term)
    with pytest.raises(ParseError):
        parse(["S", "0"], expect="formula")
    with pytest.raises(ParseError):
        parse(["=", "0", "0"], expect="term")


def test_grammar_totality_short_strings():
    # every string over the base alphabet up to length 5 parses or raises a
    # position-tagged error; the parser never loops
    base = list(DEFAULT_ALPHABET.base)
    parsed = 0
    for length in range(0, 6):
        for symbols in product(base, repeat=length):
            try:
                parse(list(symbols))
                parsed += 1
            except ParseError as exc:
                assert 0 <= exc.position <= length
    assert parsed > 0


def test_encode_syntax_examples():
    c = encode_syntax(Eq(Zero(), Zero()))
    assert c.support == seq_encode([7, 8, 8]).support
    assert decode_syntax(c) == Eq(Zero(), Zero())


def _terms_of_size(size, pool, memo):
    key = ("t", size)
    if key in memo:
        return memo[key]
    out = []
    if size == 1:
        out = [Zero()] + [Var(i) for i in pool]
    else:
        for sub in _terms_of_size(size - 1, pool, memo):
            out.append(Succ(sub))
            out.append(DiagFn(sub))
        for left_size in range(1, size - 1):
            for left in _terms_of_size(left_size, pool, memo):
                for right in _terms_of_size(size - 1 - left_size, pool, memo):
                    out.append(Plus(left, right))
                    out.append(Times(left, right))
    memo[key] = out
    return out


def _formulas_of_size(size, pool, memo):
    key = ("f", size)
    if key in memo:
        return memo[key]
    out = []
    if size >= 2:
        out += [ProvP(t) for t in _terms_of_size(size - 1, pool, memo)]
    if size >= 3:
        for left_size in range(1, size - 1):
            for left in _terms_of_size(left_size, pool, memo):
                for right in _terms_of_size(size - 1 - left_size, pool, memo):
                    out.append(Eq(left, right))
    if size >= 2:
        out += [Neg(f) for f in _formulas_of_size(size - 1, pool, memo)]
    for left_size in range(1, size - 1):
        for left in _formulas_of_size(left_size, pool, memo):
            for right in _formulas_of_size(size - 1 - left_size, pool, memo):
                out.append(Imp(left, right))
                out.append(And(left, right))
                out.append(Or(left, right))
    if size >= 3:
        for body in _formulas_of_size(size - 2, pool, memo):
            for v in pool:
                out.append(Forall(v, body))
                out.append(Exists(v, body))
    memo[key] = out
    return out


def test_unique_codes_exhaustive_small():
    # injectivity over every term/formula of at most 4 symbols
    memo = {}
    pool = (0, 1)
    objects = []
    for size in range(1, 5):
        objects += _terms_of_size(size, pool, memo)
        objects += _formulas_of_size(size, pool, memo)
    codes = {to_number(encode_syntax(x)) for x in objects}
    assert len(codes) == len(objects)
    for x in objects[::17]:
        assert decode_syntax(encode_syntax(x)) == x


def test_decode_syntax_errors():
    with pytest.raises(InvalidSymbolError):
        decode_syntax(seq_encode([7, 14, 8]))
    with pytest.raises(ParseError):
        decode_syntax(0)  # empty string is not a wff
    with pytest.raises(Exception):
        decode_syntax(1)  # not a sequence code


def test_wff_and_term_predicates():
    assert is_wff_code(encode_syntax(Eq(Zero(), Zero())))
    assert not is_term_code(encode_syntax(Eq(Zero(), Zero())))
    sc = encode_syntax(Succ(Zero()))
    assert is_term_code(sc) and not is_wff_code(sc)
    assert not is_wff_code(1)
    assert not is_wff_code(0)


def test_roundtrip_random_formulas():
    rng = random.Random(42)
    for _ in range(200):
        f = random_formula(rng, depth=5)
        assert decode_syntax(encode_syntax(f)) == f


def test_numeral_examples():
    two = Succ(Succ(Zero()))
    assert numeral(0) == Zero()
    assert numeral(1) == Succ(Zero())
    assert numeral(6) == Times(two, Succ(Times(two, Succ(Zero()))))
    for bad in (-1, 2.5, "3", None):
        with pytest.raises(ZeckGodelError):
            numeral(bad)


def test_numeral_evaluates_to_its_value():
    for n in range(0, 10_001):
        assert eval_term(numeral(n)) == n


def test_numeral_length_logarithmic():
    for n in (10**6, 10**12, 1 << 64):
        assert len(flatten(numeral(n))) <= 5 * n.bit_length() + 2


def test_numeral_huge_does_not_recurse():
    n = 1 << 4000
    syms = flatten(numeral(n))
    assert len(syms) > 4000


def test_encode_proof_examples():
    assert to_number(encode_proof([])) == 0
    f = Eq(Zero(), Zero())
    one = encode_proof([f])
    assert one.support == seq_encode([to_number(encode_syntax(f))]).support
    assert decode_proof(one) == [f]


def test_proof_roundtrip_random():
    rng = random.Random(3)
    for _ in range(50):
        formulas = [random_formula(rng, depth=3) for _ in range(3)]
        assert decode_proof(encode_proof(formulas)) == formulas


def test_decode_proof_rejects_non_wff_elements():
    bad = seq_encode([to_number(seq_encode([9, 8]))])  # element decodes to a term
    with pytest.raises(NotProofCodeError) as exc:
        decode_proof(bad)
    assert "element 1" in str(exc.value)


def test_text_form_roundtrip():
    cases = [
        Eq(Zero(), Zero()),
        Forall(0, Eq(Var(0), Var(0))),
        Imp(ProvP(DiagFn(Var(3))), Neg(Eq(Succ(Zero()), Var(1)))),
    ]
    for node in cases:
        assert parse_text(format_text(node)) == node
    assert format_text(Eq(Zero(), Zero())) == "(= 0 0)"
    assert format_text(Forall(0, Eq(Var(0), Var(0)))) == "(forall v0 (= v0 v0))"


def test_text_form_random_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        f = random_formula(rng, depth=4)
        assert parse_text(format_text(f)) == f


def test_parse_text_errors():
    for bad in ["", "(", "(= 0", "(= 0 0) junk", "(?? 0)", "(forall 0 (= 0 0))", ")", "(= 0 0 0)",
                "= 0 0", "((= 0 0))", "(= (0) 0)"]:
        with pytest.raises(ParseError):
            parse_text(bad)


def test_parse_text_reads_leading_zeros_in_a_variable():
    assert parse_text("(= v007 0)") == Eq(Var(7), Zero())
    assert format_text(parse_text("(= v007 0)")) == "(= v7 0)"


def test_parse_text_error_positions_count_parentheses():
    cases = [
        ("(= 0 0 0)", 4, "trailing symbols"),
        ("(= 0 0))", 5, "trailing symbols"),
        ("(= 0", 3, "truncated input"),
        ("(?? 0)", 1, "unexpected symbol '??'"),
        ("(forall 0 (= 0 0))", 2, "unexpected symbol '0', expected a variable"),
        ("= 0 0", 0, "unexpected '=', expected '('"),
        ("((= 0 0))", 1, "unexpected '(', expected '='"),
        ("(= (0) 0)", 2, "unexpected '(', expected '0'"),
        ("(= (imp 0 0) 0)", 3, "unexpected symbol 'imp', expected a term"),  # as written, not '→'
        ("(forall v1 v007)", 3, "unexpected symbol 'v007', expected a formula"),
    ]
    for text, position, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_text(text)
        assert (exc.value.position, str(exc.value)) == (position, f"{message} at position {position}")


def test_parsers_are_total_on_hostile_text():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        long_index = "1" * 4301
        cases = [
            (parse_text, None, 0),
            (parse_text, 5, 0),
            (parse_text, b"(= 0 0)", 0),
            (parse, ["=", "0", f"v{long_index}"], 2),
            (parse_text, f"(= 0 v{long_index})", 3),
            (parse_text, f"(forall v{long_index} (= 0 0))", 2),
            (parse, None, 0),
            (parse, 5, 0),
            (parse, [None], 0),
            (parse, ["=", 5, "0"], 1),
            (parse, ["=", "0", ["0"]], 2),
        ]
        for reader, text, position in cases:
            with pytest.raises(ParseError) as exc:
                reader(text)
            assert exc.value.position == position, (reader.__name__, str(text)[:20])
        # an index within the limit still reads; one past it still prints
        assert parse_text(f"(= 0 v{long_index[1:]})") == Eq(Zero(), Var(int(long_index[1:])))
        assert repr(Var(10**4400)).startswith("<zeckgodel.syntax.Var object at ")
    finally:
        sys.set_int_max_str_digits(old)


def test_variable_names_past_the_digit_limit_are_domain_errors():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        node = Forall(10**5000, Eq(Var(0), Zero()))
        for write in (format_text, flatten, lambda x: DEFAULT_ALPHABET.symbol_of(x.var + 16)):
            with pytest.raises(ZeckGodelError, match="too long to write"):
                write(node)
        with pytest.raises(ParseError, match="variable index too long"):
            DEFAULT_ALPHABET.code_of("v" + "1" * 4301)
        # the code parser reads the index off the code, so the node still decodes
        assert decode_syntax(seq_encode(_to_codes(node, DEFAULT_ALPHABET))) == node
    finally:
        sys.set_int_max_str_digits(old)


def test_repr_rebuilds_the_node_at_any_depth():
    node = Forall(0, Eq(Var(0), Succ(Zero())))
    assert repr(node) == "parse_text('(forall v0 (= v0 (S 0)))')"
    assert eval(repr(node), {"parse_text": parse_text}) == node
    assert repr(numeral(2**5000)).startswith("parse_text('(* (S (S 0)) ")
    assert repr(Var(-1)).startswith("<zeckgodel.syntax.Var object at ")


# every text name, both parentheses twice, variables and a name that is no symbol
_TEXT_POOL = ["(", ")", "(", ")", "not", "imp", "and", "or", "forall", "exists", "=", "0", "S", "+", "*",
              "diagfn", "Prov", "v0", "v1", "v007", "??"]


def _text_cases(rng, count):
    """Random token strings, half joined without spaces, and format_text
    output of random nodes, most with one token dropped, inserted or replaced."""
    for _ in range(count):
        if rng.random() < 0.4:
            tokens = [rng.choice(_TEXT_POOL) for _ in range(rng.randrange(10))]
            yield (" " if rng.random() < 0.5 else "").join(tokens)
            continue
        node = random_term(rng, 3) if rng.random() < 0.3 else random_formula(rng, 3)
        tokens = re.findall(r"[()]|[^()\s]+", format_text(node))
        i = rng.randrange(len(tokens) + 1)
        kind = rng.randrange(4)
        if kind == 1 and i < len(tokens):
            del tokens[i]
        elif kind == 2:
            tokens.insert(i, rng.choice(_TEXT_POOL))
        elif kind == 3 and i < len(tokens):
            tokens[i] = rng.choice(_TEXT_POOL)
        yield " ".join(tokens)


def _differential(seed, count):
    """Check parse_text against the reference frame machine; (accepted, rejected)."""
    accepted = rejected = 0
    for text in _text_cases(random.Random(seed), count):
        n_tokens = len(text.replace("(", " ( ").replace(")", " ) ").split())
        for expect in (None, "formula", "term"):
            try:
                want = parse_text_reference(text, expect)
            except ParseError:
                want = None
            try:
                got = parse_text(text, expect)
            except ParseError as exc:
                assert want is None and 0 <= exc.position <= n_tokens, (text, expect)
                rejected += 1
                continue
            assert got == want, (text, expect)
            assert format_text(got) == format_text_reference(want), (text, expect)
            accepted += 1
    return accepted, rejected


def test_parse_text_matches_the_reference_machine():
    # each string is read with all three expects; about one parse in seven accepts
    accepted, rejected = _differential(2718, 50_000)
    assert accepted >= 15_000 and rejected >= 100_000, (accepted, rejected)


_term_strategy = st.deferred(
    lambda: st.one_of(
        st.just(Zero()),
        st.builds(Var, st.integers(0, 4)),
        st.builds(Succ, _term_strategy),
        st.builds(DiagFn, _term_strategy),
        st.builds(Plus, _term_strategy, _term_strategy),
        st.builds(Times, _term_strategy, _term_strategy),
    )
)
_formula_strategy = st.deferred(
    lambda: st.one_of(
        st.builds(Eq, _term_strategy, _term_strategy),
        st.builds(ProvP, _term_strategy),
        st.builds(Neg, _formula_strategy),
        st.builds(Imp, _formula_strategy, _formula_strategy),
        st.builds(And, _formula_strategy, _formula_strategy),
        st.builds(Or, _formula_strategy, _formula_strategy),
        st.builds(Forall, st.integers(0, 3), _formula_strategy),
        st.builds(Exists, st.integers(0, 3), _formula_strategy),
    )
)


@settings(max_examples=200)
@given(_formula_strategy)
def test_formula_roundtrips_property(f):
    assert parse(flatten(f)) == f
    assert parse_text(format_text(f)) == f
    assert decode_syntax(encode_syntax(f)) == f


@settings(max_examples=300)
@given(st.lists(st.sampled_from(list(DEFAULT_ALPHABET.base) + ["v0", "v1"]), max_size=15))
def test_parser_totality_property(symbols):
    # arbitrary strings either parse or fail with a position-tagged error
    try:
        node = parse(symbols)
    except ParseError as exc:
        assert 0 <= exc.position <= len(symbols)
    else:
        assert flatten(node) == list(symbols)


def test_invalid_symbol_number_wins_over_parse_errors():
    # as if every symbol number were looked up before parsing
    for seq in ([7, 8, 8, 14], [7, 2, 14], [5, 14], [7, 14], [14]):
        with pytest.raises(InvalidSymbolError):
            decode_syntax(seq_encode(seq))


def test_unknown_glyph_errors_keep_their_position():
    cases = [
        (["=", "→", "??"], 1, "unexpected symbol '→', expected a term"),
        (["=", "0", "??"], 2, "unexpected symbol '??'"),
        (["∀", "??"], 1, "unexpected symbol '??', expected a variable"),
        (["=", "0", "0", "??"], 3, "trailing symbols"),
    ]
    for symbols, position, message in cases:
        with pytest.raises(ParseError) as exc:
            parse(symbols)
        assert exc.value.position == position
        assert str(exc.value) == f"{message} at position {position}"


_GLYPH_OF_TYPE = {
    Zero: "0", Succ: "S", Plus: "+", Times: "·", DiagFn: "diagfn", Eq: "=", ProvP: "Prov",
    Neg: "¬", Imp: "→", And: "∧", Or: "∨", Forall: "∀", Exists: "∃",
}


def _glyphs_oracle(node):
    """Prefix glyph string by plain recursion over the dataclass fields."""
    if isinstance(node, Var):
        return [f"v{node.index}"]
    out = [_GLYPH_OF_TYPE[type(node)]]
    for f in fields(node):
        child = getattr(node, f.name)
        out += [f"v{child}"] if isinstance(child, int) else _glyphs_oracle(child)
    return out


_ALPHABETS = (DEFAULT_ALPHABET, shuffled_alphabet(11))


@settings(max_examples=100)
@given(_formula_strategy | _term_strategy)
def test_code_walker_and_parser_match_glyph_path(node):
    glyphs = _glyphs_oracle(node)
    assert flatten(node) == glyphs
    assert parse(glyphs) == node
    for alphabet in _ALPHABETS:
        codes = [alphabet.code_of(g) for g in glyphs]
        assert _to_codes(node, alphabet) == codes
        assert _from_codes(codes, alphabet) == node


@pytest.mark.parametrize("alphabet", _ALPHABETS, ids=["default", "offset40"])
def test_numeral_codes_from_bits_match_the_walked_numeral(alphabet):
    rng = random.Random(77)
    values = [0, 1, 2, 3]
    values += [v for k in (2, 3, 8, 31, 64, 100, 1000, 4999) for v in (2**k - 1, 2**k, 2**k + 1)]
    values += [rng.getrandbits(rng.randrange(1, 5001)) for _ in range(20)]
    for n in values:
        assert _numeral_codes(n, alphabet) == _to_codes(numeral(n), alphabet), n


def test_ast_equality_does_not_recurse():
    n = numeral(2**200 - 1)
    g = encode_syntax(Eq(n, n))
    x, y = decode_syntax(g), decode_syntax(g)  # equal, sharing no node
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != decode_syntax(encode_syntax(Eq(n, Succ(n))))
    assert Var(3) == Var(3) and Var(3) != Var(4) and Zero() != Var(0) and Eq(Zero(), Zero()) != Zero()
    assert len({x, y, Eq(Zero(), Zero()), Eq(Zero(), Zero())}) == 2
    assert [f.name for f in fields(Forall)] == ["var", "body"]


def _code_cases(rng, alphabet, count):
    """Random code lists, and the codes of random nodes, most with one code
    dropped, inserted or replaced, over every glyph, three variables, a huge
    one and two codes that are no symbol."""
    pool = list(alphabet.base.values()) + [alphabet.offset + k for k in range(3)] + [0, alphabet.offset - 1]
    pool.append(alphabet.offset + 2**3000)
    for _ in range(count):
        if rng.random() < 0.4:
            yield [rng.choice(pool) for _ in range(rng.randrange(10))]
            continue
        codes = _to_codes(random_term(rng, 3) if rng.random() < 0.3 else random_formula(rng, 3), alphabet)
        i = rng.randrange(len(codes) + 1)
        kind = rng.randrange(4)
        if kind == 1 and i < len(codes):
            del codes[i]
        elif kind == 2:
            codes.insert(i, rng.choice(pool))
        elif kind == 3 and i < len(codes):
            codes[i] = rng.choice(pool)
        yield codes


def _outcome(parser, *args):
    """The parser's AST, or its error as (type, message, position)."""
    try:
        return parser(*args)
    except ZeckGodelError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("alphabet", _ALPHABETS, ids=["default", "offset40"])
def test_code_parser_matches_the_reference_machine(alphabet):
    heads = reference_heads(alphabet)
    accepted = rejected = 0
    for codes in _code_cases(random.Random(2028), alphabet, 50_000):
        for expect in (None, "formula", "term"):
            got = _outcome(_from_codes, codes, alphabet, expect)
            assert got == _outcome(from_codes_reference, codes, alphabet, heads, expect), (codes, expect)
            if isinstance(got, tuple):
                rejected += 1
            else:
                accepted += 1
    assert accepted >= 20_000 and rejected >= 100_000, (accepted, rejected)


@pytest.mark.parametrize("alphabet", _ALPHABETS, ids=["default", "offset40"])
def test_span_pass_accepts_exactly_the_parsers_terms_and_formulas(alphabet):
    rng = random.Random(1212)
    # every glyph, three variables and two codes that are no symbol
    pool = list(alphabet.base.values()) + [alphabet.offset + k for k in range(3)] + [0, alphabet.offset - 1]
    accepted = {Term: 0, Formula: 0}
    rejected = 0
    for _ in range(3000):
        node = random_term(rng, 3) if rng.random() < 0.5 else random_formula(rng, 3)
        walked = _to_codes(node, alphabet)
        i = rng.randrange(len(walked))
        variants = [
            walked,
            walked[:i] + [rng.choice(pool)] + walked[i + 1 :],  # one symbol changed
            walked[:i] + walked[i + 1 :],  # one dropped
            walked[:i] + [rng.choice(pool)] + walked[i:],  # one inserted
            [rng.choice(pool) for _ in range(rng.randrange(6))],
        ]
        for codes in variants:
            try:
                parsed = _from_codes(codes, alphabet)
            except ZeckGodelError:
                parsed = None
            for root, kind in ((0, Term), (1, Formula)):
                spans = _spans(codes, alphabet, {}, root)
                assert (spans is not None) == isinstance(parsed, kind), (root, codes)
                accepted[kind] += spans is not None
            rejected += parsed is None
    # about 1,500 of each kind are walked as they are; the rest are variants
    assert min(accepted.values()) >= 2000 and rejected >= 8000, (accepted, rejected)
