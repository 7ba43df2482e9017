import json
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from zeckgodel.errors import InvalidSupportError, NotWffCodeError, TheoryConfigError, ZeckGodelError
from zeckgodel.logic import (
    SCHEMA_NAMES,
    Proof,
    ProofStep,
    TheoryConfig,
    _axioms,
    check_mp,
    check_mp_codes,
    check_proof,
    check_structured_proof,
    default_theory,
    godel_sentence,
    is_axiom,
    load_theory,
    prov_bounded,
)
from zeckgodel.seqcode import SeqCode, bits_estimate, is_code, seq_decode, seq_encode, seq_len, to_number
from zeckgodel.substitution import diag
from zeckgodel.syntax import (
    DEFAULT_ALPHABET,
    DiagFn,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Neg,
    Plus,
    ProvP,
    Succ,
    Term,
    Var,
    Zero,
    _from_codes,
    _spans,
    _to_codes,
    decode_proof,
    decode_syntax,
    encode_proof,
    encode_syntax,
    flatten,
    format_text,
    is_term_code,
    is_wff_code,
    numeral,
)

from helpers import random_formula, random_term, shuffled_alphabet

A = Eq(Zero(), Zero())
B = Forall(0, Eq(Var(0), Var(0)))
S0 = Succ(Zero())


@pytest.fixture
def mp_theory():
    return TheoryConfig(extra_axioms=(A, Imp(A, B)))


def test_schema_k():
    assert is_axiom(Imp(A, Imp(Eq(S0, S0), A)))
    assert not is_axiom(Imp(A, Imp(Eq(S0, S0), Eq(S0, S0))), TheoryConfig(schemas=frozenset({"K"})))


def test_schema_s():
    a, b, c = A, Eq(S0, S0), Eq(Zero(), S0)
    inst = Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))
    assert is_axiom(inst, TheoryConfig(schemas=frozenset({"S"})))
    broken = Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(b, c)))
    assert not is_axiom(broken, TheoryConfig(schemas=frozenset({"S"})))


def test_schema_contraposition():
    inst = Imp(Imp(Neg(B), Neg(A)), Imp(A, B))
    assert is_axiom(inst, TheoryConfig(schemas=frozenset({"contraposition"})))


def test_schema_eq_refl():
    assert is_axiom(Eq(Plus(Var(1), S0), Plus(Var(1), S0)), TheoryConfig(schemas=frozenset({"eq_refl"})))
    assert not is_axiom(Eq(Zero(), S0), TheoryConfig(schemas=frozenset({"eq_refl"})))


def test_schema_eq_subst():
    t = TheoryConfig(schemas=frozenset({"eq_subst"}))
    # 0 = S0 -> (0 + 0 = 0 -> S0 + 0 = 0), replacing some occurrences
    inst = Imp(
        Eq(Zero(), S0),
        Imp(Eq(Plus(Zero(), Zero()), Zero()), Eq(Plus(S0, Zero()), Zero())),
    )
    assert is_axiom(inst, t)
    # replacing a single occurrence is allowed too
    one_sided = Imp(Eq(Zero(), S0), Imp(Eq(Zero(), Zero()), Eq(S0, Zero())))
    assert is_axiom(one_sided, t)
    bad = Imp(Eq(Zero(), S0), Imp(Eq(Zero(), Zero()), Eq(S0, Succ(S0))))
    assert not is_axiom(bad, t)


def test_schema_forall_inst():
    t = TheoryConfig(schemas=frozenset({"forall_inst"}))
    inst = Imp(Forall(0, Eq(Var(0), Var(0))), Eq(S0, S0))
    assert is_axiom(inst, t)
    mixed = Imp(Forall(0, Eq(Var(0), Var(0))), Eq(S0, Zero()))  # two different terms
    assert not is_axiom(mixed, t)
    # no free occurrence: instance must equal the body
    vac = Imp(Forall(0, Eq(S0, S0)), Eq(S0, S0))
    assert is_axiom(vac, t)
    # capture: substituting v1 under a v1-binder is rejected
    captured = Imp(
        Forall(0, Exists(1, Eq(Var(0), Var(1)))),
        Exists(1, Eq(Var(1), Var(1))),
    )
    assert not is_axiom(captured, t)


def test_schema_forall_dist():
    t = TheoryConfig(schemas=frozenset({"forall_dist"}))
    p, q = Eq(Var(0), Zero()), Eq(Var(0), Var(0))
    inst = Imp(Forall(0, Imp(p, q)), Imp(Forall(0, p), Forall(0, q)))
    assert is_axiom(inst, t)


def test_extra_axioms(mp_theory):
    assert is_axiom(A, mp_theory)
    assert is_axiom(Imp(A, B), mp_theory)
    assert not is_axiom(Neg(A), mp_theory)


def test_unknown_schema_rejected():
    with pytest.raises(TheoryConfigError):
        TheoryConfig(schemas=frozenset({"XYZ"}))


def test_check_mp():
    assert check_mp(A, Imp(A, B), B)
    assert not check_mp(A, Imp(B, A), A)
    assert not check_mp(A, A, A)


def test_check_mp_codes():
    pc = encode_syntax(A)
    qc = encode_syntax(Imp(A, B))
    rc = encode_syntax(B)
    assert check_mp_codes(pc, qc, rc)
    assert not check_mp_codes(qc, pc, rc)
    assert not check_mp_codes(1, qc, rc)


def test_check_proof_accepts_mp_chain(mp_theory):
    code = encode_proof([A, Imp(A, B), B])
    assert check_proof(code, mp_theory)


def test_check_proof_rejections(mp_theory):
    assert not check_proof(encode_proof([Neg(A)]), mp_theory)
    assert not check_proof(encode_proof([]), mp_theory)
    assert not check_proof(1, mp_theory)
    assert not check_proof(encode_proof([B]), TheoryConfig(extra_axioms=()))


def test_check_proof_generalization():
    refl = Eq(Var(0), Var(0))
    t = TheoryConfig(schemas=frozenset({"eq_refl"}))
    assert check_proof(encode_proof([refl, Forall(0, refl)]), t)
    no_gen = TheoryConfig(schemas=frozenset({"eq_refl"}), generalization=False)
    assert not check_proof(encode_proof([refl, Forall(0, refl)]), no_gen)


def test_structured_proof_validation(mp_theory):
    good = Proof(
        (
            ProofStep(A, ("axiom",)),
            ProofStep(Imp(A, B), ("axiom",)),
            ProofStep(B, ("mp", 0, 1)),
        )
    )
    assert check_structured_proof(good, mp_theory)
    forward_ref = Proof(
        (
            ProofStep(B, ("mp", 0, 1)),  # indices not strictly earlier
            ProofStep(A, ("axiom",)),
            ProofStep(Imp(A, B), ("axiom",)),
        )
    )
    assert not check_structured_proof(forward_ref, mp_theory)
    gen = Proof(
        (
            ProofStep(Eq(Var(0), Var(0)), ("axiom",)),
            ProofStep(Forall(0, Eq(Var(0), Var(0))), ("gen", 0, 0)),
        )
    )
    assert check_structured_proof(gen, default_theory())


def test_prov_bounded_axiom_instance():
    k = Imp(A, Imp(B, A))
    found = prov_bounded(encode_syntax(k), 1)
    assert found is not None
    assert decode_proof(found) == [k]
    assert check_proof(found)


def test_prov_bounded_finds_mp_chain(mp_theory):
    found = prov_bounded(encode_syntax(B), 3, mp_theory)
    assert found is not None
    assert decode_proof(found) == [A, Imp(A, B), B]
    assert check_proof(found, mp_theory)
    assert prov_bounded(encode_syntax(B), 2, mp_theory) is None


def test_prov_bounded_underivable(mp_theory):
    assert prov_bounded(encode_syntax(Neg(A)), 5, mp_theory) is None


def test_default_theory_is_shared_and_builds_its_axiom_tables_once(monkeypatch):
    from zeckgodel import logic

    assert default_theory() is default_theory()
    reads = []

    class Counting(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    monkeypatch.setattr(logic, "_TEMPLATES", Counting(logic._TEMPLATES))
    monkeypatch.delitem(default_theory().__dict__, "_axioms", raising=False)
    proof = encode_proof([Eq(Zero(), Zero())])
    assert check_proof(proof) and check_proof(proof)
    assert sorted(reads) == sorted(name for name in default_theory().schemas if name in logic._TEMPLATES)


def test_an_equal_alphabet_shares_the_theorys_axiom_tables():
    from zeckgodel.syntax import load_alphabet

    theory = TheoryConfig(schemas=frozenset({"eq_refl"}), extra_axioms=(Eq(Zero(), Succ(Zero())),))
    built = _axioms(theory, DEFAULT_ALPHABET)
    loaded = load_alphabet({"symbols": dict(DEFAULT_ALPHABET.base), "offset": DEFAULT_ALPHABET.offset})
    assert loaded is not DEFAULT_ALPHABET
    assert _axioms(theory, loaded) is built
    assert list(theory.__dict__["_axioms"]) == [DEFAULT_ALPHABET]
    other = shuffled_alphabet(5)
    assert _axioms(theory, other) is not built and len(theory.__dict__["_axioms"]) == 2


def test_prov_bounded_rejects_non_wff(mp_theory):
    with pytest.raises(NotWffCodeError):
        prov_bounded(seq_encode([9, 8]), 3, mp_theory)


def test_prov_bounded_decodes_its_target_once(mp_theory, monkeypatch):
    from zeckgodel import logic, syntax

    decoded = []

    def counting(c):
        decoded.append(c)
        return seq_decode(c)

    monkeypatch.setattr(logic, "seq_decode", counting)
    monkeypatch.setattr(syntax, "seq_decode", counting)
    target = encode_syntax(B)
    for given in (target, to_number(target)):
        decoded.clear()
        assert prov_bounded(given, 3, mp_theory) is not None
        assert sum(c == target for c in decoded) == 1
    # a negative target is refused as a code before it is read as a formula
    with pytest.raises(InvalidSupportError):
        prov_bounded(-1, 3, mp_theory)


def test_prov_bounded_monotone(mp_theory):
    target = encode_syntax(B)
    assert prov_bounded(target, 3, mp_theory) is not None
    for bound in (4, 5, 8):
        assert prov_bounded(target, bound, mp_theory) is not None


def test_prov_bounded_deterministic(mp_theory):
    target = encode_syntax(B)
    first = prov_bounded(target, 5, mp_theory)
    second = prov_bounded(target, 5, mp_theory)
    assert first.support == second.support


def test_prov_bounded_duplicate_derivations_same_round():
    # two distinct implications conclude the same formula in one round
    a1, a2, c = A, Eq(S0, S0), Eq(Zero(), S0)
    theory = TheoryConfig(
        schemas=frozenset(), extra_axioms=(a1, a2, Imp(a1, c), Imp(a2, c))
    )
    found = prov_bounded(encode_syntax(c), 3, theory)
    assert found is not None
    assert check_proof(found, theory)
    assert decode_proof(found)[-1] == c


def test_prov_bounded_longer_chain():
    c = Eq(S0, S0)
    theory = TheoryConfig(extra_axioms=(A, Imp(A, B), Imp(B, c)))
    found = prov_bounded(encode_syntax(c), 5, theory)
    assert found is not None
    assert check_proof(found, theory)
    assert decode_proof(found)[-1] == c


def test_every_witness_revalidates(mp_theory):
    targets = [A, Imp(A, B), B, Imp(A, Imp(B, A))]
    for target in targets:
        found = prov_bounded(encode_syntax(target), 6, mp_theory)
        assert found is not None
        assert check_proof(found, mp_theory)


def test_tampering_detection(mp_theory):
    proof = [A, Imp(A, B), B]
    symbol_lists = [[DEFAULT_ALPHABET.code_of(s) for s in flatten(f)] for f in proof]
    assert check_proof(encode_proof(proof), mp_theory)
    rng = random.Random(6)
    rejected = 0
    for _ in range(100):
        mutated = [list(codes) for codes in symbol_lists]
        fi = rng.randrange(len(mutated))
        pos = rng.randrange(len(mutated[fi]))
        old = mutated[fi][pos]
        new = rng.choice([v for v in range(1, 26) if v != old])
        mutated[fi][pos] = new
        code = seq_encode([to_number(seq_encode(codes)) for codes in mutated])
        if not check_proof(code, mp_theory):
            rejected += 1
    assert rejected == 100


def test_load_theory(tmp_path):
    config = {
        "schemas": ["K", "S"],
        "extra_axioms": ["(= 0 0)", "(imp (= 0 0) (forall v0 (= v0 v0)))"],
        "rules": {"modus_ponens": True, "generalization": False},
        "prov_symbol": "Prov",
    }
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(config))
    t = load_theory(str(path))
    assert t.schemas == frozenset({"K", "S"})
    assert t.extra_axioms == (A, Imp(A, B))
    assert not t.generalization
    with pytest.raises(TheoryConfigError):
        load_theory({"extra_axioms": ["(= 0"]})


@pytest.mark.parametrize("config", [
    ["K"],  # not a mapping: no .get
    {"schemas": 5},  # not iterable
    {"schemas": [["K"]]},  # not hashable
    {"extra_axioms": [5]},  # not text
    {"extra_axioms": 5},
    {"rules": []},
], ids=["list", "schemas-int", "schemas-nested", "axiom-int", "axioms-int", "rules-list"])
def test_load_theory_rejects_malformed_configs(config):
    with pytest.raises(TheoryConfigError):
        load_theory(config)


def test_godel_sentence_fixed_point_identity():
    g, m = godel_sentence()
    assert g.support == diag(m).support


def test_godel_sentence_shape():
    g, m = godel_sentence()
    ast = decode_syntax(g)
    assert isinstance(ast, Neg)
    assert isinstance(ast.arg, ProvP)
    assert isinstance(ast.arg.arg, DiagFn)
    value = to_number(m, max_index=m.max_index)
    assert flatten(ast.arg.arg.arg) == flatten(numeral(value))


def test_godel_sentence_size_linear_in_bits():
    g, m = godel_sentence()
    bits = bits_estimate(m)
    # one free-variable occurrence: |G| = |theta| - 1 + |numeral|, numeral is
    # at most ~5 symbols per bit
    assert seq_len(g) <= 5 * bits + 16
    assert seq_len(g) >= bits  # numerals cannot be shorter than the bit count


def test_proof_code_of_a_100_bit_numeral():
    # formula codes here reach support index ~8*10^5, far past the Fibonacci
    # table, so encoding and checking both run the divide-and-conquer paths
    n = random.Random(100).getrandbits(99) | 1 << 99
    num = numeral(n)
    assert check_proof(encode_proof([Eq(num, num)]))
    assert not check_proof(encode_proof([Eq(num, Succ(num))]))


def test_structural_checks_do_not_recurse():
    # numerals nest one level per bit; recursive equality ran out of stack here
    assert is_axiom(Eq(numeral(2**200 - 1), numeral(2**200 - 1)))
    g, _ = godel_sentence()
    psi, psi_again = decode_syntax(g), decode_syntax(g)  # equal, not identical
    assert is_axiom(Imp(psi, Imp(A, psi_again)))  # the K instance about the Gödel sentence
    n = random.Random(256).getrandbits(255) | 1 << 255
    assert check_structured_proof(Proof((ProofStep(Eq(numeral(n), numeral(n)), ("axiom",)),)))
    assert check_mp(Eq(numeral(n), numeral(n)), Imp(Eq(numeral(n), numeral(n)), psi), psi_again)


# --- differential check against the quadratic scan --------------------------

def _quadratic_check(code, theory, alphabet):
    """check_proof as an AST scan over all earlier pairs, with == on formulas."""
    try:
        formulas = decode_proof(code, alphabet)
    except Exception:
        return False
    schemas_only = TheoryConfig(schemas=theory.schemas)
    for i, f in enumerate(formulas):
        earlier = formulas[:i]
        if is_axiom(f, schemas_only) or f in theory.extra_axioms:
            continue
        if theory.modus_ponens and any(
            isinstance(q, Imp) and q.right == f and q.left in earlier for q in earlier
        ):
            continue
        if theory.generalization and isinstance(f, Forall) and f.body in earlier:
            continue
        return False
    return bool(formulas)


def _random_proof(rng):
    base = [random_formula(rng, depth=2) for _ in range(3)]
    base.append(Imp(base[0], base[1]))  # so that some premises are implications
    derived = [random_formula(rng, depth=2) for _ in range(3)]
    links = [Imp(rng.choice(base + derived), rng.choice(derived)) for _ in range(5)]
    extra = tuple(rng.sample(base, rng.randint(1, 4)) + rng.sample(links, rng.randint(1, 5)))
    theory = TheoryConfig(
        extra_axioms=extra, modus_ponens=rng.random() < 0.9, generalization=rng.random() < 0.8
    )
    steps = []
    for _ in range(rng.randint(1, 7)):
        r = rng.random()
        if r < 0.3:
            steps.append(rng.choice(extra))
        elif r < 0.55:  # modus ponens, the premise before or after its implication
            q = rng.choice(links)
            steps += [q.left, q, q.right] if rng.random() < 0.5 else [q, q.left, q.right]
        elif r < 0.65 and steps:
            steps.append(Forall(rng.randrange(3), rng.choice(steps)))
        elif r < 0.75 and steps:
            steps.append(rng.choice(steps))
        elif r < 0.85:
            a, b = rng.choice(base), rng.choice(derived)
            steps.append(Imp(a, Imp(b, a)))
        else:
            steps.append(rng.choice(base + derived + links))
    return steps, theory


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, shuffled_alphabet(7)], ids=["default", "offset40"])
def test_check_proof_matches_quadratic_scan(alphabet):
    rng = random.Random(4040)
    verdicts = []
    for _ in range(80):
        steps, theory = _random_proof(rng)
        code = encode_proof(steps, alphabet)
        verdicts.append(check_proof(code, theory, alphabet))
        assert verdicts[-1] == _quadratic_check(code, theory, alphabet)
        # one symbol changed in one step
        symbols = [[alphabet.code_of(g) for g in flatten(f)] for f in steps]
        step = rng.randrange(len(symbols))
        pos = rng.randrange(len(symbols[step]))
        symbols[step][pos] = rng.choice([c for c in range(1, alphabet.offset + 4) if c != symbols[step][pos]])
        tampered = seq_encode([to_number(seq_encode(s)) for s in symbols])
        assert check_proof(tampered, theory, alphabet) == _quadratic_check(tampered, theory, alphabet)
    assert 20 <= sum(verdicts) <= 60  # both verdicts well represented


# --- the code matchers against the AST matchers they replaced ----------------

def _ast_same(x, y):
    return x is y or (type(x) is type(y) and flatten(x) == flatten(y))


def _ast_replaced_some(p, q, s, t):
    if p == q or p == s and q == t:
        return True
    if type(p) is not type(q) or not isinstance(p, (Term, Formula)):
        return False
    return all(_ast_replaced_some(getattr(p, f.name), getattr(q, f.name), s, t) for f in fields(p))


def _ast_term_vars(t):
    if isinstance(t, Var):
        return {t.index}
    return set().union(*(_ast_term_vars(getattr(t, f.name)) for f in fields(t)))


def _ast_forall_inst(f):
    if not (isinstance(f, Imp) and isinstance(f.left, Forall)):
        return False
    var, cell = f.left.var, []

    def walk(b, q, binders):
        if isinstance(b, Var) and b.index == var and var not in binders:
            if not isinstance(q, Term) or cell and cell[0] != q:
                return False
            cell[:1] = [q]
            return not (_ast_term_vars(q) & binders)
        if type(b) is not type(q):
            return False
        if isinstance(b, (Forall, Exists)):
            return b.var == q.var and walk(b.body, q.body, binders | {b.var})
        return all(
            walk(getattr(b, f.name), getattr(q, f.name), binders) if isinstance(getattr(b, f.name), (Term, Formula))
            else getattr(b, f.name) == getattr(q, f.name)
            for f in fields(b)
        )

    return walk(f.left.body, f.right, frozenset())


_AST_MATCHERS = {
    "K": lambda f: isinstance(f, Imp) and isinstance(f.right, Imp) and _ast_same(f.right.right, f.left),
    "S": lambda f: (
        isinstance(f, Imp) and isinstance(f.left, Imp) and isinstance(f.left.right, Imp)
        and isinstance(f.right, Imp)
        and _ast_same(f.right.left, Imp(f.left.left, f.left.right.left))
        and _ast_same(f.right.right, Imp(f.left.left, f.left.right.right))
    ),
    "contraposition": lambda f: (
        isinstance(f, Imp) and isinstance(f.left, Imp) and isinstance(f.right, Imp)
        and isinstance(f.left.left, Neg) and isinstance(f.left.right, Neg)
        and _ast_same(f.left.left.arg, f.right.right) and _ast_same(f.left.right.arg, f.right.left)
    ),
    "eq_refl": lambda f: isinstance(f, Eq) and _ast_same(f.left, f.right),
    "eq_subst": lambda f: (
        isinstance(f, Imp) and isinstance(f.left, Eq) and isinstance(f.right, Imp)
        and _ast_replaced_some(f.right.left, f.right.right, f.left.left, f.left.right)
    ),
    "forall_inst": _ast_forall_inst,
    "forall_dist": lambda f: (
        isinstance(f, Imp) and isinstance(f.left, Forall) and isinstance(f.left.body, Imp)
        and _ast_same(f.right, Imp(Forall(f.left.var, f.left.body.left), Forall(f.left.var, f.left.body.right)))
    ),
}


def _replace_some(node, s, t, rng):
    """node with each occurrence of s replaced by t or not, at random."""
    if node == s and rng.random() < 0.6:
        return t
    if isinstance(node, (Zero, Var)):
        return node
    return type(node)(*(
        _replace_some(v, s, t, rng) if isinstance(v, (Term, Formula)) else v
        for v in (getattr(node, f.name) for f in fields(node))
    ))


def _instantiate(node, x, t, bound=frozenset()):
    if isinstance(node, Var):
        return t if node.index == x and x not in bound else node
    if isinstance(node, (Forall, Exists)):
        return type(node)(node.var, _instantiate(node.body, x, t, bound | {node.var}))
    if isinstance(node, Zero):
        return node
    return type(node)(*(_instantiate(getattr(node, f.name), x, t, bound) for f in fields(node)))


def _schema_instance(rng):
    phi = lambda: random_formula(rng, depth=2)
    term = lambda: random_term(rng, 2)
    kind = rng.randrange(9)
    if kind == 0:
        a, b = phi(), phi()
        return Imp(a, Imp(b, a))
    if kind == 1:
        a, b, c = phi(), phi(), phi()
        return Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))
    if kind == 2:
        a, b = phi(), phi()
        return Imp(Imp(Neg(b), Neg(a)), Imp(a, b))
    if kind == 3:
        t = term()
        return Eq(t, t)
    if kind == 4:
        s, t, body = rng.choice([Zero(), Var(0), Var(1)]), term(), phi()
        return Imp(Eq(s, t), Imp(body, _replace_some(body, s, t, rng)))
    if kind == 5:  # a quantifier over the body may capture a variable of the term
        x, body = rng.randrange(3), Exists(rng.randrange(3), phi())
        return Imp(Forall(x, body), _instantiate(body, x, term()))
    if kind == 6:
        x, a, b = rng.randrange(3), phi(), phi()
        return Imp(Forall(x, Imp(a, b)), Imp(Forall(x, a), Forall(x, b)))
    if kind == 7:  # eq_subst never renames a quantifier's variable
        s, t, body = rng.randrange(3), rng.randrange(3), phi()
        return Imp(Eq(Var(s), Var(t)), Imp(Forall(s, body), Forall(t, _replace_some(body, Var(s), Var(t), rng))))
    return phi()


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, shuffled_alphabet(7)], ids=["default", "offset40"])
def test_code_matchers_match_the_ast_matchers(alphabet):
    rng = random.Random(2006)
    tests = {name: _axioms(TheoryConfig(schemas=frozenset({name})), alphabet)[0] for name in SCHEMA_NAMES}
    symbols = list(alphabet.base.values()) + [alphabet.offset + k for k in range(4)]
    arity = lambda c: alphabet._sig[c][0] if c < alphabet.offset else 0
    hits = tampered = 0
    for _ in range(600):
        codes = _to_codes(_schema_instance(rng), alphabet)
        variants = [codes]
        # one symbol changed, mostly for one of the same arity, so that most twins parse
        twin = list(codes)
        pos = rng.randrange(len(twin))
        old = twin[pos]
        like = [c for c in symbols if c != old and (rng.random() < 0.2 or arity(c) == arity(old))]
        twin[pos] = rng.choice(like or [c for c in symbols if c != old])
        variants.append(twin)
        for codes in variants:
            try:
                f = _from_codes(codes, alphabet)
            except ZeckGodelError:
                f = None
            spans = _spans(codes, alphabet, {})
            # the span pass accepts exactly the parser's formulas
            assert (spans is not None) == isinstance(f, Formula)
            if spans is None:
                continue
            tampered += codes is twin
            for name in SCHEMA_NAMES:
                verdict = tests[name](codes, *spans)
                assert verdict == _AST_MATCHERS[name](f), (name, format_text(f))
                hits += verdict
    assert hits >= 400 and tampered >= 150  # instances and well-formed twins both well represented


# --- decoded deep instances, totality, lazy decoding ------------------------

@pytest.mark.parametrize("bits", [200, 5000])
def test_decoded_deep_instances_are_axioms(bits):
    # decoding shares no subtree, so equal sides compare by walking them
    n = numeral(2**bits - 1)
    eq_subst = Imp(Eq(Var(1), Var(2)), Imp(Eq(n, Var(1)), Eq(n, Var(2))))
    forall_inst = Imp(Forall(0, Eq(Var(0), Var(0))), Eq(n, n))
    for f in (eq_subst, forall_inst):
        g = decode_syntax(encode_syntax(f))
        assert is_axiom(g)
        assert check_structured_proof(Proof((ProofStep(g, ("axiom",)),)))
    wrong = decode_syntax(encode_syntax(Imp(Forall(0, Eq(Var(0), Var(0))), Eq(n, Succ(n)))))
    assert not is_axiom(wrong)


_ARBITRARY = (
    st.none() | st.floats() | st.text(max_size=4) | st.integers(max_value=-1) | st.booleans()
    | st.integers(min_value=0, max_value=2**80)
    | st.lists(st.integers(min_value=2, max_value=40), max_size=12).map(
        lambda gaps: SeqCode(tuple(reversed([sum(gaps[: k + 1]) - 1 for k in range(len(gaps))])))
    )
)


@settings(max_examples=300, deadline=None)
@given(_ARBITRARY, _ARBITRARY, _ARBITRARY)
def test_predicates_are_total_on_arbitrary_values(x, y, z):
    for predicate in (is_code, is_wff_code, is_term_code, check_proof):
        assert predicate(x) in (True, False)
    assert check_mp_codes(x, y, z) in (True, False)


def test_check_proof_decodes_only_the_steps_it_checks(mp_theory, monkeypatch):
    from zeckgodel import logic, syntax

    decoded = []

    def counting(c):
        decoded.append(c)
        return seq_decode(c)

    # the proof list is decoded in logic, each step in syntax
    monkeypatch.setattr(logic, "seq_decode", counting)
    monkeypatch.setattr(syntax, "seq_decode", counting)
    for j in (1, 2, 4):
        proof = [A, Imp(A, B), B, A][: j - 1] + [Neg(A)] + [A] * 5
        decoded.clear()
        assert not check_proof(encode_proof(proof), mp_theory)
        assert len(decoded) == 1 + j  # the list, then elements 1..j
