import json
import random

import pytest

from zeckgodel.errors import NotWffCodeError, TheoryConfigError
from zeckgodel.logic import (
    Proof,
    ProofStep,
    TheoryConfig,
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
from zeckgodel.seqcode import bits_estimate, seq_encode, seq_len, to_number
from zeckgodel.substitution import diag
from zeckgodel.syntax import (
    DEFAULT_ALPHABET,
    DiagFn,
    Eq,
    Exists,
    Forall,
    Imp,
    Neg,
    Plus,
    ProvP,
    Succ,
    Var,
    Zero,
    decode_proof,
    decode_syntax,
    encode_proof,
    encode_syntax,
    flatten,
    numeral,
)

from helpers import random_formula, shuffled_alphabet

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


def test_prov_bounded_rejects_non_wff(mp_theory):
    with pytest.raises(NotWffCodeError):
        prov_bounded(seq_encode([9, 8]), 3, mp_theory)


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
