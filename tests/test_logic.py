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
