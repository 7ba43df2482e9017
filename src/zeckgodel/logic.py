"""Hilbert-style calculus, proof-code checking, and bounded proof search.

A proof code is just the coded list of its formulas; the checker re-derives
each step (axiom instance, modus ponens from two earlier steps, or
generalization of an earlier step).  ``prov_bounded`` is an explicitly
bounded witness search, not the unbounded provability predicate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import NotWffCodeError, TheoryConfigError
from .seqcode import SeqCode, as_code
from .substitution import fixed_point
from .syntax import (
    Alphabet,
    DEFAULT_ALPHABET,
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Neg,
    ProvP,
    Term,
    Var,
    _proof_steps,
    _to_codes,
    decode_syntax,
    encode_proof,
    encode_syntax,
    is_wff_code,
    parse_text,
)

SCHEMA_NAMES = (
    "K",
    "S",
    "contraposition",
    "eq_refl",
    "eq_subst",
    "forall_inst",
    "forall_dist",
)


@dataclass(frozen=True)
class TheoryConfig:
    """Axiom schemas, extra axioms, rule toggles, and the provability symbol."""

    schemas: frozenset[str] = frozenset(SCHEMA_NAMES)
    extra_axioms: tuple[Formula, ...] = ()
    modus_ponens: bool = True
    generalization: bool = True
    prov_symbol: str = "Prov"

    def __post_init__(self):
        unknown = self.schemas - set(SCHEMA_NAMES)
        if unknown:
            raise TheoryConfigError(f"unknown axiom schemas: {sorted(unknown)}")
        for f in self.extra_axioms:
            if not isinstance(f, Formula):
                raise TheoryConfigError(f"extra axiom is not a formula: {f!r}")


def default_theory() -> TheoryConfig:
    return TheoryConfig()


def load_theory(source) -> TheoryConfig:
    """Theory from a JSON file path or parsed mapping; axioms in prefix text."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            source = json.load(fh)
    try:
        schemas = frozenset(source.get("schemas", SCHEMA_NAMES))
        extras = tuple(parse_text(s, expect="formula") for s in source.get("extra_axioms", ()))
        rules = source.get("rules", {})
        return TheoryConfig(
            schemas=schemas,
            extra_axioms=extras,
            modus_ponens=bool(rules.get("modus_ponens", True)),
            generalization=bool(rules.get("generalization", True)),
            prov_symbol=str(source.get("prov_symbol", "Prov")),
        )
    except TheoryConfigError:
        raise
    except Exception as exc:
        raise TheoryConfigError(f"malformed theory config: {exc}") from exc


# --- axiom schema matching ----------------------------------------------

def _same(x, y) -> bool:
    """Structural equality without recursion, on the nodes' symbol codes."""
    return x is y or (type(x) is type(y) and _to_codes(x, DEFAULT_ALPHABET) == _to_codes(y, DEFAULT_ALPHABET))


def _match_k(f: Formula) -> bool:
    return isinstance(f, Imp) and isinstance(f.right, Imp) and _same(f.right.right, f.left)


def _match_s(f: Formula) -> bool:
    # (A -> (B -> C)) -> ((A -> B) -> (A -> C))
    if not (isinstance(f, Imp) and isinstance(f.left, Imp) and isinstance(f.left.right, Imp)):
        return False
    a, b, c = f.left.left, f.left.right.left, f.left.right.right
    r = f.right
    return (
        isinstance(r, Imp)
        and _same(r.left, Imp(a, b))
        and _same(r.right, Imp(a, c))
    )


def _match_contraposition(f: Formula) -> bool:
    # (!B -> !A) -> (A -> B)
    if not (isinstance(f, Imp) and isinstance(f.left, Imp) and isinstance(f.right, Imp)):
        return False
    lhs, rhs = f.left, f.right
    return (
        isinstance(lhs.left, Neg)
        and isinstance(lhs.right, Neg)
        and _same(lhs.left.arg, rhs.right)
        and _same(lhs.right.arg, rhs.left)
    )


def _match_eq_refl(f: Formula) -> bool:
    return isinstance(f, Eq) and _same(f.left, f.right)


def _replaced_some(p, q, s: Term, t: Term) -> bool:
    """q arises from p by replacing some (possibly zero) occurrences of s by t."""
    if p == q:
        return True
    if p == s and q == t:
        return True
    if type(p) is not type(q) or not isinstance(p, (Term, Formula)):
        return False
    return all(
        _replaced_some(getattr(p, name), getattr(q, name), s, t)
        for name in p.__dataclass_fields__
    )


def _match_eq_subst(f: Formula) -> bool:
    # s = t -> (phi -> phi'), phi' from phi by replacing occurrences of s by t
    if not (isinstance(f, Imp) and isinstance(f.left, Eq) and isinstance(f.right, Imp)):
        return False
    s, t = f.left.left, f.left.right
    return _replaced_some(f.right.left, f.right.right, s, t)


def _term_vars(t: Term) -> set[int]:
    out: set[int] = set()
    stack: list[Term] = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            out.add(x.index)
            continue
        for name in getattr(x, "__dataclass_fields__", {}):
            child = getattr(x, name)
            if isinstance(child, Term):
                stack.append(child)
    return out


def _match_forall_inst(f: Formula) -> bool:
    # forall x phi -> phi[x := t], t the same term at every free site,
    # with no variable of t captured by a binder above a site
    if not (isinstance(f, Imp) and isinstance(f.left, Forall)):
        return False
    var, body, inst = f.left.var, f.left.body, f.right
    cell: list[Term | None] = [None]

    def walk(b, q, binders: frozenset) -> bool:
        if isinstance(b, Var) and b.index == var and var not in binders:
            if not isinstance(q, Term):
                return False
            if cell[0] is None:
                cell[0] = q
            elif cell[0] != q:
                return False
            return not (_term_vars(q) & binders)
        if type(b) is not type(q):
            return False
        if isinstance(b, (Forall, Exists)):
            if b.var != q.var:
                return False
            return walk(b.body, q.body, binders | {b.var})
        fields = getattr(b, "__dataclass_fields__", {})
        if not fields:
            return b == q
        for name in fields:
            cb, cq = getattr(b, name), getattr(q, name)
            if isinstance(cb, (Term, Formula)):
                if not walk(cb, cq, binders):
                    return False
            elif cb != cq:
                return False
        return True

    return walk(body, inst, frozenset())


def _match_forall_dist(f: Formula) -> bool:
    # forall x (phi -> psi) -> (forall x phi -> forall x psi)
    if not (isinstance(f, Imp) and isinstance(f.left, Forall) and isinstance(f.left.body, Imp)):
        return False
    v = f.left.var
    p, q = f.left.body.left, f.left.body.right
    return _same(f.right, Imp(Forall(v, p), Forall(v, q)))


_SCHEMA_MATCHERS = {
    "K": _match_k,
    "S": _match_s,
    "contraposition": _match_contraposition,
    "eq_refl": _match_eq_refl,
    "eq_subst": _match_eq_subst,
    "forall_inst": _match_forall_inst,
    "forall_dist": _match_forall_dist,
}


def _axiom_test(theory: TheoryConfig, alphabet: Alphabet):
    """The theory's axiom predicate, ``test(f, codes=None)``.

    Extra axioms are looked up by their symbol codes in a set built once;
    pass ``codes`` when f's codes under ``alphabet`` are already known.
    """
    matchers = [_SCHEMA_MATCHERS[name] for name in theory.schemas]
    extra = {tuple(_to_codes(a, alphabet)) for a in theory.extra_axioms}

    def test(f: Formula, codes: tuple[int, ...] | None = None) -> bool:
        if extra and (tuple(_to_codes(f, alphabet)) if codes is None else codes) in extra:
            return True
        return any(match(f) for match in matchers)

    return test


def is_axiom(f: Formula, theory: TheoryConfig | None = None) -> bool:
    return _axiom_test(theory or default_theory(), DEFAULT_ALPHABET)(f)


def check_mp(p: Formula, q: Formula, r: Formula) -> bool:
    """True iff q is structurally p -> r."""
    return isinstance(q, Imp) and _same(q.left, p) and _same(q.right, r)


def check_mp_codes(pc, qc, rc, alphabet: Alphabet | None = None) -> bool:
    try:
        p = decode_syntax(as_code(pc), alphabet)
        q = decode_syntax(as_code(qc), alphabet)
        r = decode_syntax(as_code(rc), alphabet)
    except Exception:
        return False
    if not all(isinstance(x, Formula) for x in (p, q, r)):
        return False
    return check_mp(p, q, r)


# --- structured proofs ---------------------------------------------------

@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    # ("axiom",) | ("mp", premise_index, implication_index) | ("gen", index, var)
    justification: tuple


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]

    def formulas(self) -> list[Formula]:
        return [s.formula for s in self.steps]


def check_structured_proof(proof: Proof, theory: TheoryConfig | None = None) -> bool:
    """Validate a proof with explicit justifications (indices strictly earlier)."""
    theory = theory or default_theory()
    axiom = _axiom_test(theory, DEFAULT_ALPHABET)
    for i, step in enumerate(proof.steps):
        j = step.justification
        if j[0] == "axiom":
            if not axiom(step.formula):
                return False
        elif j[0] == "mp":
            _, a, b = j
            if not (theory.modus_ponens and 0 <= a < i and 0 <= b < i):
                return False
            if not check_mp(proof.steps[a].formula, proof.steps[b].formula, step.formula):
                return False
        elif j[0] == "gen":
            _, a, v = j
            if not (theory.generalization and 0 <= a < i):
                return False
            f = step.formula
            if not (isinstance(f, Forall) and f.var == v and _same(f.body, proof.steps[a].formula)):
                return False
        else:
            return False
    return len(proof.steps) > 0


# --- proof-code checking -------------------------------------------------

def check_proof(
    proof_code: "SeqCode | int",
    theory: TheoryConfig | None = None,
    alphabet: Alphabet | None = None,
) -> bool:
    """Total predicate: malformed codes and invalid derivations are False.

    Two formulas are equal exactly when their symbol codes are, so each step
    is checked by set and dict lookups on code tuples: linear in the proof's
    symbols.
    """
    theory = theory or default_theory()
    alphabet = alphabet or DEFAULT_ALPHABET
    try:
        steps = _proof_steps(as_code(proof_code), alphabet)
    except Exception:
        return False
    if not steps:
        return False
    axiom = _axiom_test(theory, alphabet)
    imp, forall = alphabet.base["→"], alphabet.base["∀"]
    seen: set[tuple[int, ...]] = set()  # every earlier step
    premises: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # conclusion -> premise of each earlier implication
    for f, k in steps:
        # a repeated step is justified as its first occurrence was
        if not (
            k in seen
            or axiom(f, k)
            or theory.modus_ponens and any(p in seen for p in premises.get(k, ()))
            or theory.generalization and k[0] == forall and k[2:] in seen
        ):
            return False
        seen.add(k)
        if k[0] == imp:
            split = _premise_end(k, alphabet)
            premises.setdefault(k[split:], []).append(k[1:split])
    return True


def _premise_end(codes: tuple[int, ...], alphabet: Alphabet) -> int:
    """End of the premise in an implication's codes ``→ p r``: an arity scan."""
    heads, offset = alphabet._heads, alphabet.offset
    need, i = 1, 1
    while need:
        a = codes[i]
        need += -1 if a >= offset else len(heads[a][1]) - 1
        i += 1
    return i


# --- bounded provability search -------------------------------------------

def _subformulas(f: Formula) -> list[Formula]:
    out: list[Formula] = []
    stack = [f]
    while stack:
        x = stack.pop()
        out.append(x)
        for name in getattr(x, "__dataclass_fields__", {}):
            child = getattr(x, name)
            if isinstance(child, Formula):
                stack.append(child)
    return out


def _key(f: Formula, alphabet: Alphabet) -> tuple[int, ...]:
    return tuple(_to_codes(f, alphabet))


def prov_bounded(
    target: "SeqCode | int",
    bound: int,
    theory: TheoryConfig | None = None,
    alphabet: Alphabet | None = None,
) -> SeqCode | None:
    """Search for a proof code of at most ``bound`` steps ending in target.

    Forward chaining on modus ponens over the extra axioms plus every
    subformula of the target/axioms that is itself an axiom instance.
    Deterministic: facts are scanned in code order, and the first derivation
    whose dependency closure fits the bound is returned.  Generalization
    steps are accepted by check_proof but not searched here.
    """
    theory = theory or default_theory()
    alphabet = alphabet or DEFAULT_ALPHABET
    tc = as_code(target)
    if not is_wff_code(tc, alphabet):
        raise NotWffCodeError("not a wff code")
    goal = decode_syntax(tc, alphabet)
    assert isinstance(goal, Formula)

    axiom = _axiom_test(theory, alphabet)
    seeds: list[Formula] = list(theory.extra_axioms)
    for f in [goal, *theory.extra_axioms]:
        for sub in _subformulas(f):
            if axiom(sub):
                seeds.append(sub)

    # pool: key -> (formula, parents); parents is None for axiom steps
    pool: dict[tuple, tuple[Formula, tuple | None]] = {}
    for f in sorted(seeds, key=lambda x: _key(x, alphabet)):
        pool.setdefault(_key(f, alphabet), (f, None))

    goal_key = _key(goal, alphabet)

    def witness() -> SeqCode | None:
        order: list[tuple] = []
        seen: set[tuple] = set()
        stack = [(goal_key, False)]
        while stack:
            k, expanded = stack.pop()
            if expanded:
                order.append(k)
                continue
            if k in seen:
                continue
            seen.add(k)
            stack.append((k, True))
            parents = pool[k][1]
            if parents:
                stack.extend((p, False) for p in reversed(parents))
        if len(order) > bound:
            return None
        index = {k: i for i, k in enumerate(order)}
        steps = []
        for k in order:
            f, parents = pool[k]
            just = ("axiom",) if parents is None else ("mp", index[parents[0]], index[parents[1]])
            steps.append(ProofStep(f, just))
        return encode_proof([s.formula for s in steps], alphabet)

    if goal_key in pool:
        return witness() if bound >= 1 else None

    if not theory.modus_ponens:
        return None

    for _ in range(max(bound, 0)):
        derived: dict[tuple, tuple[Formula, tuple]] = {}
        for qk, (q, _) in sorted(pool.items()):
            if not isinstance(q, Imp):
                continue
            pk = _key(q.left, alphabet)
            if pk not in pool:
                continue
            rk = _key(q.right, alphabet)
            if rk in pool or rk in derived:
                continue
            derived[rk] = (q.right, (pk, qk))
        if not derived:
            return None
        for rk in sorted(derived):
            pool[rk] = derived[rk]
        if goal_key in pool:
            return witness()
    return None


def godel_sentence(
    theory: TheoryConfig | None = None,
    alphabet: Alphabet | None = None,
) -> tuple[SeqCode, SeqCode]:
    """Fixed point of "is not provable": returns (g_code, m)."""
    phi = Neg(ProvP(Var(0)))
    return fixed_point(encode_syntax(phi, alphabet), var=0, alphabet=alphabet)
