"""Hilbert-style calculus, proof-code checking, and bounded proof search.

A proof code is just the coded list of its formulas; the checker re-derives
each step (axiom instance, modus ponens from two earlier steps, or
generalization of an earlier step).  ``prov_bounded`` is an explicitly
bounded witness search, not the unbounded provability predicate.

Every check runs on symbol codes; no AST is built.  One span pass per
formula (``syntax._spans``) gives each position the end of its subtree and
an id, equal exactly for equal subtrees, from a table shared across a
proof.  K, S, contraposition, eq_refl and forall_dist are prefix templates
such as ``→ A → B A``: a glyph must equal the code at its place and a
letter binds the id of the subtree there.  eq_subst and forall_inst are
parallel walks over two subtrees with an explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotWffCodeError, TheoryConfigError, ZeckGodelError
from .seqcode import SeqCode, as_code, seq_decode, seq_encode, to_number
from .syntax import (
    Alphabet,
    DEFAULT_ALPHABET,
    Formula,
    Neg,
    ProvP,
    Var,
    _read,
    _read_config,
    _spans,
    _to_codes,
    encode_syntax,
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
    """Axiom schemas, extra axioms and rule toggles."""

    schemas: frozenset[str] = frozenset(SCHEMA_NAMES)
    extra_axioms: tuple[Formula, ...] = ()
    modus_ponens: bool = True
    generalization: bool = True

    def __post_init__(self):
        unknown = self.schemas - set(SCHEMA_NAMES)
        if unknown:
            raise TheoryConfigError(f"unknown axiom schemas: {sorted(unknown)}")
        for f in self.extra_axioms:
            if not isinstance(f, Formula):
                raise TheoryConfigError(f"extra axiom is not a formula: {f!r}")


_DEFAULT_THEORY = TheoryConfig()


def default_theory() -> TheoryConfig:
    """Every schema, no extra axioms, both rules: one shared instance, so the
    axiom tables cached on it are built once per process."""
    return _DEFAULT_THEORY


def load_theory(source) -> TheoryConfig:
    """Theory from a JSON file path or parsed mapping; axioms in prefix text."""
    source = _read_config(source, TheoryConfigError, "theory")
    try:
        schemas = frozenset(source.get("schemas", SCHEMA_NAMES))
        extras = tuple(parse_text(s, expect="formula") for s in source.get("extra_axioms", ()))
        rules = source.get("rules", {})
        return TheoryConfig(
            schemas=schemas,
            extra_axioms=extras,
            modus_ponens=bool(rules.get("modus_ponens", True)),
            generalization=bool(rules.get("generalization", True)),
        )
    except TheoryConfigError:
        raise
    # a ParseError from an axiom; .get on a non-mapping; an unhashable or non-iterable field
    except (ZeckGodelError, AttributeError, TypeError) as exc:
        raise TheoryConfigError(f"malformed theory config: {exc}") from exc


# --- axiom schema matching ----------------------------------------------
#
# A matcher reads the formula starting at position p of a span-passed code
# list, given as its codes, subtree ids and subtree ends.

_TEMPLATES = {
    "K": "→ A → B A",
    "S": "→ → A → B C → → A B → A C",
    "contraposition": "→ → ¬ B ¬ A → A B",
    "eq_refl": "= A A",
    "forall_dist": "→ ∀ x → A B → ∀ x A ∀ x B",
}


def _fits(template: list, codes, ids, ends, p: int) -> bool:
    bound: dict[str, int] = {}
    for tok in template:
        if type(tok) is int:
            if codes[p] != tok:
                return False
            p += 1
        else:
            x = ids[p]
            if bound.setdefault(tok, x) != x:
                return False
            p = ends[p]
    return True


def _eq_subst(codes, ids, ends, p: int, alphabet: Alphabet) -> bool:
    """``→ = s t → φ φ'``, φ' from φ by replacing some occurrences of s by t.

    A parallel walk over φ and φ' with an explicit stack; the variable of a
    quantifier is not an occurrence.
    """
    base, sig = alphabet.base, alphabet._sig
    if codes[p] != base["→"] or codes[p + 1] != base["="]:
        return False
    s = p + 2
    t = ends[s]
    q = ends[t]
    if codes[q] != base["→"]:
        return False
    sid, tid = ids[s], ids[t]
    stack = [(q + 1, ends[q + 1])]
    while stack:
        x, y = stack.pop()
        if ids[x] == ids[y] or ids[x] == sid and ids[y] == tid:
            continue
        a = codes[x]
        if a != codes[y]:
            return False
        # equal leaves have equal ids, so a is a head with operands
        k, first, _, _, _ = sig[a]
        x, y = x + 1, y + 1
        if first == 2:
            if codes[x] != codes[y]:
                return False
            stack.append((x + 1, y + 1))
            continue
        for _ in range(k):
            stack.append((x, y))
            x, y = ends[x], ends[y]
    return True


def _forall_inst(codes, ids, ends, p: int, alphabet: Alphabet) -> bool:
    """``→ ∀ x φ ψ``, ψ = φ[x := t] with t the same term at every free site
    of x, and no variable of t bound by a quantifier above a site.

    A parallel walk over φ and ψ with an explicit stack, each pair carrying
    the variables bound above it; t is held as its id.
    """
    base, sig, offset = alphabet.base, alphabet._sig, alphabet.offset
    if codes[p] != base["→"] or codes[p + 1] != base["∀"]:
        return False
    var = codes[p + 2]
    stack = [(p + 3, ends[p + 1], frozenset())]
    term = None
    while stack:
        x, y, binders = stack.pop()
        a = codes[x]
        if a == var and var not in binders:
            if term is None:
                term = ids[y]
                term_vars = {c for c in codes[y:ends[y]] if c >= offset}
            elif ids[y] != term:
                return False
            if not term_vars.isdisjoint(binders):
                return False
            continue
        if a != codes[y]:
            return False
        if a >= offset:
            continue
        k, first, _, _, _ = sig[a]
        x, y = x + 1, y + 1
        if first == 2:
            if codes[x] != codes[y]:
                return False
            stack.append((x + 1, y + 1, binders | {codes[x]}))
            continue
        for _ in range(k):
            stack.append((x, y, binders))
            x, y = ends[x], ends[y]
    return True


_WALKS = {"eq_subst": _eq_subst, "forall_inst": _forall_inst}


def _axioms(theory: TheoryConfig, alphabet: Alphabet):
    """(axiom predicate, symbol codes of each extra axiom) of the theory.

    The predicate, ``test(codes, ids, ends, p=0)``, reads the formula at p
    of a span-passed list.

    Built once per (theory, alphabet) and kept on the frozen theory itself,
    keyed by the alphabet, so equal alphabets share an entry.  A dict keyed
    by the theory would hash every axiom.  Extra axioms are looked up by
    their symbol codes in a set.
    """
    built = theory.__dict__.setdefault("_axioms", {})
    entry = built.get(alphabet)
    if entry is not None:
        return entry
    extra = tuple(tuple(_to_codes(a, alphabet)) for a in theory.extra_axioms)
    lookup = set(extra)
    templates = [
        [alphabet.base.get(tok, tok) for tok in _TEMPLATES[name].split()]
        for name in theory.schemas
        if name in _TEMPLATES
    ]
    walks = [_WALKS[name] for name in theory.schemas if name in _WALKS]

    def test(codes, ids, ends, p: int = 0) -> bool:
        if lookup and tuple(codes[p:ends[p]]) in lookup:
            return True
        return any(_fits(t, codes, ids, ends, p) for t in templates) or any(
            walk(codes, ids, ends, p, alphabet) for walk in walks
        )

    return built.setdefault(alphabet, (test, extra))


def is_axiom(f: Formula, theory: TheoryConfig | None = None) -> bool:
    codes = _to_codes(f, DEFAULT_ALPHABET)
    spans = _spans(codes, DEFAULT_ALPHABET, {})
    return spans is not None and _axioms(theory or default_theory(), DEFAULT_ALPHABET)[0](codes, *spans)


def check_mp(p: Formula, q: Formula, r: Formula) -> bool:
    """True iff q is structurally p -> r."""
    return _to_codes(q, DEFAULT_ALPHABET) == [
        DEFAULT_ALPHABET.base["→"], *_to_codes(p, DEFAULT_ALPHABET), *_to_codes(r, DEFAULT_ALPHABET)
    ]


def check_mp_codes(pc, qc, rc, alphabet: Alphabet | None = None) -> bool:
    """True iff p and r are wff codes and q codes p -> r."""
    alphabet = alphabet or DEFAULT_ALPHABET
    p, q, r = (_read(c, alphabet, {}) for c in (pc, qc, rc))
    # the codes of a wff end where its tree does, so q's split is p's length
    return None not in (p, q, r) and q[0] == [alphabet.base["→"], *p[0], *r[0]]


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
    alphabet = DEFAULT_ALPHABET
    axiom = _axioms(theory, alphabet)[0]
    imp, forall = alphabet.base["→"], alphabet.base["∀"]
    table: dict = {}
    spans = []  # (codes, ids, ends) of each earlier step, ids from one table
    for i, step in enumerate(proof.steps):
        codes = _to_codes(step.formula, alphabet)
        s = _spans(codes, alphabet, table)
        if s is None:
            return False
        ids, ends = s
        j = step.justification
        if j[0] == "axiom":
            if not axiom(codes, ids, ends):
                return False
        elif j[0] == "mp":
            _, a, b = j
            if not (theory.modus_ponens and 0 <= a < i and 0 <= b < i):
                return False
            q_codes, q_ids, q_ends = spans[b]
            if not (q_codes[0] == imp and q_ids[1] == spans[a][1][0] and q_ids[q_ends[1]] == ids[0]):
                return False
        elif j[0] == "gen":
            _, a, v = j
            if not (theory.generalization and 0 <= a < i):
                return False
            if not (codes[0] == forall and codes[1] - alphabet.offset == v and ids[2] == spans[a][1][0]):
                return False
        else:
            return False
        spans.append((codes, ids, ends))
    return len(proof.steps) > 0


# --- proof-code checking -------------------------------------------------

def check_proof(
    proof_code: "SeqCode | int",
    theory: TheoryConfig | None = None,
    alphabet: Alphabet | None = None,
) -> bool:
    """Total predicate: malformed codes and invalid derivations are False.

    Each step is decoded to its symbol codes only when it is checked, and
    the check stops at the first step that is not justified.  One span pass
    per step, with an id table shared across the proof, gives every subtree
    an id; earlier steps and each earlier implication's conclusion -> premise
    are then kept by id, so a step is checked by set and dict lookups and
    the axiom matchers: linear in the proof's symbols.
    """
    theory = theory or default_theory()
    alphabet = alphabet or DEFAULT_ALPHABET
    try:
        values = seq_decode(proof_code)
    except ZeckGodelError:
        return False
    if not values:
        return False
    axiom = _axioms(theory, alphabet)[0]
    imp, forall = alphabet.base["→"], alphabet.base["∀"]
    table: dict = {}
    seen: set[int] = set()  # ids of every earlier step
    premises: dict[int, list[int]] = {}  # conclusion id -> premise id of each earlier implication
    for value in values:
        read = _read(value, alphabet, table)
        if read is None:
            return False
        codes, ids, ends = read
        f = ids[0]
        # a repeated step is justified as its first occurrence was
        if not (
            f in seen
            or theory.modus_ponens and any(p in seen for p in premises.get(f, ()))
            or theory.generalization and codes[0] == forall and ids[2] in seen
            or axiom(codes, ids, ends)
        ):
            return False
        seen.add(f)
        if codes[0] == imp:
            premises.setdefault(ids[ends[1]], []).append(ids[1])
    return True


# --- bounded provability search -------------------------------------------

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
    steps are accepted by check_proof but not searched here.  Formulas are
    kept as symbol-code tuples, and each implication is split into premise
    and conclusion once, when it enters the pool.
    """
    theory = theory or default_theory()
    alphabet = alphabet or DEFAULT_ALPHABET
    read = _read(as_code(target), alphabet, {})
    if read is None:
        raise NotWffCodeError("not a wff code")
    goal = tuple(read[0])

    axiom, extra = _axioms(theory, alphabet)
    seeds = set(extra)
    for codes in [goal, *extra]:
        spans = _spans(codes, alphabet, {})
        if spans is None:
            continue
        ids, ends = spans
        for p in range(len(codes)):
            if ids[p] & 1 and axiom(codes, ids, ends, p):
                seeds.add(codes[p:ends[p]])

    imp = alphabet.base["→"]
    pool: dict[tuple, tuple | None] = {}  # key -> parents; None for axiom steps
    splits: dict[tuple, tuple[tuple, tuple]] = {}  # implication -> (premise, conclusion)

    def enter(k: tuple, parents: tuple | None) -> None:
        pool[k] = parents
        spans = _spans(k, alphabet, {}) if k[0] == imp else None
        if spans is not None:
            e = spans[1][1]
            splits[k] = (k[1:e], k[e:])

    for k in sorted(seeds):
        enter(k, None)

    def witness() -> SeqCode | None:
        order: list[tuple] = []
        seen: set[tuple] = set()
        stack = [(goal, False)]
        while stack:
            k, expanded = stack.pop()
            if expanded:
                order.append(k)
                continue
            if k in seen:
                continue
            seen.add(k)
            stack.append((k, True))
            parents = pool[k]
            if parents:
                stack.extend((p, False) for p in reversed(parents))
        if len(order) > bound:
            return None
        return seq_encode([to_number(seq_encode(k)) for k in order])

    if goal in pool:
        return witness() if bound >= 1 else None

    if not theory.modus_ponens:
        return None

    for _ in range(max(bound, 0)):
        derived: dict[tuple, tuple] = {}
        for qk in sorted(splits):
            pk, rk = splits[qk]
            if pk in pool and rk not in pool and rk not in derived:
                derived[rk] = (pk, qk)
        if not derived:
            return None
        for rk in sorted(derived):
            enter(rk, derived[rk])
        if goal in pool:
            return witness()
    return None


def godel_sentence(
    theory: TheoryConfig | None = None,
    alphabet: Alphabet | None = None,
) -> tuple[SeqCode, SeqCode]:
    """Fixed point of "is not provable": returns (g_code, m).

    ``theory`` is accepted but not read: the sentence depends only on the
    alphabet.
    """
    from .substitution import fixed_point  # only this function needs it; proof checks skip the import

    phi = Neg(ProvP(Var(0)))
    return fixed_point(encode_syntax(phi, alphabet), var=0, alphabet=alphabet)
