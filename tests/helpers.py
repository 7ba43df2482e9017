"""Shared test utilities: independent oracles and random AST generators.

The oracles here deliberately avoid the library's own code paths: Fibonacci
numbers by plain iteration, pairing inverses by integer square root, greedy
decomposition over an iterated table.
"""

from __future__ import annotations

import random
import re
from dataclasses import fields
from math import isqrt

from zeckgodel.errors import InvalidSymbolError, ParseError
from zeckgodel.syntax import (
    DEFAULT_ALPHABET,
    Alphabet,
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
)


def fib_list(top_index: int) -> list[int]:
    """[F_1..F_top] with F_1 = 1, F_2 = 2, by plain iteration."""
    fibs = [1, 2]
    while len(fibs) < top_index:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs[:top_index]


def fib_upto(n: int) -> list[int]:
    fibs = [1, 2]
    while fibs[-1] + fibs[-2] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


def greedy_support(n: int) -> list[int]:
    """Greedy Zeckendorf support of n, decreasing indices, independent path.

    Walks F_e up to the largest term <= n and back down with two values at a
    time, so tops past 2^17 need no table of 10^5 big numbers.
    """
    support = []
    e, f, g = 1, 1, 2  # e, F_e, F_{e+1}
    while g <= n:
        e, f, g = e + 1, g, f + g
    while n:
        if f <= n:
            support.append(e)
            n -= f
        e, f, g = e - 1, g - f, f
    return support


def unpair_oracle(p: int) -> tuple[int, int]:
    w = (isqrt(8 * p + 1) - 1) // 2
    x = p - w * (w + 1) // 2
    return x, w - x


def pair_oracle(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + x


def decode_attempt(n: int) -> list[int] | None:
    """Brute-force sequence decode of a natural: None when not a code."""
    support = greedy_support(n)
    slots: dict[int, int] = {}
    for e in support:
        if e % 2 == 0:
            return None
        a, i = unpair_oracle((e - 1) // 2)
        if i < 1 or i > len(support) or i in slots:
            return None
        slots[i] = a
    if sorted(slots) != list(range(1, len(support) + 1)):
        return None
    return [slots[i] for i in range(1, len(support) + 1)]


_FIBS = [1, 2]


def fib_value(e: int) -> int:
    while len(_FIBS) < e:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[e - 1]


def seq_number_oracle(values: list[int]) -> int:
    """Independent Seq_Z: pair, double+1, sum Fibonacci values."""
    return sum(fib_value(2 * pair_oracle(a, i) + 1) for i, a in enumerate(values, start=1))


def eval_term(t: Term, env: dict[int, int] | None = None) -> int:
    """Standard semantics, iterative so deep numerals evaluate fine."""
    env = env or {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    values: dict[int, int] = {}
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if isinstance(node, Zero):
                values[id(node)] = 0
            elif isinstance(node, Var):
                values[id(node)] = env[node.index]
            else:
                stack.append((node, True))
                if isinstance(node, (Succ, DiagFn)):
                    stack.append((node.arg, False))
                else:
                    stack.append((node.left, False))
                    stack.append((node.right, False))
            continue
        if isinstance(node, Succ):
            values[id(node)] = values[id(node.arg)] + 1
        elif isinstance(node, Plus):
            values[id(node)] = values[id(node.left)] + values[id(node.right)]
        elif isinstance(node, Times):
            values[id(node)] = values[id(node.left)] * values[id(node.right)]
        else:
            raise ValueError(f"no standard semantics for {type(node).__name__}")
    return values[id(t)]


def random_term(rng: random.Random, depth: int, var_pool: tuple[int, ...] = (0, 1, 2)) -> Term:
    if depth <= 0 or rng.random() < 0.3:
        if var_pool and rng.random() < 0.5:
            return Var(rng.choice(var_pool))
        return Zero()
    kind = rng.randrange(4)
    if kind == 0:
        return Succ(random_term(rng, depth - 1, var_pool))
    if kind == 1:
        return Plus(random_term(rng, depth - 1, var_pool), random_term(rng, depth - 1, var_pool))
    if kind == 2:
        return Times(random_term(rng, depth - 1, var_pool), random_term(rng, depth - 1, var_pool))
    return DiagFn(random_term(rng, depth - 1, var_pool))


def random_formula(
    rng: random.Random,
    depth: int,
    var_pool: tuple[int, ...] = (0, 1, 2),
    binder_pool: tuple[int, ...] = (0, 1, 2),
    allow_binders: bool = True,
    allow_prov: bool = True,
) -> Formula:
    """Random wff; binder variables come only from binder_pool, so passing a
    pool that excludes the substitution target keeps sub_z outputs well formed."""
    if depth <= 0 or rng.random() < 0.25:
        if allow_prov and rng.random() < 0.3:
            return ProvP(random_term(rng, 1, var_pool))
        return Eq(random_term(rng, 1, var_pool), random_term(rng, 1, var_pool))
    kind = rng.randrange(6 if allow_binders else 4)
    sub = lambda: random_formula(rng, depth - 1, var_pool, binder_pool, allow_binders, allow_prov)
    if kind == 0:
        return Neg(sub())
    if kind == 1:
        return Imp(sub(), sub())
    if kind == 2:
        return And(sub(), sub())
    if kind == 3:
        return Or(sub(), sub())
    binder = Forall if kind == 4 else Exists
    return binder(rng.choice(binder_pool), sub())


def shuffled_alphabet(seed: int) -> Alphabet:
    """The 13 glyphs on shuffled codes 3..15, variables from 40."""
    glyphs = list(DEFAULT_ALPHABET.base)
    random.Random(seed).shuffle(glyphs)
    return Alphabet(base={g: k for k, g in enumerate(glyphs, start=3)}, offset=40)


# text name -> (constructor, operand slots); t = term, f = formula, v = variable
_TEXT_GRAMMAR = {
    "not": (Neg, ("f",)),
    "imp": (Imp, ("f", "f")),
    "and": (And, ("f", "f")),
    "or": (Or, ("f", "f")),
    "forall": (Forall, ("v", "f")),
    "exists": (Exists, ("v", "f")),
    "=": (Eq, ("t", "t")),
    "0": (Zero, ()),
    "S": (Succ, ("t",)),
    "+": (Plus, ("t", "t")),
    "*": (Times, ("t", "t")),
    "diagfn": (DiagFn, ("t",)),
    "Prov": (ProvP, ("t",)),
}
_TEXT_NAME = {ctor: name for name, (ctor, _) in _TEXT_GRAMMAR.items()}
_TEXT_VAR_RE = re.compile(r"^v(\d+)$")


def format_text_reference(node) -> str:
    """Parenthesized prefix text by plain recursion over the dataclass fields."""
    if isinstance(node, Var):
        return f"v{node.index}"
    if isinstance(node, Zero):
        return "0"
    parts = [_TEXT_NAME[type(node)]]
    for f in fields(node):
        child = getattr(node, f.name)
        parts.append(f"v{child}" if isinstance(child, int) else format_text_reference(child))
    return "(" + " ".join(parts) + ")"


def parse_text_reference(text: str, expect: str | None = None):
    """A frame machine over parenthesized prefix text: the reader the library
    used before its text went through the code parser, kept as an oracle."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    frames: list[list] = []  # [constructor, slots, children]
    root = None
    i, n = 0, len(tokens)

    def deliver(node):
        nonlocal root
        if frames:
            frames[-1][2].append(node)
        else:
            root = node

    while i < n:
        if root is not None:
            raise ParseError("trailing symbols", position=i)
        tok = tokens[i]
        if frames:
            f = frames[-1]
            want = f[1][len(f[2])] if len(f[2]) < len(f[1]) else ")"
        else:
            want = {"formula": "f", "term": "t"}.get(expect, "a")
        if tok == ")":
            if not frames:
                raise ParseError("unexpected ')'", position=i)
            if want != ")":
                raise ParseError("missing operand before ')'", position=i)
            f = frames.pop()
            deliver(f[0](*f[2]))
            i += 1
            continue
        if want == ")":
            raise ParseError(f"unexpected {tok!r}, expected ')'", position=i)
        if want == "v":
            m = _TEXT_VAR_RE.match(tok)
            if m is None:
                raise ParseError(f"unexpected symbol {tok!r}, expected a variable", position=i)
            frames[-1][2].append(int(m.group(1)))
            i += 1
            continue
        if tok == "(":
            if i + 1 >= n:
                raise ParseError("truncated input", position=i + 1)
            ctor, slots = _TEXT_GRAMMAR.get(tokens[i + 1], (None, ()))
            if not slots:
                raise ParseError(f"unexpected symbol {tokens[i + 1]!r}", position=i + 1)
            if issubclass(ctor, Term) and want == "f":
                raise ParseError(f"unexpected symbol {tokens[i + 1]!r}, expected a formula", position=i + 1)
            if issubclass(ctor, Formula) and want == "t":
                raise ParseError(f"unexpected symbol {tokens[i + 1]!r}, expected a term", position=i + 1)
            frames.append([ctor, slots, []])
            i += 2
            continue
        m = _TEXT_VAR_RE.match(tok)
        if m is not None:
            if want == "f":
                raise ParseError(f"unexpected symbol {tok!r}, expected a formula", position=i)
            deliver(Var(int(m.group(1))))
            i += 1
            continue
        if tok == "0":
            if want == "f":
                raise ParseError(f"unexpected symbol {tok!r}, expected a formula", position=i)
            deliver(Zero())
            i += 1
            continue
        raise ParseError(f"unexpected symbol {tok!r}", position=i)

    if frames or root is None:
        raise ParseError("truncated input", position=n)
    return root


# glyph of each text name that differs from it
_GLYPH_OF_TEXT = {"not": "¬", "imp": "→", "and": "∧", "or": "∨", "forall": "∀", "exists": "∃", "*": "·"}


def reference_heads(alphabet: Alphabet) -> dict:
    """code -> (constructor, operand slots, category) in the letters t/f/v:
    the head table the code parser read before it read one signature table."""
    heads = {}
    for name, (ctor, slots) in _TEXT_GRAMMAR.items():
        heads[alphabet.base[_GLYPH_OF_TEXT.get(name, name)]] = (ctor, slots, "t" if issubclass(ctor, Term) else "f")
    return heads


def _reference_glyph(code: int, alphabet: Alphabet) -> str:
    if code < alphabet.offset:
        return alphabet._by_code[code]
    e = code - alphabet.offset
    return f"v{e}" if e.bit_length() <= 2048 else f"v<{e.bit_length()}-bit index>"


def _reference_unexpected(codes, i, alphabet, heads, message):
    for a in codes[i:]:
        if a < alphabet.offset and a not in heads:
            return InvalidSymbolError(a)
    return ParseError(message, position=i)


def from_codes_reference(codes, alphabet: Alphabet, heads: dict, expect: str | None = None):
    """The one-pass frame machine that parsed symbol codes before the parser
    split into a slot check and a stack build, kept as an oracle; ``heads``
    is reference_heads(alphabet)."""
    offset = alphabet.offset
    _glyph = _reference_glyph
    _EXPECTED = {"f": "a formula", "t": "a term", "v": "a variable"}

    def _unexpected(codes, i, alphabet, message):
        return _reference_unexpected(codes, i, alphabet, heads, message)

    enclosing: list[tuple] = []  # frames outside the innermost one
    ctor = slots = children = None  # the innermost open frame
    want = {"formula": "f", "term": "t"}.get(expect, "a")  # None once the root is complete
    for i, a in enumerate(codes):
        if want is None:
            raise _unexpected(codes, i, alphabet, "trailing symbols")
        if a >= offset:
            if want == "v":
                children.append(a - offset)
                want = slots[1]
                continue
            if want == "f":
                raise _unexpected(codes, i, alphabet, f"unexpected symbol {_glyph(a, alphabet)!r}, expected a formula")
            node: object = Var(a - offset)
        else:
            head = heads.get(a)
            if head is None:
                raise InvalidSymbolError(a)
            if want != head[2] and want != "a":
                raise _unexpected(
                    codes, i, alphabet, f"unexpected symbol {_glyph(a, alphabet)!r}, expected {_EXPECTED[want]}"
                )
            if head[1]:
                if children is not None:
                    enclosing.append((ctor, slots, children))
                ctor, slots, _ = head
                children = []
                want = slots[0]
                continue
            node = head[0]()
        # deliver the completed node upward, folding filled frames
        while True:
            if children is None:
                root, want = node, None
                break
            children.append(node)
            if len(children) < len(slots):
                want = slots[len(children)]
                break
            node = ctor(*children)
            ctor, slots, children = enclosing.pop() if enclosing else (None, None, None)
    if want is not None:
        raise _unexpected(codes, len(codes), alphabet, "truncated input")
    return root
