"""Shared test utilities: independent oracles and random AST generators.

The oracles here deliberately avoid the library's own code paths: Fibonacci
numbers by plain iteration, pairing inverses by integer square root, greedy
decomposition over an iterated table.
"""

from __future__ import annotations

import random
from math import isqrt

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
