"""Independent answers for every benchmark op.

Nothing here calls zeckgodel: symbol codes, numerals, sequence supports and
Fibonacci sums are recomputed from their definitions (README of the library:
F_1 = 1, F_2 = 2; a sequence [a_1..a_m] codes to the support
{2*pair(a_i, i) + 1}; numeral(2j) = SS0 * numeral(j), numeral(2j+1) adds an S).
"""

from __future__ import annotations

# Default alphabet, written out again rather than read from the library.
CODE = {
    "not": 1, "imp": 2, "and": 3, "or": 4, "forall": 5, "exists": 6, "=": 7,
    "0": 8, "S": 9, "+": 10, "*": 11, "diagfn": 12, "Prov": 13,
}
VAR_OFFSET = 16


def var(i: int) -> int:
    return VAR_OFFSET + i


def pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + x


def seq_support(values: list[int]) -> tuple[int, ...]:
    return tuple(sorted((2 * pair(a, i) + 1 for i, a in enumerate(values, start=1)), reverse=True))


def fib_sum(support) -> int:
    """Sum of F_e over a support, by one plain upward iteration."""
    wanted = set(support)
    total = 0
    a, b = 1, 2  # F_e, F_{e+1}
    for e in range(1, max(wanted, default=0) + 1):
        if e in wanted:
            total += a
        a, b = b, a + b
    return total


def fib(e: int) -> int:
    return fib_sum((e,))


def seq_number(values: list[int]) -> int:
    return fib_sum(seq_support(values))


def numeral_codes(n: int) -> list[int]:
    """Prefix symbol codes of the doubling-form numeral of n."""
    if n == 0:
        return [CODE["0"]]
    s, z, times = CODE["S"], CODE["0"], CODE["*"]
    out: list[int] = []
    for bit in reversed(bin(n)[3:]):
        if bit == "1":
            out.append(s)
        out += [times, s, s, z]
    return out + [s, z]


def eq_codes(left: list[int], right: list[int]) -> list[int]:
    return [CODE["="], *left, *right]


def imp_codes(left: list[int], right: list[int]) -> list[int]:
    return [CODE["imp"], *left, *right]


def splice(codes: list[int], target: int, replacement: list[int]) -> list[int]:
    out: list[int] = []
    for a in codes:
        if a == target:
            out += replacement
        else:
            out.append(a)
    return out


def fixed_point_supports(phi_codes: list[int]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(psi support, m support, m value) for a binder-free phi(v0).

    m codes phi(diagfn(v0)); psi is m with the numeral of m's value for v0.
    """
    v0 = var(0)
    m_codes = splice(phi_codes, v0, [CODE["diagfn"], v0])
    m_value = seq_number(m_codes)
    psi_codes = splice(m_codes, v0, numeral_codes(m_value))
    return seq_support(psi_codes), seq_support(m_codes), m_value


def proof_support(formulas: list[list[int]]) -> tuple[int, ...]:
    """Support of the proof code of a list of formulas given as symbol codes."""
    return seq_support([seq_number(f) for f in formulas])


def primes(count: int) -> list[int]:
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate):
            out.append(candidate)
        candidate += 1
    return out


def prime_code(values: list[int]) -> int:
    out = 1
    for p, a in zip(primes(len(values)), values):
        out *= p ** a
    return out
