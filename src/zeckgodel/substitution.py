"""Code-level substitution, diagonalization, and the fixed-point construction.

``sub_z`` is the raw symbol-level splice: every occurrence of the target
variable's code is replaced, bound ones included.  ``sub_free`` respects
binders.  Both work on symbol-code lists and re-encode with renumbered
positions, so outputs are always valid sequence codes and no step recurses
over the (possibly enormous) term structure.

A splice is encoded by ``seqcode._splice_code``, which shifts supports
rather than pairing every symbol again: each copy of the replacement is one
big-integer expression, and only the other symbols are paired.  ``diag``,
``fixed_point`` and ``sub_z`` use it, so the numeral that fills ψ is encoded
once, however many copies ψ holds.

Validation happens once, at the public entry: each code a caller passes in
is decoded and checked a single time by ``syntax._read`` (the span pass),
and the internal steps splice the symbol codes that check returned, using
its subtree ends to copy whole a quantifier that binds the target.
``diag`` and ``fixed_point`` read the numeral's symbol codes off the bits of
the diagonal value and do not re-check the diagonal code m, a wff by
construction, so no code the library has just built is decoded again.
"""

from __future__ import annotations

from .errors import NotTermCodeError, NotWffCodeError, NumeralTooLargeError
from .seqcode import SeqCode, _splice_code, as_code, bits_estimate, seq_encode, to_number
from .syntax import (
    Alphabet,
    DEFAULT_ALPHABET,
    DiagFn,
    Var,
    _numeral_codes,
    _read,
    _to_codes,
)

# Diagonalization refuses to build numerals beyond this many bits.
DEFAULT_NUMERAL_BIT_LIMIT = 1 << 21


def _validated(code: SeqCode, root: int, alphabet: Alphabet) -> tuple[list[int], list[int]]:
    """(symbol codes, subtree ends) of ``code``, decoded and span-passed once;
    raises unless it codes a formula (``root`` 1) or a term (0)."""
    read = _read(code, alphabet, {}, root)
    if read is None:
        raise NotWffCodeError("not a wff code") if root else NotTermCodeError("not a term code")
    return read[0], read[2]


def _checked(formula_code, term_code, alphabet):
    fc = as_code(formula_code)
    tc = as_code(term_code)
    return _validated(fc, 1, alphabet), _validated(tc, 0, alphabet)[0]


def _free_spliced(
    codes: list[int], ends: list[int], target: int, replacement: list[int], alphabet: Alphabet
) -> list[int]:
    """``codes`` with only the free occurrences of ``target`` replaced; a
    quantifier that binds ``target`` is copied whole, up to ``ends[i]``."""
    binders = (alphabet.base["∀"], alphabet.base["∃"])
    out: list[int] = []
    i, n = 0, len(codes)
    while i < n:
        a = codes[i]
        if a == target:
            out += replacement
            i += 1
        elif a in binders and codes[i + 1] == target:
            out += codes[i : ends[i]]
            i = ends[i]
        else:
            out.append(a)
            i += 1
    return out


def _numeral_for(c: SeqCode, max_bits: int, alphabet: Alphabet) -> list[int]:
    """Symbol codes of the numeral for c's value; refuses past ``max_bits``."""
    if bits_estimate(c) > max_bits:
        raise NumeralTooLargeError(
            f"numeral too large: code is ~{bits_estimate(c)} bits, limit {max_bits}"
        )
    return _numeral_codes(to_number(c, max_index=c.max_index), alphabet)


def sub_z(
    formula_code: "SeqCode | int",
    term_code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
) -> SeqCode:
    """Replace every occurrence of v_var (bound ones too) and re-encode."""
    alphabet = alphabet or DEFAULT_ALPHABET
    (codes, _), replacement = _checked(formula_code, term_code, alphabet)
    return _splice_code(codes, alphabet.var_code(var), replacement)


def sub_free(
    formula_code: "SeqCode | int",
    term_code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
) -> SeqCode:
    """Replace only free occurrences of v_var; agrees with sub_z off binders."""
    alphabet = alphabet or DEFAULT_ALPHABET
    (codes, ends), replacement = _checked(formula_code, term_code, alphabet)
    return seq_encode(_free_spliced(codes, ends, alphabet.var_code(var), replacement, alphabet))


def diag(
    code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
    max_bits: int = DEFAULT_NUMERAL_BIT_LIMIT,
) -> SeqCode:
    """Substitute the formula's own value, as a numeral, for its free variable."""
    alphabet = alphabet or DEFAULT_ALPHABET
    c = as_code(code)
    codes, _ = _validated(c, 1, alphabet)
    return _splice_code(codes, alphabet.var_code(var), _numeral_for(c, max_bits, alphabet))


def fixed_point(
    phi_code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
    max_bits: int = DEFAULT_NUMERAL_BIT_LIMIT,
) -> tuple[SeqCode, SeqCode]:
    """Sentence psi with code(psi) == diag(m), m the code of phi(diagfn(x)).

    Returns (psi_code, m).  The defining identity is checkable exactly on
    support form; psi itself is never materialized as an integer.
    """
    alphabet = alphabet or DEFAULT_ALPHABET
    pc = as_code(phi_code)
    inner = _to_codes(DiagFn(Var(var)), alphabet)
    target = alphabet.var_code(var)
    theta = _free_spliced(*_validated(pc, 1, alphabet), target, inner, alphabet)
    m = seq_encode(theta)
    psi = _splice_code(theta, target, _numeral_for(m, max_bits, alphabet))
    return psi, m
