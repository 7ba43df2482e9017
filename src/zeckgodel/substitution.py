"""Code-level substitution, diagonalization, and the fixed-point construction.

``sub_z`` is the raw symbol-level splice: every occurrence of the target
variable's code is replaced, bound ones included.  ``sub_free`` respects
binders.  Both work on symbol-code lists and re-encode with renumbered
positions, so outputs are always valid sequence codes and no step recurses
over the (possibly enormous) term structure.

Validation happens once, at the public entry: each code a caller passes in
is decoded and parsed a single time, and the internal steps splice the
symbol codes that check returned.  ``diag`` and ``fixed_point`` walk the
numeral's AST straight to symbol codes and do not re-check the
diagonal code m, a wff by construction, so no code the library has just
built is decoded again.
"""

from __future__ import annotations

from .errors import NotTermCodeError, NotWffCodeError, NumeralTooLargeError, ZeckGodelError
from .seqcode import SeqCode, as_code, bits_estimate, seq_decode, seq_encode, to_number
from .syntax import (
    Alphabet,
    DEFAULT_ALPHABET,
    DiagFn,
    Formula,
    Term,
    Var,
    _from_codes,
    _to_codes,
    numeral,
)

# Diagonalization refuses to build numerals beyond this many bits.
DEFAULT_NUMERAL_BIT_LIMIT = 1 << 21


def _validated(code: SeqCode, category: type, alphabet: Alphabet) -> list[int]:
    """Symbol codes of ``code``, decoded once; raises unless it codes a ``category``."""
    try:
        codes = seq_decode(code)
        node = _from_codes(codes, alphabet)
    except ZeckGodelError:
        node = None
    if not isinstance(node, category):
        if category is Formula:
            raise NotWffCodeError("not a wff code")
        raise NotTermCodeError("not a term code")
    return codes


def _checked(formula_code, term_code, alphabet):
    fc = as_code(formula_code)
    tc = as_code(term_code)
    return _validated(fc, Formula, alphabet), _validated(tc, Term, alphabet)


def _splice(codes: list[int], target: int, replacement: list[int]) -> SeqCode:
    """Code of ``codes`` with every ``target`` replaced by ``replacement``."""
    out: list[int] = []
    for a in codes:
        if a == target:
            out.extend(replacement)
        else:
            out.append(a)
    return seq_encode(out)


def _free_spliced(
    values: list[int], target: int, replacement: list[int], alphabet: Alphabet
) -> list[int]:
    """``values`` with only the free occurrences of ``target`` replaced."""
    heads, offset = alphabet._heads, alphabet.offset
    out: list[int] = []
    # frames: [pending subtree operands, whether this frame shadows the target]
    frames: list[list] = []
    shadow = 0
    i, n = 0, len(values)
    while i < n:
        a = values[i]
        slots = heads[a][1] if a < offset else ()
        if slots and slots[0] == "v":  # binder: variable token is consumed inline
            bound = values[i + 1]
            out.append(a)
            out.append(bound)
            shadows = bound == target
            shadow += shadows
            frames.append([1, shadows])
            i += 2
            continue
        if slots:
            out.append(a)
            frames.append([len(slots), False])
            i += 1
            continue
        # leaf: Zero or a variable
        if a == target and shadow == 0:
            out.extend(replacement)
        else:
            out.append(a)
        i += 1
        if frames:
            frames[-1][0] -= 1
        while frames and frames[-1][0] == 0:
            shadow -= frames[-1][1]
            frames.pop()
            if frames:
                frames[-1][0] -= 1
    return out


def _numeral_codes(c: SeqCode, max_bits: int, alphabet: Alphabet) -> list[int]:
    """Symbol codes of the numeral for c's value; refuses past ``max_bits``."""
    if bits_estimate(c) > max_bits:
        raise NumeralTooLargeError(
            f"numeral too large: code is ~{bits_estimate(c)} bits, limit {max_bits}"
        )
    return _to_codes(numeral(to_number(c, max_index=c.max_index)), alphabet)


def sub_z(
    formula_code: "SeqCode | int",
    term_code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
) -> SeqCode:
    """Replace every occurrence of v_var (bound ones too) and re-encode."""
    alphabet = alphabet or DEFAULT_ALPHABET
    codes, replacement = _checked(formula_code, term_code, alphabet)
    return _splice(codes, alphabet.var_code(var), replacement)


def sub_free(
    formula_code: "SeqCode | int",
    term_code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
) -> SeqCode:
    """Replace only free occurrences of v_var; agrees with sub_z off binders."""
    alphabet = alphabet or DEFAULT_ALPHABET
    codes, replacement = _checked(formula_code, term_code, alphabet)
    return seq_encode(_free_spliced(codes, alphabet.var_code(var), replacement, alphabet))


def diag(
    code: "SeqCode | int",
    var: int = 0,
    alphabet: Alphabet | None = None,
    max_bits: int = DEFAULT_NUMERAL_BIT_LIMIT,
) -> SeqCode:
    """Substitute the formula's own value, as a numeral, for its free variable."""
    alphabet = alphabet or DEFAULT_ALPHABET
    c = as_code(code)
    codes = _validated(c, Formula, alphabet)
    return _splice(codes, alphabet.var_code(var), _numeral_codes(c, max_bits, alphabet))


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
    theta = _free_spliced(_validated(pc, Formula, alphabet), target, inner, alphabet)
    m = seq_encode(theta)
    psi = _splice(theta, target, _numeral_codes(m, max_bits, alphabet))
    return psi, m
