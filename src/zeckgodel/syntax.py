"""Concrete first-order arithmetic syntax and its sequence codes.

Strings are Polish (prefix) notation over a finite alphabet, so
well-formedness is one bounded left-to-right pass and there are no
parentheses in the coded alphabet.  Symbol numbers below the offset are base
symbols; v_i gets code i + offset.

One table, ``_GRAMMAR``, gives each symbol's text name, constructor and
operand slots.  An alphabet turns it into ``_sig``, each code's signature,
which the parser, the span pass and the proof checker's matchers read, and
``_emit``, its inverse for the walker.  Encoding and decoding run on symbol
codes: one walker (``_to_codes``) and one parser (``_from_codes``), both
iterative, since numerals for multi-thousand-bit values nest far deeper than
any recursion limit.  The parser makes two passes: left to right it checks
each symbol against the slot it fills, right to left it builds the tree.  It
reads codes, glyph lists (``parse``) and text (``parse_text``), the last two
through a name-to-code table; a variable name ``v<digits>`` has one reader
and one writer, and a variable code is read as ``code - offset``, never as text.

The parser runs only where an AST is returned.  Everything else, the code
predicates, substitution's entry checks and the proof checker, reads a code
through ``_read``: one decode, then ``_spans``, one right-to-left pass over
a term's or a formula's codes that checks operand categories and gives each
position the end of its subtree and an integer id, equal for two subtrees
exactly when their codes are (hash-consing on code spans).  AST nodes compare,
hash and print through their symbol codes, so none of the three recurses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from .errors import (
    AlphabetError,
    InvalidSymbolError,
    NotProofCodeError,
    ParseError,
    ZeckGodelError,
)
from .seqcode import SeqCode, _index_text, seq_decode, seq_encode, to_number


# --- ASTs ---------------------------------------------------------------

def _node_eq(x, y):
    """Same node type and same symbol codes: iterative, so any depth compares."""
    if x is y:
        return True
    if type(x) is not type(y):
        return NotImplemented
    return _to_codes(x, DEFAULT_ALPHABET) == _to_codes(y, DEFAULT_ALPHABET)


def _node_hash(x) -> int:
    return hash(tuple(_to_codes(x, DEFAULT_ALPHABET)))


def _node_repr(x) -> str:
    """The parse_text call that rebuilds the node, e.g. ``parse_text('(= 0 0)')``."""
    try:
        return f"parse_text({format_text(x)!r})"
    except (TypeError, ZeckGodelError):  # a bad field, or an index past the digit limit
        return object.__repr__(x)


# The node classes are declared eq=False and repr=False and inherit these: a
# generated method recurses once per level, and a numeral nests one level per bit.
class Term:
    __slots__ = ()
    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


class Formula:
    __slots__ = ()
    __eq__ = _node_eq
    __hash__ = _node_hash
    __repr__ = _node_repr


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Succ(Term):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Times(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class DiagFn(Term):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(Term):
    index: int


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ProvP(Formula):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Neg(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Forall(Formula):
    var: int
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Exists(Formula):
    var: int
    body: Formula


# --- Alphabet -----------------------------------------------------------

# A slot or category as the parity of a span-pass id; _V is a bound variable.
_T, _F, _V = 0, 1, 2

# head glyph -> (text name, constructor, operand slots), in the default alphabet's code order
_GRAMMAR: dict[str, tuple[str, type, tuple[int, ...]]] = {
    "¬": ("not", Neg, (_F,)),
    "→": ("imp", Imp, (_F, _F)),
    "∧": ("and", And, (_F, _F)),
    "∨": ("or", Or, (_F, _F)),
    "∀": ("forall", Forall, (_V, _F)),
    "∃": ("exists", Exists, (_V, _F)),
    "=": ("=", Eq, (_T, _T)),
    "0": ("0", Zero, ()),
    "S": ("S", Succ, (_T,)),
    "+": ("+", Plus, (_T, _T)),
    "·": ("*", Times, (_T, _T)),
    "diagfn": ("diagfn", DiagFn, (_T,)),
    "Prov": ("Prov", ProvP, (_T,)),
}


@dataclass(frozen=True)
class Alphabet:
    """Bijection between symbols and positive codes, with variable offset."""

    base: Mapping[str, int]
    offset: int

    def __post_init__(self):
        if set(self.base) != set(_GRAMMAR):
            raise AlphabetError(
                f"alphabet must assign exactly the symbols {sorted(_GRAMMAR)}"
            )
        codes = list(self.base.values())
        if len(set(codes)) != len(codes):
            raise AlphabetError("base symbol codes must be distinct")
        if min(codes) < 1 or max(codes) >= self.offset:
            raise AlphabetError("base codes must satisfy 1 <= code < offset")
        if self.offset <= len(self.base):
            raise AlphabetError("offset must exceed the number of base symbols")
        object.__setattr__(self, "_by_code", {c: s for s, c in self.base.items()})
        # code -> (operand count, first slot, second slot, category, constructor):
        # the one table that the parser, the span pass and logic's matchers read
        sig = {}
        emit = {}  # constructor -> (code, operand count, first slot): the walker's inverse
        for glyph, code in self.base.items():
            _, ctor, slots = _GRAMMAR[glyph]
            first, second = (slots + (None, None))[:2]
            sig[code] = (len(slots), first, second, _F if issubclass(ctor, Formula) else _T, ctor)
            emit[ctor] = (code, len(slots), first)
        object.__setattr__(self, "_sig", sig)
        object.__setattr__(self, "_emit", emit)
        # equal alphabets have equal items and offset, hence equal hashes
        object.__setattr__(self, "_hash", hash((frozenset(self.base.items()), self.offset)))

    def __hash__(self) -> int:
        return self._hash

    def code_of(self, symbol: str) -> int:
        index = _var_index(symbol)
        if index is not None:
            return index + self.offset
        try:
            return self.base[symbol]
        except KeyError:
            raise AlphabetError(f"unknown symbol {symbol!r}") from None

    def symbol_of(self, code: int) -> str:
        if code >= self.offset:
            return _var_name(code - self.offset)
        sym = self._by_code.get(code)
        if sym is None:
            raise InvalidSymbolError(code)
        return sym

    def var_code(self, index: int) -> int:
        return _var_code(index, self.offset)


def default_alphabet() -> Alphabet:
    return DEFAULT_ALPHABET


# the glyphs on codes 1 to 13 in _GRAMMAR's order, v_i on i + 16
DEFAULT_ALPHABET = Alphabet(base={glyph: code for code, glyph in enumerate(_GRAMMAR, start=1)}, offset=16)


def _read_config(source, error: type[ZeckGodelError], what: str):
    """source itself, or the JSON in the file at path source; error if unreadable."""
    if not isinstance(source, (str, os.PathLike)):
        return source
    try:
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} config {os.fspath(source)!r}: {exc}") from exc


def load_alphabet(source) -> Alphabet:
    """Read an alphabet from a JSON file path or an already-parsed mapping."""
    source = _read_config(source, AlphabetError, "alphabet")
    try:
        return Alphabet(base=dict(source["symbols"]), offset=int(source["offset"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise AlphabetError(f"malformed alphabet config: {exc}") from exc


# --- the code walker and the code parser ----------------------------------

def _var_code(index, offset: int) -> int:
    if type(index) is not int or index < 0:
        raise AlphabetError("variable indices must be natural numbers")
    return index + offset


def _to_codes(node: "Term | Formula", alphabet: Alphabet) -> list[int]:
    """Prefix-order symbol codes of an AST (operator before operands)."""
    emit, offset = alphabet._emit, alphabet.offset
    out: list[int] = []
    stack: list = [node]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is Var:
            out.append(_var_code(x.index, offset))
            continue
        head = emit.get(t)
        if head is None:
            raise TypeError(f"not an AST node: {x!r}")
        code, k, first = head
        out.append(code)
        if first == _V:
            out.append(_var_code(x.var, offset))
            stack.append(x.body)
        elif k == 2:
            stack.append(x.right)
            stack.append(x.left)
        elif k:
            stack.append(x.arg)
    return out


def _var_index(name: str, position: int = 0) -> int | None:
    """The index that a variable name ``v<digits>`` spells; None for any other name."""
    if name[:1] != "v" or not name[1:].isdecimal():
        return None
    try:
        return int(name[1:])
    except ValueError:  # more digits than the int/str limit allows
        raise ParseError("variable index too long", position=position) from None


def _var_name(index: int) -> str:
    """The name ``v<digits>`` of variable ``index``, the inverse of _var_index."""
    try:
        return f"v{index}"
    except ValueError:  # more digits than the int/str limit allows
        raise ZeckGodelError(f"variable index of {index.bit_length()} bits is too long to write") from None


def _glyph(code: int, alphabet: Alphabet) -> str:
    """A symbol's name for error messages; never fails on a huge variable."""
    if code < alphabet.offset:
        return alphabet._by_code[code]
    return f"v{_index_text(code - alphabet.offset)}"


def _unexpected(codes: Sequence[int], i: int, alphabet: Alphabet, message: str) -> ZeckGodelError:
    """The error for a parse failing at ``i``: an invalid symbol number at or
    after ``i`` wins, as if every code had been looked up before parsing."""
    for a in codes[i:]:
        if a < alphabet.offset and a not in alphabet._sig:
            return InvalidSymbolError(a)
    return ParseError(message, position=i)


_WANT = {"formula": _F, "term": _T}
_EXPECTED = ("a term", "a formula", "a variable")


def _from_codes(
    codes: Sequence[int], alphabet: Alphabet, expect: str | None = None, names: Sequence[str] | None = None
) -> "Term | Formula":
    """Inverse of _to_codes.  ``expect`` may pin the category to formula/term.

    A left-to-right pass checks each symbol against the slot it fills, then a
    right-to-left pass builds the tree on a stack of operands.  A variable is
    ``code - offset``; no index passes through text.  Messages name the
    symbol at i by ``names[i]`` if given, else by its glyph.
    """
    sig, offset = alphabet._sig, alphabet.offset
    want = [_WANT.get(expect)]  # slots to fill, the next on top; None takes either category
    for i, a in enumerate(codes):
        if not want:
            raise _unexpected(codes, i, alphabet, "trailing symbols")
        slot = want.pop()
        if a >= offset:
            if slot != _F:
                continue
        elif a not in sig:
            raise InvalidSymbolError(a)
        elif slot is None or slot == sig[a][3]:
            k, first, second, _, _ = sig[a]
            if k == 2:
                want.append(second)
            if k:
                want.append(first)
            continue
        name = _glyph(a, alphabet) if names is None else names[i]
        raise _unexpected(codes, i, alphabet, f"unexpected symbol {name!r}, expected {_EXPECTED[slot]}")
    if want:
        raise _unexpected(codes, len(codes), alphabet, "truncated input")
    stack: list = []
    for a in reversed(codes):
        if a >= offset:
            stack.append(Var(a - offset))
            continue
        k, first, _, _, ctor = sig[a]
        if first == _V:
            stack.append(ctor(stack.pop().index, stack.pop()))
        elif k == 2:
            stack.append(ctor(stack.pop(), stack.pop()))
        else:
            stack.append(ctor(stack.pop()) if k else ctor())
    return stack[0]


# --- the span pass --------------------------------------------------------

def _spans(codes: Sequence[int], alphabet: Alphabet, table: dict, root: int = 1) -> tuple[list[int], list[int]] | None:
    """(ids, ends) of a formula's (``root`` 1) or a term's (0) prefix codes, else None.

    One right-to-left pass with a stack of positions checks each operand's
    category and records, for each position i, ``ends[i]``, the end of the
    subtree that starts there, and ``ids[i]``, an integer that is equal for
    two subtrees exactly when their codes are.  A leaf of code a has id
    ``-2a - 2``; a head with operands has id ``2k + c``, k being its
    (head, child ids) key's index in ``table`` and c 1 for a formula, 0 for a
    term.  Sharing ``table`` across calls makes ids comparable between their
    results (hash-consing on code spans).
    """
    sig, offset = alphabet._sig, alphabet.offset
    n = len(codes)
    ids = [0] * n
    ends = [0] * n
    stack: list[int] = []  # positions of the subtrees right of i, first operand on top
    for i in range(n - 1, -1, -1):
        a = codes[i]
        if a < offset:
            head = sig.get(a)
            if head is None:
                return None
            k, first, second, category, _ = head
        else:
            k = 0
        if not k:
            ids[i] = -2 * a - 2
            ends[i] = i + 1
            stack.append(i)
            continue
        if len(stack) < k:
            return None
        p = stack.pop()
        x = ids[p]
        if codes[p] < offset if first == 2 else x & 1 != first:
            return None
        if k == 2:
            p = stack.pop()
            y = ids[p]
            if y & 1 != second:
                return None
            key: tuple = (a, x, y)
        else:
            key = (a, x)
        ids[i] = 2 * table.setdefault(key, len(table)) + category
        ends[i] = ends[p]
        stack.append(i)
    if len(stack) != 1 or ids[0] & 1 != root:
        return None
    return ids, ends


# --- glyph strings ------------------------------------------------------

def flatten(node: "Term | Formula") -> list[str]:
    """Prefix-order symbol string of an AST (operator before operands)."""
    by_code, offset = DEFAULT_ALPHABET._by_code, DEFAULT_ALPHABET.offset
    return [by_code[c] if c < offset else _var_name(c - offset) for c in _to_codes(node, DEFAULT_ALPHABET)]


def parse(symbols: Sequence[str], expect: str | None = None) -> "Term | Formula":
    """Inverse of flatten.  ``expect`` may pin the category to formula/term."""
    if not isinstance(symbols, Sequence):
        raise ParseError("symbols must be a sequence of strings", position=0)
    for i, name in enumerate(symbols):
        if not isinstance(name, str):
            raise ParseError("a symbol must be a string", position=i)
    return _parse_names(symbols, DEFAULT_ALPHABET.base, expect)


def _parse_names(names: Sequence[str], table: Mapping[str, int], expect: str | None) -> "Term | Formula":
    """The AST that a list of names spells, built by _from_codes: ``table`` maps
    base names (glyphs or text names) to codes, and ``v<digits>`` is a variable."""
    sig, offset = DEFAULT_ALPHABET._sig, DEFAULT_ALPHABET.offset
    codes: list[int] = []
    for name in names:  # up to the first unknown name
        code = table.get(name)
        if code is None:
            index = _var_index(name, len(codes))
            if index is None:
                break
            code = index + offset
        codes.append(code)
    u = len(codes)
    try:
        node = _from_codes(codes, DEFAULT_ALPHABET, expect, names)
    except ParseError as exc:
        if u == len(names) or exc.position < u:
            raise
        # the parser reached the unknown name and wanted a symbol there
        wanted = ", expected a variable" if u and codes[u - 1] in sig and sig[codes[u - 1]][1] == _V else ""
        raise ParseError(f"unexpected symbol {names[u]!r}{wanted}", position=u) from None
    if u < len(names):
        raise ParseError("trailing symbols", position=u)
    return node


# --- syntax codes -------------------------------------------------------

def encode_syntax(x: "Term | Formula", alphabet: Alphabet | None = None) -> SeqCode:
    return seq_encode(_to_codes(x, alphabet or DEFAULT_ALPHABET))


def decode_syntax(c: "SeqCode | int", alphabet: Alphabet | None = None) -> "Term | Formula":
    return _from_codes(seq_decode(c), alphabet or DEFAULT_ALPHABET)


def _read(c: "SeqCode | int", alphabet: Alphabet, table: dict, root: int = 1) -> tuple | None:
    """(codes, ids, ends) of the formula (``root`` 1) or term (0) that c
    codes, decoded and span-passed once; None if c codes neither."""
    try:
        codes = seq_decode(c)
    except ZeckGodelError:
        return None
    spans = _spans(codes, alphabet, table, root)
    return None if spans is None else (codes, *spans)


def is_wff_code(c: "SeqCode | int", alphabet: Alphabet | None = None) -> bool:
    """True iff c codes a formula; decided by the span pass, with no AST built."""
    return _read(c, alphabet or DEFAULT_ALPHABET, {}) is not None


def is_term_code(c: "SeqCode | int", alphabet: Alphabet | None = None) -> bool:
    """True iff c codes a term; decided by the span pass, with no AST built."""
    return _read(c, alphabet or DEFAULT_ALPHABET, {}, 0) is not None


def numeral(n: int) -> Term:
    """Closed term of value n with O(bit-length) symbols, in doubling form."""
    if not isinstance(n, int) or n < 0:
        raise ZeckGodelError("numerals denote natural numbers")
    return _from_codes(_numeral_codes(n, DEFAULT_ALPHABET), DEFAULT_ALPHABET)


def _numeral_codes(n: int, alphabet: Alphabet) -> list[int]:
    """Prefix symbol codes of numeral(n), read straight off n's bits.

    Doubling form: numeral(2j) = SS0 * numeral(j), numeral(2j+1) adds one S.
    The outermost node holds the lowest bit, so each bit from the lowest up
    to the second-highest gives ``S`` if it is 1, then ``· S S 0``, and the
    leading 1 ends it as ``S 0``.
    """
    zero, succ, times = alphabet.base["0"], alphabet.base["S"], alphabet.base["·"]
    if n == 0:
        return [zero]
    double = (times, succ, succ, zero)
    out: list[int] = []
    for bit in reversed(bin(n)[3:]):
        if bit == "1":
            out.append(succ)
        out += double
    out += (succ, zero)
    return out


# --- proof-list codes ---------------------------------------------------

def encode_proof(formulas: Sequence[Formula], alphabet: Alphabet | None = None) -> SeqCode:
    """Nested code: the sequence of the formulas' own code values."""
    return seq_encode([to_number(encode_syntax(f, alphabet)) for f in formulas])


def decode_proof(c: "SeqCode | int", alphabet: Alphabet | None = None) -> list[Formula]:
    alphabet = alphabet or DEFAULT_ALPHABET
    out = []
    for pos, value in enumerate(seq_decode(c), start=1):
        try:
            node = _from_codes(seq_decode(value), alphabet)
        except ZeckGodelError as exc:
            raise NotProofCodeError(f"element {pos} is not a wff code: {exc}") from exc
        if not isinstance(node, Formula):
            raise NotProofCodeError(f"element {pos} is not a wff code")
        out.append(node)
    return out


# --- human-readable prefix text form ------------------------------------

_CODE_OF_TEXT = {_GRAMMAR[g][0]: c for g, c in DEFAULT_ALPHABET.base.items()}


def _text_tokens(node: "Term | Formula") -> list[str]:
    """format_text's tokens: a head with operands opens a parenthesis, closed after its last one."""
    by_code, offset = DEFAULT_ALPHABET._by_code, DEFAULT_ALPHABET.offset
    tokens: list[str] = []
    owed: list[int] = []  # operands still to come in each open parenthesis
    for c in _to_codes(node, DEFAULT_ALPHABET):
        if c >= offset:
            tokens.append(_var_name(c - offset))
        else:
            name, _, slots = _GRAMMAR[by_code[c]]
            if slots:
                tokens += ["(", name]
                owed.append(len(slots))
                continue
            tokens.append(name)
        while owed:
            owed[-1] -= 1
            if owed[-1]:
                break
            owed.pop()
            tokens.append(")")
    return tokens


def format_text(node: "Term | Formula") -> str:
    """Render as parenthesized prefix text, e.g. ``(forall v0 (= v0 v0))``."""
    return " ".join(_text_tokens(node)).replace("( ", "(").replace(" )", ")")


def parse_text(text: str, expect: str | None = None) -> "Term | Formula":
    """Read the parenthesized prefix form back into an AST.

    Fixed arities let the names alone fix the tree, so they go through parse's
    reader; the parentheses must then stand where format_text writes them.
    """
    if not isinstance(text, str):
        raise ParseError("text must be a string", position=0)
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    at = [i for i, tok in enumerate(tokens) if tok not in ("(", ")")]
    try:
        node = _parse_names([tokens[i] for i in at], _CODE_OF_TEXT, expect)
    except ParseError as exc:
        p = exc.position
        message = str(exc).removesuffix(f" at position {p}")
        raise ParseError(message, position=at[p] if p < len(at) else len(tokens)) from None
    written = _text_tokens(node)
    for i, (tok, want) in enumerate(zip(tokens, written)):
        if tok != want and (tok in ("(", ")") or want in ("(", ")")):
            raise ParseError(f"unexpected {tok!r}, expected {want!r}", position=i)
    if len(tokens) != len(written):
        i = min(len(tokens), len(written))
        raise ParseError("truncated input" if i == len(tokens) else "trailing symbols", position=i)
    return node
