"""Concrete first-order arithmetic syntax and its sequence codes.

Strings are Polish (prefix) notation over a finite alphabet, so
well-formedness is one bounded left-to-right pass and there are no
parentheses in the coded alphabet.  Symbol numbers below the offset are base
symbols; v_i gets code i + offset.

Encoding and decoding run on symbol codes: one walker (``_to_codes``) and one
parser (``_from_codes``), both iterative, since numerals for multi-thousand-bit
values nest far deeper than any recursion limit.  That parser reads codes,
glyph lists (``parse``) and text (``parse_text``), the last two through a
name-to-code table; a variable code is read as ``code - offset``, never as text.

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
import re
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
    except (TypeError, ValueError, ZeckGodelError):  # a bad field, or an index past the digit limit
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

# head glyph -> (text name, constructor, operand slots); t = term,
# f = formula, v = bound variable
_GRAMMAR: dict[str, tuple[str, type, tuple[str, ...]]] = {
    "¬": ("not", Neg, ("f",)),
    "→": ("imp", Imp, ("f", "f")),
    "∧": ("and", And, ("f", "f")),
    "∨": ("or", Or, ("f", "f")),
    "∀": ("forall", Forall, ("v", "f")),
    "∃": ("exists", Exists, ("v", "f")),
    "=": ("=", Eq, ("t", "t")),
    "0": ("0", Zero, ()),
    "S": ("S", Succ, ("t",)),
    "+": ("+", Plus, ("t", "t")),
    "·": ("*", Times, ("t", "t")),
    "diagfn": ("diagfn", DiagFn, ("t",)),
    "Prov": ("Prov", ProvP, ("t",)),
}
_BASE_GLYPHS = tuple(_GRAMMAR)
_VAR_RE = re.compile(r"^v(\d+)$")
_BINDER = 3  # _to_codes shape of a quantifier; the others are their operand counts
# a slot or category as the parity of a span-pass id; 2 is a bound variable
_SLOT_PARITY = {"t": 0, "f": 1, "v": 2}


@dataclass(frozen=True)
class Alphabet:
    """Bijection between symbols and positive codes, with variable offset."""

    base: Mapping[str, int]
    offset: int

    def __post_init__(self):
        if set(self.base) != set(_BASE_GLYPHS):
            raise AlphabetError(
                f"alphabet must assign exactly the symbols {sorted(_BASE_GLYPHS)}"
            )
        codes = list(self.base.values())
        if len(set(codes)) != len(codes):
            raise AlphabetError("base symbol codes must be distinct")
        if min(codes) < 1 or max(codes) >= self.offset:
            raise AlphabetError("base codes must satisfy 1 <= code < offset")
        if self.offset <= len(self.base):
            raise AlphabetError("offset must exceed the number of base symbols")
        object.__setattr__(self, "_by_code", {c: s for s, c in self.base.items()})
        # code -> (constructor, slots, category): the parser's head table
        heads = {}
        # constructor -> (code, shape): the walker's table
        emit = {}
        # code -> (operand count, first slot, second slot, category): the span
        # pass's table, slots and category as id parities (_SLOT_PARITY)
        sig = {}
        for glyph, code in self.base.items():
            _, ctor, slots = _GRAMMAR[glyph]
            category = "t" if issubclass(ctor, Term) else "f"
            heads[code] = (ctor, slots, category)
            emit[ctor] = (code, _BINDER if slots[:1] == ("v",) else len(slots))
            first, second = ([_SLOT_PARITY[x] for x in slots] + [None, None])[:2]
            sig[code] = (len(slots), first, second, _SLOT_PARITY[category])
        object.__setattr__(self, "_heads", heads)
        object.__setattr__(self, "_emit", emit)
        object.__setattr__(self, "_sig", sig)

    def code_of(self, symbol: str) -> int:
        m = _VAR_RE.match(symbol)
        if m:
            return int(m.group(1)) + self.offset
        try:
            return self.base[symbol]
        except KeyError:
            raise AlphabetError(f"unknown symbol {symbol!r}") from None

    def symbol_of(self, code: int) -> str:
        if code >= self.offset:
            return f"v{code - self.offset}"
        sym = self._by_code.get(code)
        if sym is None:
            raise InvalidSymbolError(code)
        return sym

    def var_code(self, index: int) -> int:
        return _var_code(index, self.offset)


def default_alphabet() -> Alphabet:
    return DEFAULT_ALPHABET


DEFAULT_ALPHABET = Alphabet(
    base={
        "¬": 1,
        "→": 2,
        "∧": 3,
        "∨": 4,
        "∀": 5,
        "∃": 6,
        "=": 7,
        "0": 8,
        "S": 9,
        "+": 10,
        "·": 11,
        "diagfn": 12,
        "Prov": 13,
    },
    offset=16,
)


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
        code, shape = head
        out.append(code)
        if shape == 2:
            stack.append(x.right)
            stack.append(x.left)
        elif shape == 1:
            stack.append(x.arg)
        elif shape == _BINDER:
            out.append(_var_code(x.var, offset))
            stack.append(x.body)
    return out


_WANT = {"formula": "f", "term": "t"}
_EXPECTED = {"f": "a formula", "t": "a term", "v": "a variable"}


def _glyph(code: int, alphabet: Alphabet) -> str:
    """A symbol's name for error messages; never fails on a huge variable."""
    if code < alphabet.offset:
        return alphabet._by_code[code]
    return f"v{_index_text(code - alphabet.offset)}"


def _unexpected(codes: Sequence[int], i: int, alphabet: Alphabet, message: str) -> ZeckGodelError:
    """The error for a parse failing at ``i``: an invalid symbol number at or
    after ``i`` wins, as if every code had been looked up before parsing."""
    for a in codes[i:]:
        if a < alphabet.offset and a not in alphabet._heads:
            return InvalidSymbolError(a)
    return ParseError(message, position=i)


def _from_codes(codes: Sequence[int], alphabet: Alphabet, expect: str | None = None) -> "Term | Formula":
    """Inverse of _to_codes.  ``expect`` may pin the category to formula/term.

    A variable is ``code - offset``; no index passes through text.
    """
    heads, offset = alphabet._heads, alphabet.offset
    enclosing: list[tuple] = []  # frames outside the innermost one
    ctor = slots = children = None  # the innermost open frame
    want = _WANT.get(expect, "a")  # None once the root is complete
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
            k, first, second, category = head
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
    return [by_code[c] if c < offset else f"v{c - offset}" for c in _to_codes(node, DEFAULT_ALPHABET)]


def parse(symbols: Sequence[str], expect: str | None = None) -> "Term | Formula":
    """Inverse of flatten.  ``expect`` may pin the category to formula/term."""
    return _parse_names(symbols, DEFAULT_ALPHABET.base, expect)


def _parse_names(names: Sequence[str], table: Mapping[str, int], expect: str | None) -> "Term | Formula":
    """The AST that a list of names spells, built by _from_codes: ``table`` maps
    base names (glyphs or text names) to codes, and ``v<digits>`` is a variable."""
    base, offset = DEFAULT_ALPHABET.base, DEFAULT_ALPHABET.offset
    codes: list[int] = []
    for tok in names:  # up to the first unknown name
        m = _VAR_RE.match(tok)
        if m:
            try:
                codes.append(int(m.group(1)) + offset)
            except ValueError:  # more digits than the int/str limit allows
                raise ParseError("variable index too long", position=len(codes)) from None
        elif tok in table:
            codes.append(table[tok])
        else:
            break
    u = len(codes)
    try:
        node = _from_codes(codes, DEFAULT_ALPHABET, expect)
    except ParseError as exc:
        if u == len(names) or exc.position < u:
            raise
        # the parser reached the unknown name and wanted a symbol there
        wanted = ", expected a variable" if u and codes[u - 1] in (base["∀"], base["∃"]) else ""
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
    if n < 0:
        raise ValueError("numerals denote naturals")
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
            tokens.append(f"v{c - offset}")
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
