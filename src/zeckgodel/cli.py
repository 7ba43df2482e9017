"""Command-line front end.

Code literals are decimal, hex (0x...), or support form Z[e1,e2,...] with
decreasing indices.  Formula arguments accept either a code literal or the
prefix text form, e.g. ``(forall v0 (= v0 v0))``.

Exit codes: 0 success, 1 domain error (structured JSON object on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ZeckGodelError

# Print threshold: codes with a larger max support index are shown in support
# form only.  Deliberately far below the library's to_number cap; printing a
# megabit Gödel-sentence value in decimal helps nobody.
DEFAULT_PRINT_THRESHOLD = 1 << 16

# Decimal literals with more digits than this are parsed by halves: int(str)
# is quadratic in the digit count on CPython 3.11, while joining two halves
# costs one Karatsuba product (Brent and Zimmermann, Modern Computer
# Arithmetic, 1.7).
PARSE_LEAF_DIGITS = 2048
_pow10: dict[int, int] = {}  # power of two k -> 10**k


# --- literals -------------------------------------------------------------

def _parse_digits(t: str) -> int:
    """int(t) for ASCII digits t, split at the largest power of two below len(t)."""
    if len(t) <= PARSE_LEAF_DIGITS:
        return int(t)
    k = 1 << (len(t) - 1).bit_length() - 1
    scale = _pow10.get(k)
    if scale is None:
        scale = _pow10[k] = 10**k
    return _parse_digits(t[:-k]) * scale + _parse_digits(t[-k:])


def _splits(t: str) -> bool:
    """Whether _parse_digits takes t: ASCII digits, longer than the leaf, within int()'s limit."""
    if len(t) <= PARSE_LEAF_DIGITS or not (t.isascii() and t.isdigit()):
        return False
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return not limit or len(t) <= limit


def parse_nat(text: str) -> int:
    t = text.strip()
    if _splits(t):
        return _parse_digits(t)
    try:
        n = int(t, 16) if t.lower().startswith("0x") else int(t, 10)
    except ValueError:
        raise ZeckGodelError(f"not a natural number literal: {text!r}") from None
    if n < 0:
        raise ZeckGodelError(f"negative value not allowed: {text!r}")
    return n


def parse_support_literal(text: str) -> tuple[int, ...]:
    from .zeckendorf import is_valid_support
    t = text.strip()
    if t.startswith("Z[") and t.endswith("]"):
        t = t[1:]
    if t.startswith("[") and t.endswith("]"):
        t = t[1:-1]
    body = t.strip()
    indices = tuple(parse_nat(tok) for tok in body.split(",")) if body else ()
    if not is_valid_support(indices):
        raise ZeckGodelError(f"not a valid Zeckendorf support: {text!r}")
    return indices


def parse_code_literal(text: str) -> SeqCode:
    from .seqcode import SeqCode, from_number
    t = text.strip()
    if t.startswith("Z[") or t.startswith("["):
        return SeqCode(parse_support_literal(t))
    return from_number(parse_nat(t))


def parse_formula_arg(text: str, alphabet: Alphabet | None) -> SeqCode:
    """A formula given either as prefix text or as a code literal."""
    from .syntax import encode_syntax, parse_text
    t = text.strip()
    if t.startswith("(") or t in ("0",) or t.startswith("v"):
        return encode_syntax(parse_text(t), alphabet)
    return parse_code_literal(t)


def parse_var(text: str) -> int:
    """A variable given as its name ``v<digits>`` or as the digits alone."""
    from .syntax import _var_index
    t = text.strip()
    index = _var_index(t if t.startswith("v") else "v" + t)
    if index is None:
        raise ZeckGodelError(f"not a variable: {text!r}")
    return index


# --- output ----------------------------------------------------------------

def code_json(c: SeqCode, threshold: int) -> dict:
    from .seqcode import bits_estimate, to_number
    out: dict = {"support": list(c.support), "bits_estimate": bits_estimate(c)}
    if c.max_index <= threshold:
        out["number"] = str(to_number(c, max_index=threshold))
    return out


def _emit(args, payload: dict, text: str | None = None) -> None:
    if args.format == "json" or text is None:
        print(json.dumps(payload))
    else:
        print(text)


# --- command handlers --------------------------------------------------------
#
# Each handler imports the layers it uses, so a process loads no others.

def _cmd_fib(args):
    from .numeric import fib
    value = fib(parse_nat(args.index))
    _emit(args, {"value": str(value)}, str(value))


def _cmd_pair(args):
    from .numeric import cantor_pair
    value = cantor_pair(parse_nat(args.x), parse_nat(args.y))
    _emit(args, {"value": str(value)}, str(value))


def _cmd_unpair(args):
    from .numeric import cantor_unpair
    x, y = cantor_unpair(parse_nat(args.p))
    _emit(args, {"x": str(x), "y": str(y)}, f"{x} {y}")


def _cmd_zeck_encode(args):
    from .seqcode import SeqCode, to_number
    support = parse_support_literal(args.indices)
    value = to_number(SeqCode(support), max_index=args.threshold)
    _emit(args, {"value": str(value)}, str(value))


def _cmd_zeck_decode(args):
    from .zeckendorf import z_decode
    support = z_decode(parse_nat(args.n))
    _emit(args, {"support": list(support)}, "Z[" + ",".join(map(str, support)) + "]")


def _cmd_seq_encode(args):
    from .seqcode import seq_encode
    try:
        items = json.loads(args.items)
    except json.JSONDecodeError as exc:
        raise ZeckGodelError(f"not a JSON list: {args.items!r}") from exc
    if not isinstance(items, list) or not all(
        isinstance(a, int) and not isinstance(a, bool) and a >= 0 for a in items
    ):
        raise ZeckGodelError("sequence must be a JSON list of naturals")
    _emit(args, code_json(seq_encode(items), args.threshold))


def _cmd_seq_decode(args):
    from .seqcode import seq_decode
    _emit(args, {"sequence": seq_decode(parse_code_literal(args.code))})


def _cmd_seq_at(args):
    from .seqcode import symbol_at
    value = symbol_at(parse_code_literal(args.code), parse_nat(args.i))
    _emit(args, {"value": str(value)}, str(value))


def _cmd_seq_concat(args):
    from .seqcode import concat
    result = concat(parse_code_literal(args.a), parse_code_literal(args.b))
    _emit(args, code_json(result, args.threshold))


def _cmd_syntax_parse(args):
    from .syntax import Formula, format_text, parse_text
    node = parse_text(args.text)
    _emit(args, {"text": format_text(node), "kind": "formula" if isinstance(node, Formula) else "term"},
          format_text(node))


def _cmd_syntax_encode(args):
    from .syntax import encode_syntax, parse_text
    node = parse_text(args.text)
    _emit(args, code_json(encode_syntax(node, args.alphabet), args.threshold))


def _cmd_syntax_decode(args):
    from .syntax import decode_syntax, format_text
    node = decode_syntax(parse_code_literal(args.code), args.alphabet)
    _emit(args, {"text": format_text(node)}, format_text(node))


def _cmd_syntax_check(args):
    from .seqcode import is_code
    from .syntax import is_term_code, is_wff_code
    c = parse_code_literal(args.code)
    payload = {
        "is_code": is_code(c),
        "is_wff": is_wff_code(c, args.alphabet),
        "is_term": is_term_code(c, args.alphabet),
    }
    _emit(args, payload)


def _cmd_sub(args):
    from .substitution import sub_free, sub_z
    alphabet = args.alphabet
    fc = parse_formula_arg(args.formula, alphabet)
    tc = parse_formula_arg(args.term, alphabet)
    var = parse_var(args.var)
    op = sub_free if args.free else sub_z
    _emit(args, code_json(op(fc, tc, var, alphabet), args.threshold))


def _cmd_diag(args):
    from .substitution import diag
    c = parse_formula_arg(args.code, args.alphabet)
    _emit(args, code_json(diag(c, alphabet=args.alphabet), args.threshold))


def _cmd_fixpoint(args):
    from .substitution import fixed_point
    psi, m = fixed_point(parse_formula_arg(args.formula, args.alphabet), alphabet=args.alphabet)
    _emit(args, {"psi": code_json(psi, args.threshold), "m": code_json(m, args.threshold)})


def _cmd_proof_check(args):
    from .logic import check_proof
    text = args.code
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    ok = check_proof(parse_code_literal(text), args.theory, args.alphabet)
    _emit(args, {"ok": ok}, "true" if ok else "false")


def _cmd_prov(args):
    from .logic import prov_bounded
    target = parse_formula_arg(args.formula, args.alphabet)
    bound = args.bound_local if args.bound_local is not None else args.bound
    found = prov_bounded(target, bound, args.theory, args.alphabet)
    if found is None:
        _emit(args, {"proof": None}, "none")
    else:
        _emit(args, {"proof": code_json(found, args.threshold)})


def _cmd_godel(args):
    from .logic import godel_sentence
    g, m = godel_sentence(args.theory, args.alphabet)
    _emit(args, {"g": code_json(g, args.threshold), "m": code_json(m, args.threshold)})


def _cmd_oracle_check(args):
    from .oracle import oracle_check
    ok = oracle_check(parse_nat(args.n), parse_nat(args.m), parse_nat(args.k))
    _emit(args, {"ok": ok}, "true" if ok else "false")


def _cmd_oracle_solve(args):
    from .oracle import oracle_solve
    k = oracle_solve(parse_nat(args.n), parse_nat(args.m))
    _emit(args, {"k": k}, "none" if k is None else str(k))


def _cmd_oracle_mp(args):
    from .oracle import mp_witness
    t = mp_witness(parse_nat(args.n))
    _emit(args, {"n": t.n, "m": t.m, "k": t.k}, f"{t.n} {t.m} {t.k}")


def _cmd_compare(args):
    from .primecode import compare_sizes
    if args.formula is not None:
        from .syntax import DEFAULT_ALPHABET, _to_codes, parse_text
        seq = _to_codes(parse_text(args.formula), args.alphabet or DEFAULT_ALPHABET)
    else:
        import random
        rng = random.Random(args.seed)
        seq = [rng.randint(1, 20) for _ in range(args.symbols)]
    report = compare_sizes(seq).to_dict()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    _emit(args, report)


# --- parser ------------------------------------------------------------------

# command path -> (handler, help, positionals); a positional is a name or a (name, help)
# pair.  A command with no help gets no help=: argparse lists one given help=None.
_COMMANDS = {
    "fib": (_cmd_fib, "Fibonacci number F_e", ("index",)),
    "pair": (_cmd_pair, "Cantor pairing", ("x", "y")),
    "unpair": (_cmd_unpair, "inverse Cantor pairing", ("p",)),
    "zeck encode": (_cmd_zeck_encode, None, (("indices", "support, e.g. Z[7,5,3] or [7,5,3] "),)),
    "zeck decode": (_cmd_zeck_decode, None, ("n",)),
    "seq encode": (_cmd_seq_encode, None, (("items", "JSON list, e.g. [0,0]"),)),
    "seq decode": (_cmd_seq_decode, None, ("code",)),
    "seq at": (_cmd_seq_at, None, ("code", "i")),
    "seq concat": (_cmd_seq_concat, None, ("a", "b")),
    "syntax parse": (_cmd_syntax_parse, None, ("text",)),
    "syntax encode": (_cmd_syntax_encode, None, ("text",)),
    "syntax decode": (_cmd_syntax_decode, None, ("code",)),
    "syntax check": (_cmd_syntax_check, None, ("code",)),
    "sub": (_cmd_sub, "substitute a term for a variable", ("formula", "term")),
    "diag": (_cmd_diag, "diagonalize a formula code", ("code",)),
    "fixpoint": (_cmd_fixpoint, "diagonal-lemma fixed point", ("formula",)),
    "proof check": (_cmd_proof_check, None, (("code", "code literal or path to a file containing one"),)),
    "prov": (_cmd_prov, "bounded provability search", ("formula",)),
    "godel": (_cmd_godel, "construct the Godel sentence", ()),
    "oracle check": (_cmd_oracle_check, None, ("n", "m", "k")),
    "oracle solve": (_cmd_oracle_solve, None, ("n", "m")),
    "oracle mp": (_cmd_oracle_mp, None, ("n",)),
    "compare": (_cmd_compare, "Zeckendorf vs prime-exponent size report", ()),
}
_GROUPS = {
    "zeck": "Zeckendorf encode/decode",
    "seq": "sequence codes",
    "syntax": "formula/term codes",
    "proof": "proof codes",
    "oracle": "Fibonacci verification oracle",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zeckgodel",
        description="Godel numbering via Zeckendorf representations",
    )
    p.add_argument("--alphabet", metavar="PATH", help="alphabet config JSON")
    p.add_argument("--theory", metavar="PATH", help="theory config JSON")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--threshold", type=int, default=DEFAULT_PRINT_THRESHOLD,
                   metavar="MAX_INDEX", help="materialization threshold (max support index)")
    p.add_argument("--bound", type=int, default=8, metavar="N", help="proof search step budget")
    top = p.add_subparsers(dest="command", required=True)
    groups = {"": top}
    for path, (handler, help_text, positionals) in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group not in groups:
            gp = top.add_parser(group, help=_GROUPS[group])
            groups[group] = gp.add_subparsers(dest=f"{group}_command", required=True)
        sub = groups[group]
        sp = sub.add_parser(name, help=help_text) if help_text else sub.add_parser(name)
        for arg in positionals:
            arg, arg_help = (arg, None) if isinstance(arg, str) else arg
            sp.add_argument(arg, help=arg_help)
        sp.set_defaults(handler=handler)

    sp = top.choices["sub"]
    sp.add_argument("--var", default="v0")
    sp.add_argument("--free", action="store_true", help="replace free occurrences only")
    top.choices["prov"].add_argument("--bound", dest="bound_local", type=int, default=None,
                                     metavar="N", help="step budget (overrides the global flag)")
    sp = top.choices["compare"]
    sp.add_argument("--symbols", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--formula", help="benchmark this prefix-text sentence instead")
    sp.add_argument("--json", metavar="PATH", help="also write the report to a file")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)  # the threshold already bounds print sizes; restored on return
    try:
        # a config path becomes its object; without one, each library entry applies its default
        if args.alphabet:
            from .syntax import load_alphabet
            args.alphabet = load_alphabet(args.alphabet)
        if args.theory:
            from .logic import load_theory
            args.theory = load_theory(args.theory)
        args.handler(args)
    except ZeckGodelError as exc:
        err = {"code": exc.code, "message": str(exc)}
        position = getattr(exc, "position", None)
        if position is not None:
            err["position"] = position
        print(json.dumps(err), file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
