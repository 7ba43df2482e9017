"""Godel numbering of sequences, formulas and proofs via Zeckendorf supports.

The coding stack, bottom to top: exact Fibonacci arithmetic and Cantor
pairing (`numeric`), Zeckendorf encode/decode (`zeckendorf`), sequence codes
with a dual bignum/support representation (`seqcode`), a concrete
first-order syntax and its codes (`syntax`), code-level substitution and the
fixed-point construction (`substitution`), a Hilbert-style proof checker
with bounded search (`logic`), the Fibonacci verification oracle (`oracle`),
and a prime-exponent baseline for size comparisons (`primecode`).

Importing the package loads none of these layers.  Each public name is
imported from its layer on first access (PEP 562) and then kept here, so a
command of the ``zeckgodel`` CLI loads only the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "AlphabetError CodeTooLargeError InvalidSupportError InvalidSymbolError "
                  "NotProofCodeError NotSequenceCodeError NotTermCodeError NotWffCodeError "
                  "NumeralTooLargeError ParseError PrimeCodingError TheoryConfigError "
                  "ZeckGodelError",
        "numeric": "cantor_pair cantor_unpair fib max_fib_index_le zeck_length_bound",
        "zeckendorf": "is_valid_support z_decode z_encode",
        "seqcode": "DEFAULT_MATERIALIZE_MAX_INDEX SeqCode as_code bits_estimate concat "
                   "from_number is_code seq_decode seq_encode seq_len symbol_at to_number",
        "syntax": "Alphabet And DiagFn Eq Exists Forall Formula Imp Neg Or Plus ProvP Succ "
                  "Term Times Var Zero decode_proof decode_syntax default_alphabet "
                  "encode_proof encode_syntax flatten format_text is_term_code is_wff_code "
                  "load_alphabet numeral parse parse_text",
        "substitution": "diag fixed_point sub_free sub_z",
        "logic": "Proof ProofStep TheoryConfig check_mp check_mp_codes check_proof "
                 "check_structured_proof default_theory godel_sentence is_axiom load_theory "
                 "prov_bounded",
        "oracle": "OracleTriple mp_witness oracle_check oracle_solve",
        "primecode": "SizeReport code_p compare_sizes decode_p prime_table sub_prime",
    }.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
