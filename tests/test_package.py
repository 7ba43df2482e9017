import importlib

import pytest

import zeckgodel

# The package's public names: a lazy export must keep every one of them.
EXPORTED = """
Alphabet AlphabetError And CodeTooLargeError DEFAULT_MATERIALIZE_MAX_INDEX DiagFn Eq Exists
Forall Formula Imp InvalidSupportError InvalidSymbolError Neg NotProofCodeError
NotSequenceCodeError NotTermCodeError NotWffCodeError NumeralTooLargeError Or OracleTriple
ParseError Plus PrimeCodingError Proof ProofStep ProvP SeqCode SizeReport Succ Term
TheoryConfig TheoryConfigError Times Var ZeckGodelError Zero as_code bits_estimate cantor_pair
cantor_unpair check_mp check_mp_codes check_proof check_structured_proof code_p compare_sizes
concat decode_p decode_proof decode_syntax default_alphabet default_theory diag encode_proof
encode_syntax fib fixed_point flatten format_text from_number godel_sentence is_axiom is_code
is_term_code is_valid_support is_wff_code load_alphabet load_theory max_fib_index_le mp_witness
numeral oracle_check oracle_solve parse parse_text prime_table prov_bounded seq_decode
seq_encode seq_len sub_free sub_prime sub_z symbol_at to_number z_decode z_encode
zeck_length_bound
""".split()


def test_all_is_the_pinned_exports_and_the_version():
    assert len(EXPORTED) == 89
    assert sorted(zeckgodel.__all__) == sorted([*EXPORTED, "__version__"])
    assert zeckgodel.__version__ == "0.1.0"
    assert set(zeckgodel.__all__) <= set(dir(zeckgodel))


def test_each_name_is_the_object_its_module_defines():
    for name in EXPORTED:
        module = importlib.import_module(f"zeckgodel.{zeckgodel._EXPORTS[name]}")
        value = getattr(zeckgodel, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name
        assert vars(zeckgodel)[name] is value  # resolved once, then kept


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from zeckgodel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zeckgodel.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        zeckgodel.nope
    assert not hasattr(zeckgodel, "nope")
    with pytest.raises(ImportError):
        exec("from zeckgodel import nope", {})
    # a submodule is still importable by name through the package
    namespace: dict = {}
    exec("from zeckgodel import logic", namespace)
    assert namespace["logic"] is importlib.import_module("zeckgodel.logic")
