import argparse
import json
import os
import random
import subprocess
import sys

import pytest

import zeckgodel
from zeckgodel.cli import PARSE_LEAF_DIGITS, build_parser, main, parse_nat
from zeckgodel.errors import ZeckGodelError
from zeckgodel.seqcode import seq_encode
from zeckgodel.syntax import DEFAULT_ALPHABET, Eq, Zero, _to_codes, encode_proof, parse_text

from helpers import shuffled_alphabet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeck_decode_example(capsys):
    code, out, err = run_cli(capsys, "zeck", "decode", "32")
    assert code == 0
    assert out == "Z[7,5,3]\n"
    assert err == ""


def test_zeck_encode(capsys):
    for literal in ("Z[7,5,3]", "[7,5,3]", "7,5,3"):
        code, out, _ = run_cli(capsys, "zeck", "encode", literal)
        assert code == 0
        assert out.strip() == "32"


def test_seq_encode_example(capsys):
    code, out, _ = run_cli(capsys, "seq", "encode", "[0,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == [7, 3]
    assert payload["number"] == "24"


def test_seq_roundtrip_through_emitted_literal(capsys):
    _, out, _ = run_cli(capsys, "seq", "encode", "[4,1,4]")
    support = json.loads(out)["support"]
    literal = "Z[" + ",".join(map(str, support)) + "]"
    code, out, _ = run_cli(capsys, "seq", "decode", literal)
    assert code == 0
    assert json.loads(out) == {"sequence": [4, 1, 4]}
    # and the number form decodes identically
    number = json.loads(run_cli(capsys, "seq", "encode", "[4,1,4]")[1])["number"]
    _, out, _ = run_cli(capsys, "seq", "decode", number)
    assert json.loads(out) == {"sequence": [4, 1, 4]}


def test_seq_at_and_concat(capsys):
    _, out, _ = run_cli(capsys, "seq", "at", "24", "2")
    assert out.strip() == "0"
    _, a, _ = run_cli(capsys, "seq", "encode", "[1]")
    _, b, _ = run_cli(capsys, "seq", "encode", "[2]")
    _, ab, _ = run_cli(capsys, "seq", "encode", "[1,2]")
    _, joined, _ = run_cli(
        capsys, "seq", "concat", json.loads(a)["number"], json.loads(b)["number"]
    )
    assert json.loads(joined)["support"] == json.loads(ab)["support"]


def test_fib_and_pair(capsys):
    assert run_cli(capsys, "fib", "7")[1].strip() == "21"
    assert run_cli(capsys, "fib", "0x7")[1].strip() == "21"
    assert run_cli(capsys, "pair", "0", "2")[1].strip() == "3"
    assert run_cli(capsys, "unpair", "3")[1].strip() == "0 2"


def test_oracle_commands(capsys):
    assert run_cli(capsys, "oracle", "check", "1", "2", "4")[1].strip() == "true"
    assert run_cli(capsys, "oracle", "check", "1", "1", "2")[1].strip() == "false"
    assert run_cli(capsys, "oracle", "solve", "5", "5")[1].strip() == "none"
    assert run_cli(capsys, "oracle", "solve", "1", "1")[1].strip() == "3"
    assert run_cli(capsys, "oracle", "mp", "10")[1].strip() == "9 10 12"


def test_syntax_commands(capsys):
    code, out, _ = run_cli(capsys, "syntax", "parse", "(forall v0 (= v0 v0))")
    assert code == 0
    assert out.strip() == "(forall v0 (= v0 v0))"
    _, out, _ = run_cli(capsys, "syntax", "encode", "(= 0 0)")
    payload = json.loads(out)
    assert payload["support"]
    _, out, _ = run_cli(capsys, "syntax", "decode", payload["number"])
    assert out.strip() == "(= 0 0)"
    _, out, _ = run_cli(capsys, "--format", "json", "syntax", "check", payload["number"])
    assert json.loads(out) == {"is_code": True, "is_wff": True, "is_term": False}


def test_sub_command(capsys):
    _, expected, _ = run_cli(capsys, "syntax", "encode", "(= 0 0)")
    _, out, _ = run_cli(capsys, "sub", "(= v0 v0)", "0")
    assert json.loads(out)["support"] == json.loads(expected)["support"]
    # bound occurrence left alone under --free
    _, fc, _ = run_cli(capsys, "syntax", "encode", "(forall v0 (= v0 v0))")
    _, out, _ = run_cli(capsys, "sub", "--free", "(forall v0 (= v0 v0))", "0")
    assert json.loads(out)["support"] == json.loads(fc)["support"]
    # --var reads a variable name as the parser does, or its digits alone
    _, expected, _ = run_cli(capsys, "sub", "(= v5 v0)", "0", "--var", "v5")
    _, out, _ = run_cli(capsys, "sub", "(= v5 v0)", "0", "--var", "5")
    assert out == expected
    for bad in ("5_0", "v+5", "v 5", "-1", "x"):
        code, out, err = run_cli(capsys, "sub", "(= v5 v0)", "0", "--var", bad)
        assert code == 1 and out == "" and "not a variable" in json.loads(err)["message"], bad


def test_diag_and_fixpoint(capsys):
    _, fp_out, _ = run_cli(capsys, "fixpoint", "(= v0 v0)")
    fp = json.loads(fp_out)
    m_literal = "Z[" + ",".join(map(str, fp["m"]["support"])) + "]"
    _, diag_out, _ = run_cli(capsys, "diag", m_literal)
    assert json.loads(diag_out)["support"] == fp["psi"]["support"]
    assert fp["psi"]["bits_estimate"] > 0


def test_godel_command(capsys):
    code, out, _ = run_cli(capsys, "godel")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"]["support"]
    assert payload["m"]["support"]
    assert "number" not in payload["g"]  # megabit code stays in support form
    assert payload["g"]["bits_estimate"] > 1_000_000


def test_prov_and_proof_check(capsys, tmp_path):
    theory = {
        "extra_axioms": ["(= 0 0)", "(imp (= 0 0) (forall v0 (= v0 v0)))"],
    }
    tpath = tmp_path / "theory.json"
    tpath.write_text(json.dumps(theory))
    code, out, _ = run_cli(
        capsys, "--theory", str(tpath), "--bound", "3", "prov", "(forall v0 (= v0 v0))"
    )
    assert code == 0
    witness = json.loads(out)["proof"]
    assert witness is not None
    literal = "Z[" + ",".join(map(str, witness["support"])) + "]"
    code, out, _ = run_cli(capsys, "--theory", str(tpath), "proof", "check", literal)
    assert code == 0
    assert out.strip() == "true"
    # and from a file
    ppath = tmp_path / "proof.txt"
    ppath.write_text(literal)
    assert run_cli(capsys, "--theory", str(tpath), "proof", "check", str(ppath))[1].strip() == "true"
    # unprovable at a tiny bound
    code, out, _ = run_cli(
        capsys, "--theory", str(tpath), "--bound", "1", "prov", "(forall v0 (= v0 v0))"
    )
    assert out.strip() == "none"
    # trailing per-command form overrides the global flag
    code, out, _ = run_cli(
        capsys, "--theory", str(tpath), "prov", "(forall v0 (= v0 v0))", "--bound", "2"
    )
    assert out.strip() == "none"


def test_alphabet_flag(capsys, tmp_path):
    table = dict(DEFAULT_ALPHABET.base)
    apath = tmp_path / "alpha.json"
    apath.write_text(json.dumps({"symbols": table, "offset": 32}))
    _, default_out, _ = run_cli(capsys, "syntax", "encode", "(= v0 v0)")
    _, shifted_out, _ = run_cli(capsys, "--alphabet", str(apath), "syntax", "encode", "(= v0 v0)")
    assert json.loads(default_out)["support"] != json.loads(shifted_out)["support"]


def test_compare_command(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "compare", "--symbols", "12", "--seed", "3", "--json", str(out_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence_length"] == 12
    assert json.loads(out_path.read_text())["sequence_length"] == 12
    code, out, _ = run_cli(capsys, "compare", "--formula", "(= (S 0) (S 0))")
    assert json.loads(out)["sequence_length"] == 5


def test_compare_formula_under_a_shuffled_alphabet(capsys, tmp_path):
    alphabet = shuffled_alphabet(7)
    apath = tmp_path / "alpha.json"
    apath.write_text(json.dumps({"symbols": dict(alphabet.base), "offset": alphabet.offset}))
    f = "(forall v0 (= (S v0) (+ v0 (* 0 v1))))"
    code, out, _ = run_cli(capsys, "--alphabet", str(apath), "compare", "--formula", f)
    assert code == 0
    shuffled = json.loads(out)["zeck_max_index"]
    assert shuffled == seq_encode(_to_codes(parse_text(f), alphabet)).max_index
    _, out, _ = run_cli(capsys, "compare", "--formula", f)
    default = json.loads(out)["zeck_max_index"]
    assert default == seq_encode(_to_codes(parse_text(f), DEFAULT_ALPHABET)).max_index != shuffled


# command path -> (positional names, option strings other than -h/--help);
# a group's one positional is the dest of its subcommand
_COMMAND_SET = {
    "": ("command", "--alphabet --theory --format --threshold --bound"),
    "fib": ("index", ""),
    "pair": ("x y", ""),
    "unpair": ("p", ""),
    "zeck": ("zeck_command", ""),
    "zeck encode": ("indices", ""),
    "zeck decode": ("n", ""),
    "seq": ("seq_command", ""),
    "seq encode": ("items", ""),
    "seq decode": ("code", ""),
    "seq at": ("code i", ""),
    "seq concat": ("a b", ""),
    "syntax": ("syntax_command", ""),
    "syntax parse": ("text", ""),
    "syntax encode": ("text", ""),
    "syntax decode": ("code", ""),
    "syntax check": ("code", ""),
    "sub": ("formula term", "--var --free"),
    "diag": ("code", ""),
    "fixpoint": ("formula", ""),
    "proof": ("proof_command", ""),
    "proof check": ("code", ""),
    "prov": ("formula", "--bound"),
    "godel": ("", ""),
    "oracle": ("oracle_command", ""),
    "oracle check": ("n m k", ""),
    "oracle solve": ("n m", ""),
    "oracle mp": ("n", ""),
    "compare": ("", "--symbols --seed --formula --json"),
}


def _command_set(parser, path=""):
    positionals, options, out = [], [], {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            options += action.option_strings
        else:
            positionals.append(action.dest)
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(_command_set(child, f"{path} {name}".strip()))
    return {path: (" ".join(positionals), " ".join(options)), **out}


def test_command_set_is_pinned():
    assert _command_set(build_parser()) == _COMMAND_SET


def test_domain_error_contract(capsys):
    code, out, err = run_cli(capsys, "syntax", "decode", "1")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "not_a_sequence_code"
    code, _, err = run_cli(capsys, "syntax", "parse", "(= 0")
    assert code == 1
    payload = json.loads(err)
    assert payload["code"] == "parse_error"
    assert "position" in payload


def test_main_restores_the_int_digit_limit(capsys):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4321)
        assert run_cli(capsys, "fib", "7")[0] == 0
        assert sys.get_int_max_str_digits() == 4321
        assert run_cli(capsys, "syntax", "decode", "1")[0] == 1  # a domain error
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(old)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_json_mode_single_document(capsys):
    _, out, err = run_cli(capsys, "--format", "json", "zeck", "decode", "32")
    assert json.loads(out) == {"support": [7, 5, 3]}
    assert err == ""


def test_deterministic_output(capsys):
    first = run_cli(capsys, "--format", "json", "seq", "encode", "[3,1,4,1,5]")
    second = run_cli(capsys, "--format", "json", "seq", "encode", "[3,1,4,1,5]")
    assert first == second


def test_json_mode_every_subcommand_emits_one_document(capsys):
    commands = [
        ["fib", "7"],
        ["pair", "0", "2"],
        ["unpair", "3"],
        ["zeck", "encode", "Z[7,5,3]"],
        ["zeck", "decode", "32"],
        ["seq", "encode", "[0,0]"],
        ["seq", "decode", "24"],
        ["seq", "at", "24", "1"],
        ["seq", "concat", "24", "0"],
        ["syntax", "parse", "(= 0 0)"],
        ["syntax", "encode", "(= 0 0)"],
        ["syntax", "check", "24"],
        ["sub", "(= v0 v0)", "0"],
        ["diag", "(= v0 v0)"],
        ["fixpoint", "(= v0 v0)"],
        ["prov", "(= 0 0)", "--bound", "1"],
        ["godel"],
        ["oracle", "check", "1", "2", "4"],
        ["oracle", "solve", "1", "1"],
        ["oracle", "mp", "2"],
        ["compare", "--symbols", "5", "--seed", "1"],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert code == 0, argv
        json.loads(out)  # exactly one valid document
        assert err == "", argv


@pytest.mark.parametrize("flag, code", [("--theory", "invalid_theory_config"),
                                        ("--alphabet", "invalid_alphabet")])
def test_unreadable_config_file_is_a_domain_error(capsys, tmp_path, flag, code):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    for path in (tmp_path / "missing.json", bad):
        # the flag's file loads before the handler, which would succeed
        status, out, err = run_cli(capsys, "--format", "json", flag, str(path), "fib", "7")
        assert status == 1
        assert out == ""
        assert json.loads(err)["code"] == code


def _fresh_modules(tmp_path, argv) -> list[str]:
    """The zeckgodel modules a fresh process has loaded after cli.main(argv)."""
    script = (
        "import json, sys\n"
        "from zeckgodel import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'zeckgodel')))\n"
    )
    src = os.path.dirname(os.path.dirname(zeckgodel.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_command_loads_only_the_layers_it_uses(tmp_path):
    assert _fresh_modules(tmp_path, ["--format", "json", "fib", "7"]) == [
        "zeckgodel", "zeckgodel.cli", "zeckgodel.errors", "zeckgodel.numeric"]
    proof = encode_proof([Eq(Zero(), Zero())])
    literal = "Z[" + ",".join(map(str, proof.support)) + "]"
    loaded = _fresh_modules(tmp_path, ["--format", "json", "proof", "check", literal])
    assert "zeckgodel.logic" in loaded
    assert "zeckgodel.primecode" not in loaded and "zeckgodel.oracle" not in loaded


def _parse_by_int(text: str) -> int:
    """parse_nat as it was before the split: int() on every literal."""
    t = text.strip()
    try:
        n = int(t, 16) if t.lower().startswith("0x") else int(t, 10)
    except ValueError:
        raise ZeckGodelError(f"not a natural number literal: {text!r}") from None
    if n < 0:
        raise ZeckGodelError(f"negative value not allowed: {text!r}")
    return n


def _outcome(parse, text):
    try:
        return parse(text)
    except ZeckGodelError as exc:
        return str(exc)


@pytest.fixture
def no_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_parse_nat_equals_int_across_the_split(no_digit_limit):
    rng = random.Random(5)
    lengths = [PARSE_LEAF_DIGITS - 1, PARSE_LEAF_DIGITS, PARSE_LEAF_DIGITS + 1,
               2 * PARSE_LEAF_DIGITS - 1, 2 * PARSE_LEAF_DIGITS, 2 * PARSE_LEAF_DIGITS + 1]
    lengths += [rng.randrange(PARSE_LEAF_DIGITS, 200_000) for _ in range(6)] + [200_000]
    for n in lengths:
        digits = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=n - 1))
        zeros = "0" * rng.choice((0, 1, 7, 2_000, 5_000))
        for text in (digits, zeros + digits, " " + digits + "\n", "9" * n, "1" + "0" * (n - 1)):
            assert parse_nat(text) == int(text), (n, len(zeros))


def test_parse_nat_rejects_what_int_rejects(no_digit_limit):
    long = "1" + "0" * (3 * PARSE_LEAF_DIGITS)
    texts = ["1_000", "-5", "+5", "-0", "", " ", "0x1f", "x", "1e3", "2.5",
             long, "+" + long, "-" + long, long[:100] + "_" + long[100:], long + "_",
             long[:-1] + "\u0663", long[:50] + " " + long[50:], "0x" + "f" * 5_000]
    for text in texts:
        assert _outcome(parse_nat, text) == _outcome(_parse_by_int, text), text[:20]
    # with int()'s digit limit in force, a literal past it is refused as before
    sys.set_int_max_str_digits(PARSE_LEAF_DIGITS * 2)
    assert _outcome(parse_nat, long) == _outcome(_parse_by_int, long)
    assert isinstance(_outcome(parse_nat, long), str)
