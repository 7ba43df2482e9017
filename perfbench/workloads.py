"""The four workloads: seeded inputs, the timed op, and its known answer.

A workload is a ladder of rungs run bottom to top, one op at a time.  Each
rung holds a few seeded inputs that successive passes cycle through.  An op
is a short sequence of library calls, its ``steps``, timed together;
a step gets the op's input and the results of the steps before it.
``check`` compares the step results with an answer from ``oracles`` (never
from the function under test) and runs untimed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracles as o

OUT_DIR = ".perfbench_out"


@dataclass
class Rung:
    name: str
    size: int | None  # bits, symbols or links; None keeps the rung out of the growth fit
    items: list
    steps: tuple[Callable[..., Any], ...]
    check: Callable[[Any, list], bool]
    repeat: int = 1  # ops per pass; cheap rungs repeat so their medians have samples
    known_failure: str | None = None  # exception this rung raises at the benchmarked commit


@dataclass
class Workload:
    rungs: list[Rung]
    bottom: str
    top: str
    pass_s: float  # nominal untraced pass time, which sizes the fixed number of passes
    # cli only: a step is step(item, done, timeout) and starts a process;
    # main_argv(item) is the same command's argv for cli.main in this process
    main_argv: Callable[[Any], list[str]] | None = None


def _cached(cache: dict, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _random_bits(rng: random.Random, bits: int) -> int:
    """A bits-wide number with exactly bits // 2 one-bits, top bit set.

    Fixing the one-bit count fixes the numeral's symbol count, so every
    seed gives each rung the same amount of work.
    """
    ones = set(rng.sample(range(bits - 1), bits // 2 - 1))
    return (1 << (bits - 1)) | sum(1 << i for i in ones)


def _numeral_ast(zg, n: int):
    """Doubling-form numeral of n >= 1, built from the AST constructors alone."""
    two = zg.Succ(zg.Succ(zg.Zero()))
    node = zg.Succ(zg.Zero())
    for bit in bin(n)[3:]:
        node = zg.Times(two, node)
        if bit == "1":
            node = zg.Succ(node)
    return node


def _code(zg, codes: list[int]):
    return zg.SeqCode(o.seq_support(codes))


# --- diagonal -------------------------------------------------------------

DIAGONAL_ATOMS = (2, 4, 6, 8, 10, 13)  # 7 to 51 symbols
DIAGONAL_REPEAT = (8, 4, 2, 1, 1, 2)
DIAGONAL_PASS_S = 1.3


def _chain_codes(rng: random.Random, atoms: int) -> list[int]:
    """Implication chain of `= v0 x` / `= x v0` atoms, ending in `= v0 v3`.

    The fixed last atom pins the largest support index, so m's bit length,
    and with it the rung's cost, does not depend on the seed.
    """
    v0 = o.var(0)
    parts = []
    for _ in range(atoms - 1):
        other = rng.choice([o.CODE["0"], o.var(1), o.var(2), o.var(3)])
        parts.append([other, v0] if rng.random() < 0.5 else [v0, other])
    parts.append([v0, o.var(3)])
    codes: list[int] = []
    for i, (a, b) in enumerate(parts):
        if i < len(parts) - 1:
            codes.append(o.CODE["imp"])
        codes += [o.CODE["="], a, b]
    return codes


def diagonal(seed: int, root: str) -> Workload:
    import zeckgodel as zg

    rng = random.Random(seed)
    cache: dict = {}

    def check_fixed_point(item, done):
        codes, phi = item
        psi, m = done[0]
        psi_support, m_support, m_value = _cached(cache, id(item), lambda: o.fixed_point_supports(codes))
        if psi.support != psi_support or m.support != m_support or zg.to_number(m) != m_value:
            return False
        # the diagonal identity, once per input: code(psi) == diag(m)
        return _cached(cache, ("diag", id(item)), lambda: zg.diag(m).support == psi_support)

    rungs = []
    for atoms, repeat in zip(DIAGONAL_ATOMS, DIAGONAL_REPEAT):
        items = []
        for _ in range(2):
            codes = _chain_codes(rng, atoms)
            items.append((codes, _code(zg, codes)))
        rungs.append(Rung(f"fixed_point_{4 * atoms - 1}", 4 * atoms - 1, items,
                          (lambda item, done: zg.fixed_point(item[1]),), check_fixed_point, repeat))
    godel = ([o.CODE["not"], o.CODE["Prov"], o.var(0)], None)
    rungs.append(Rung("godel_sentence", None, [godel], (lambda item, done: zg.godel_sentence(),),
                      check_fixed_point))
    return Workload(rungs, bottom=rungs[0].name, top=rungs[-2].name, pass_s=DIAGONAL_PASS_S)


# --- proof_wall -----------------------------------------------------------

PROOF_WALL_BITS = (8, 12, 16, 20, 24, 28)
PROOF_WALL_REPEAT = (24, 12, 3, 1, 1, 2)
PROOF_WALL_PASS_S = 1.3


def proof_wall(seed: int, root: str) -> Workload:
    import zeckgodel as zg

    rng = random.Random(seed)
    cache: dict = {}

    steps = (
        lambda item, done: zg.encode_proof([item[1]]),
        lambda item, done: zg.check_proof(done[0]),
        lambda item, done: zg.encode_proof([item[2]]),
        lambda item, done: zg.check_proof(done[2]),
    )

    def check(item, done):
        n, _, _ = item
        code, ok, bad, bad_ok = done

        def expected():
            num = o.numeral_codes(n)
            return (o.proof_support([o.eq_codes(num, num)]),
                    o.proof_support([o.eq_codes(num, [o.CODE["S"], *num])]))

        want, want_bad = _cached(cache, n, expected)
        return ok is True and bad_ok is False and code.support == want and bad.support == want_bad

    rungs = []
    for bits, repeat in zip(PROOF_WALL_BITS, PROOF_WALL_REPEAT):
        items = []
        for _ in range(3):
            n = _random_bits(rng, bits)
            num = _numeral_ast(zg, n)
            items.append((n, zg.Eq(num, num), zg.Eq(num, zg.Succ(num))))
        rungs.append(Rung(f"eq_refl_{bits}bit", bits, items, steps, check, repeat))
    return Workload(rungs, bottom=rungs[0].name, top=rungs[-1].name, pass_s=PROOF_WALL_PASS_S)


# --- proof_chain ----------------------------------------------------------

CHAIN_LINKS = (10, 20, 40, 80, 160)
CHAIN_REPEAT = (6, 3, 1, 1, 2)
CHAIN_SEARCH_MAX = 40
DEEP_BITS = 256
CHAIN_PASS_S = 2.1


# 9-bit k with five one-bits: 280 distinct atoms (= numeral(k) v_r), all of one size
CHAIN_ATOMS = [(k, r) for k in range(1 << 8, 1 << 9) if bin(k).count("1") == 5 for r in range(4)]


def _chain(zg, rng: random.Random, links: int) -> dict:
    """A_0, A_0 -> A_1, A_1, ..., A_links over distinct atoms of equal size."""
    picks = rng.sample(CHAIN_ATOMS, links + 1)
    atom_codes = [o.eq_codes(o.numeral_codes(k), [o.var(r)]) for k, r in picks]
    atoms = [zg.Eq(_numeral_ast(zg, k), zg.Var(r)) for k, r in picks]
    impl = [zg.Imp(atoms[j], atoms[j + 1]) for j in range(links)]
    impl_codes = [o.imp_codes(atom_codes[j], atom_codes[j + 1]) for j in range(links)]
    proof, proof_codes = [atoms[0]], [atom_codes[0]]
    for j in range(links):
        proof += [impl[j], atoms[j + 1]]
        proof_codes += [impl_codes[j], atom_codes[j + 1]]
    gap = 2 * (links // 2) + 1  # the link that derives A_{links//2 + 1}
    return {
        "theory": zg.TheoryConfig(extra_axioms=(atoms[0], *impl)),
        "proof": proof,
        "proof_codes": proof_codes,
        "broken": proof[:gap] + proof[gap + 1:],
        "broken_codes": proof_codes[:gap] + proof_codes[gap + 1:],
        "head": _code(zg, atom_codes[-1]),
        "bound": 2 * links + 1,
        "search": links <= CHAIN_SEARCH_MAX,
    }


def proof_chain(seed: int, root: str) -> Workload:
    import zeckgodel as zg

    rng = random.Random(seed)
    cache: dict = {}

    steps = (
        lambda c, done: zg.encode_proof(c["proof"]),
        lambda c, done: zg.check_proof(done[0], c["theory"]),
        lambda c, done: zg.encode_proof(c["broken"]),
        lambda c, done: zg.check_proof(done[2], c["theory"]),
        lambda c, done: zg.prov_bounded(c["head"], c["bound"], c["theory"]) if c["search"] else None,
    )

    def check(c, done):
        code, ok, broken, broken_ok, found = done
        want, want_broken = _cached(cache, id(c), lambda: (
            o.proof_support(c["proof_codes"]), o.proof_support(c["broken_codes"])))
        if not (ok is True and broken_ok is False):
            return False
        if code.support != want or broken.support != want_broken:
            return False
        # the only derivation of the head is the chain itself, in chain order
        return not c["search"] or (found is not None and found.support == want)

    rungs = []
    for links, repeat in zip(CHAIN_LINKS, CHAIN_REPEAT):
        items = [_chain(zg, rng, links) for _ in range(2)]
        rungs.append(Rung(f"mp_chain_{links}", links, items, steps, check, repeat))

    n = _random_bits(rng, DEEP_BITS)
    step = zg.ProofStep(zg.Eq(_numeral_ast(zg, n), _numeral_ast(zg, n)), ("axiom",))
    deep = zg.Proof((step,))
    rungs.append(Rung(f"structured_eq_refl_{DEEP_BITS}bit", None, [deep],
                      (lambda item, done: zg.check_structured_proof(item),),
                      lambda item, done: done[0] is True, known_failure="RecursionError"))
    return Workload(rungs, bottom=rungs[0].name, top=rungs[-2].name, pass_s=CHAIN_PASS_S)


# --- cli ------------------------------------------------------------------

CLI_PROOF_BITS = (8, 16, 24, 32, 40)
CLI_PROOF_REPEAT = (2, 2, 1, 1, 2)
CLI_TAMPERED_BITS = 16
CLI_PROV_LINKS = 6
CLI_COMPARE_SYMBOLS = 200
CLI_PASS_S = 4.2


def _text(codes: list[int]) -> str:
    """Parenthesized prefix text of a formula given by symbol codes."""
    glyph = {c: g for g, c in o.CODE.items()}
    arity = {"not": 1, "imp": 2, "=": 2, "S": 1, "*": 2, "+": 2, "diagfn": 1, "Prov": 1}
    pos = 0

    def walk() -> str:
        nonlocal pos
        a = codes[pos]
        pos += 1
        if a >= o.VAR_OFFSET:
            return f"v{a - o.VAR_OFFSET}"
        g = glyph[a]
        if g not in arity:
            return g
        return "(" + " ".join([g] + [walk() for _ in range(arity[g])]) + ")"

    return walk()


def _subprocess_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    env = _subprocess_env(root)
    cache: dict = {}

    def invoke(argv, done, timeout=None):
        proc = subprocess.run([sys.executable, "-m", "zeckgodel", "--format", "json", *argv],
                              cwd=root, env=env, capture_output=True, timeout=timeout)
        return proc.returncode, proc.stdout

    def rung(name, size, argv, expect, repeat=1):
        def check(item, done):
            code, stdout = done[0]
            if code != 0:
                return False
            try:
                payload = json.loads(stdout)
            except ValueError:
                return False
            return expect(payload)
        return Rung(name, size, [argv], (invoke,), check, repeat)

    # the Gödel sentence and its m, from the oracle
    def godel_expect(payload):
        psi, m, m_value = _cached(cache, "godel", lambda: o.fixed_point_supports(
            [o.CODE["not"], o.CODE["Prov"], o.var(0)]))
        return (payload["g"]["support"] == list(psi) and payload["m"]["support"] == list(m)
                and payload["m"]["number"] == str(m_value))

    # a modus-ponens chain given as theory axioms; prov must find the chain itself
    picks = rng.sample([(k, r) for k in range(16) for r in range(4)], CLI_PROV_LINKS + 1)
    atoms = [o.eq_codes(o.numeral_codes(k), [o.var(r)]) for k, r in picks]
    links = [o.imp_codes(atoms[j], atoms[j + 1]) for j in range(CLI_PROV_LINKS)]
    chain = [atoms[0]]
    for j in range(CLI_PROV_LINKS):
        chain += [links[j], atoms[j + 1]]
    theory_path = os.path.join(out, "theory.json")
    with open(theory_path, "w", encoding="utf-8") as fh:
        json.dump({"extra_axioms": [_text(f) for f in [atoms[0], *links]]}, fh)

    def prov_expect(payload):
        want = _cached(cache, "prov", lambda: o.proof_support(chain))
        return payload["proof"] is not None and payload["proof"]["support"] == list(want)

    solve_m = (1 << 16) + rng.randrange(1 << 12)

    compare_seed = rng.randrange(1 << 30)

    def compare_expect(payload):
        def expected():
            seq_rng = random.Random(compare_seed)  # the CLI's documented generator
            seq = [seq_rng.randint(1, 20) for _ in range(CLI_COMPARE_SYMBOLS)]
            support = o.seq_support(seq)
            return {"sequence_length": len(seq), "zeck_max_index": support[0],
                    "zeck_bits": (o.fib_sum(support) - 1).bit_length(),
                    "prime_bits": (o.prime_code(seq) - 1).bit_length()}
        want = _cached(cache, "compare", expected)
        timings_ok = all(isinstance(payload[k], float) and payload[k] > 0 for k in
                         ("zeck_encode_s", "prime_encode_s", "zeck_sub_s", "prime_sub_s"))
        return timings_ok and all(payload[k] == v for k, v in want.items())

    def proof_file(bits: int, tampered: bool) -> str:
        num = o.numeral_codes(_random_bits(rng, bits))
        right = [o.CODE["S"], *num] if tampered else num
        support = o.proof_support([o.eq_codes(num, right)])
        path = os.path.join(out, f"proof_{bits}bit{'_tampered' if tampered else ''}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("Z[" + ",".join(map(str, support)) + "]\n")
        return os.path.relpath(path, root)

    prov_target = _text(atoms[-1])
    rungs = [
        rung("fib_7", None, ["fib", "7"], lambda p: p == {"value": str(o.fib(7))}, repeat=3),
        rung("godel", None, ["godel"], godel_expect),
        rung("prov_chain", None, ["--theory", os.path.relpath(theory_path, root), "prov", prov_target,
                                  "--bound", str(len(chain))], prov_expect),
        rung("oracle_solve", None, ["oracle", "solve", str(solve_m - 1), str(solve_m)],
             lambda p: p == {"k": solve_m + 2}),
        rung(f"compare_{CLI_COMPARE_SYMBOLS}", None,
             ["compare", "--symbols", str(CLI_COMPARE_SYMBOLS), "--seed", str(compare_seed)], compare_expect),
        rung(f"proof_check_{CLI_TAMPERED_BITS}bit_tampered", None,
             ["proof", "check", proof_file(CLI_TAMPERED_BITS, True)], lambda p: p == {"ok": False}),
    ]
    for bits, repeat in zip(CLI_PROOF_BITS, CLI_PROOF_REPEAT):
        rungs.append(rung(f"proof_check_{bits}bit", bits, ["proof", "check", proof_file(bits, False)],
                          lambda p: p == {"ok": True}, repeat))
    return Workload(rungs, bottom="fib_7", top=rungs[-1].name, pass_s=CLI_PASS_S,
                    main_argv=lambda argv: ["--format", "json", *argv])


WORKLOADS = {"diagonal": diagonal, "proof_wall": proof_wall, "proof_chain": proof_chain, "cli": cli}
