"""Spans and counters around zeckgodel's layer functions, installed from outside.

Each traced function is replaced, in every zeckgodel module that holds it
under any name, by a wrapper that records a span (id, group, start, end,
parent, op id) and updates its group's counters.  Self time is the span's
duration minus the time of the spans and timed leaves it directly encloses.
Hot leaves (Cantor pairing) are counted, sampled for time, and record no span.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# Index of the dense Fibonacci table in the library as benchmarked first;
# "past cap" always means an index above this, whatever later code does.
PAST_CAP_INDEX = 1 << 14
MAX_SPANS = 200_000
LEAF_SAMPLE = 32
LEAF_SMALL_BITS = 64


def _fib_hook(st, args, result, tracer):
    if args and args[0] > PAST_CAP_INDEX:
        st["past_cap_calls"] += 1


def _z_decode_hook(st, args, result, tracer):
    if result:
        st["max_index"] = max(st["max_index"], result[0])
        st["past_cap_calls"] += result[0] > PAST_CAP_INDEX


def _to_number_hook(st, args, result, tracer):
    st["bits"] += result.bit_length()


def _to_number_error(st, exc):
    st["refused"] += type(exc).__name__ == "CodeTooLargeError"


def _len_arg_hook(st, args, result, tracer):
    st["symbols"] += len(args[0])


def _len_result_hook(st, args, result, tracer):
    st["symbols"] += len(result)


def _decode_proof_hook(st, args, result, tracer):
    # steps a proof checker is given: only decodes made on check_proof's behalf
    if tracer.stack and tracer.stack[-1][2] == "logic.check_proof":
        tracer.stats["logic.check_proof"]["steps"] += len(result)


def _prov_hook(st, args, result, tracer):
    st["found"] += result is not None


# (module, function, group, counters, hook, error hook)
SPANS = [
    ("numeric", "fib", "numeric.fib", ("past_cap_calls",), _fib_hook, None),
    ("zeckendorf", "z_decode", "zeckendorf.z_decode", ("past_cap_calls", "max_index"), _z_decode_hook, None),
    ("seqcode", "to_number", "seqcode.to_number", ("bits", "refused"), _to_number_hook, _to_number_error),
    ("seqcode", "seq_encode", "seqcode.seq_encode", ("symbols",), _len_arg_hook, None),
    ("seqcode", "seq_decode", "seqcode.seq_decode", ("symbols",), _len_result_hook, None),
    ("syntax", "is_wff_code", "syntax.validate", (), None, None),
    ("syntax", "is_term_code", "syntax.validate", (), None, None),
    ("syntax", "parse", "syntax.parse", ("symbols",), _len_arg_hook, None),
    ("syntax", "numeral", "syntax.numeral", (), None, None),
    ("syntax", "flatten", "syntax.flatten", ("symbols",), _len_result_hook, None),
    ("syntax", "parse_text", "syntax.parse_text", (), None, None),
    ("syntax", "encode_syntax", "syntax.encode_syntax", (), None, None),
    ("syntax", "decode_syntax", "syntax.decode_syntax", (), None, None),
    ("syntax", "encode_proof", "syntax.encode_proof", (), None, None),
    ("syntax", "decode_proof", "syntax.decode_proof", (), _decode_proof_hook, None),
    ("substitution", "sub_z", "substitution.sub", (), None, None),
    ("substitution", "sub_free", "substitution.sub", (), None, None),
    ("substitution", "diag", "substitution.diag", (), None, None),
    ("substitution", "fixed_point", "substitution.fixed_point", (), None, None),
    ("logic", "check_proof", "logic.check_proof", ("steps",), None, None),
    ("logic", "is_axiom", "logic.is_axiom", (), None, None),
    ("logic", "prov_bounded", "logic.prov_bounded", ("found",), _prov_hook, None),
    ("logic", "check_structured_proof", "logic.check_structured_proof", (), None, None),
    ("logic", "godel_sentence", "logic.godel_sentence", (), None, None),
    ("primecode", "code_p", "primecode.code_p", (), None, None),
    ("primecode", "decode_p", "primecode.decode_p", (), None, None),
    ("cli", "main", "cli.main", (), None, None),
]
LEAVES = [
    ("numeric", "cantor_pair", "numeric.cantor"),
    ("numeric", "cantor_unpair", "numeric.cantor"),
]


class Tracer:
    def __init__(self):
        # frames: [child time in ns, span id, group]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.stats: dict[str, dict[str, int]] = {}
        self.op_id = 0
        self._next_id = 0
        self._bindings: list[tuple] | None = None
        # cost of one perf_counter_ns pair, taken off each sampled leaf time
        self.timer_ns = min(-perf_counter_ns() + perf_counter_ns() for _ in range(1000))
        for _, _, group, counters, _, _ in SPANS:
            self._group(group, counters)
        for _, _, group in LEAVES:
            self._group(group, ())
        self._group("op", ())

    def _group(self, group, counters):
        st = self.stats.setdefault(group, {"calls": 0, "self_ns": 0, "total_ns": 0, "errors": 0})
        for c in counters:
            st.setdefault(c, 0)
        return st

    def span(self, group, fn, hook=None, on_error=None):
        st = self.stats[group]
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0, span_id, group]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # counted, then re-raised unchanged
                st["errors"] += 1
                if on_error is not None:
                    on_error(st, exc)
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                st["calls"] += 1
                st["total_ns"] += duration
                st["self_ns"] += duration - frame[0]
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if len(spans) < MAX_SPANS:  # past the cap, counters still add up
                    spans.append((span_id, group, start, end, parent, self.op_id))
            if hook is not None:
                hook(st, args, result, self)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, group, fn):
        """Count every call; time every call on a big first argument, and one
        in LEAF_SAMPLE of the rest, scaled up.

        Timing each call of a leaf this hot would double the run it measures,
        and scaling up a rare bignum call would swamp its parent's self time.
        """
        st = self.stats[group]
        stack = self.stack
        timer_ns = self.timer_ns

        def sampled(*args):
            st["calls"] += 1
            small = args[0].bit_length() <= LEAF_SMALL_BITS
            if small and st["calls"] % LEAF_SAMPLE:
                return fn(*args)
            start = perf_counter_ns()
            result = fn(*args)
            duration = max(perf_counter_ns() - start - timer_ns, 0) * (LEAF_SAMPLE if small else 1)
            st["self_ns"] += duration
            st["total_ns"] += duration
            if stack:
                stack[-1][0] += duration
            return result

        sampled.__wrapped__ = fn
        return sampled

    def _find_bindings(self) -> list[tuple]:
        wrappers = {}
        for modname, attr, group, _, hook, on_error in SPANS:
            fn = getattr(importlib.import_module(f"zeckgodel.{modname}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self.span(group, fn, hook, on_error))
        for modname, attr, group in LEAVES:
            fn = getattr(importlib.import_module(f"zeckgodel.{modname}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self.leaf(group, fn))
        bindings = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "zeckgodel" or modname.startswith("zeckgodel.")):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((mod, name, value, hit[1]))
        return bindings

    def install(self) -> None:
        """Rebind every traced function in every loaded zeckgodel module."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._bindings or ():
            setattr(mod, name, original)

    def root(self, op_id: int, fn):
        """Run fn as the root span of one op."""
        self.op_id = op_id
        return self.span("op", fn)()

    def coverage(self) -> float:
        """Share of op root time spent inside traced library spans."""
        st = self.stats["op"]
        return 1 - st["self_ns"] / st["total_ns"] if st["total_ns"] else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for span_id, group, start, end, parent, op in self.spans:
                fh.write(f"{span_id}\t{group}\t{start}\t{end}\t{'' if parent is None else parent}\t{op}\n")
