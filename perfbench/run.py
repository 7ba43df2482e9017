"""Layered benchmark for zeckgodel.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload proof_wall --seed 1 --seconds 20 --trace 0

It builds nothing: the library is imported from ./src.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans recorded around the library's layer functions.  See
README.md in this directory for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9
SETUP_LIMIT_S = 15.0  # per set-up process
OP_LIMIT_S = 60.0  # an op running longer is cut off and counted as failed
RUN_LIMIT_S = 150.0  # from process start: no op starts, and none runs on, past this

# per-layer metrics: (group, counter, unit); values are per traced ladder pass
PER_LAYER_COUNTERS = [
    ("numeric.fib", "calls", "count"),
    ("numeric.fib", "past_cap_calls", "count"),
    ("numeric.fib", "self_s", "s"),
    ("zeckendorf.z_decode", "calls", "count"),
    ("zeckendorf.z_decode", "past_cap_calls", "count"),
    ("zeckendorf.z_decode", "max_index", "index"),
    ("zeckendorf.z_decode", "self_s", "s"),
    ("seqcode.to_number", "calls", "count"),
    ("seqcode.to_number", "bits", "bit"),
    ("seqcode.to_number", "refused", "count"),
    ("seqcode.to_number", "self_s", "s"),
    ("numeric.cantor", "calls", "count"),
    ("numeric.cantor", "self_s", "s"),
    ("seqcode.seq_encode", "symbols", "count"),
    ("seqcode.seq_encode", "self_s", "s"),
    ("seqcode.seq_decode", "symbols", "count"),
    ("seqcode.seq_decode", "self_s", "s"),
    ("syntax.validate", "calls", "count"),
    ("syntax.validate", "self_s", "s"),
    ("syntax.parse", "symbols", "count"),
    ("syntax.parse", "self_s", "s"),
    ("syntax.numeral", "self_s", "s"),
    ("substitution.sub", "calls", "count"),
    ("substitution.sub", "self_s", "s"),
    ("substitution.fixed_point", "self_s", "s"),
    ("syntax.flatten", "symbols", "count"),
    ("syntax.flatten", "self_s", "s"),
    ("logic.check_proof", "calls", "count"),
    ("logic.check_proof", "steps", "count"),
    ("logic.check_proof", "self_s", "s"),
    ("logic.is_axiom", "calls", "count"),
    ("logic.is_axiom", "self_s", "s"),
    ("logic.prov_bounded", "self_s", "s"),
    ("cli.main", "self_s", "s"),
    ("syntax.parse_text", "self_s", "s"),
    ("primecode.code_p", "self_s", "s"),
    ("primecode.decode_p", "self_s", "s"),
]
ERROR_GROUPS = [
    "numeric.fib", "zeckendorf.z_decode", "seqcode.to_number", "seqcode.seq_encode",
    "seqcode.seq_decode", "syntax.validate", "syntax.parse", "syntax.numeral", "syntax.flatten",
    "syntax.parse_text", "syntax.decode_proof", "substitution.sub", "substitution.fixed_point",
    "logic.check_proof", "logic.is_axiom", "logic.prov_bounded", "logic.check_structured_proof",
    "cli.main", "primecode.code_p", "primecode.decode_p",
]
class Cutoff(BaseException):
    """Raised by the op timer; a BaseException so library catch-alls let it through."""


def _on_alarm(signum, frame):
    raise Cutoff()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict[str, list[float]]] = []  # per pass: rung -> latencies
        self.total_s = 0.0  # time of every attempted op, failed ones too
        self.op_s = 0.0  # in-process time that tracing can change
        self.overhead_ms: list[float] = []
        self.failures: dict[str, int] = defaultdict(int)

    def fail(self, rung: str, why: str) -> None:
        self.failed += 1
        self.failures[f"{rung}: {why}"] += 1


class Runner:
    def __init__(self, workload, run_end: float, tracer=None):
        self.wl = workload
        self.run_end = run_end
        self.tracer = tracer
        self.op_id = 0
        if workload.main_argv is not None:
            from zeckgodel import cli
            self.cli = cli

    def _timed(self, rung, item, traced: bool):
        """Run one op; returns (step results, error, seconds up to the end or the failure)."""
        limit = min(OP_LIMIT_S, self.run_end - time.perf_counter())
        if limit <= 0:
            return None, "cut off by the run limit", 0.0
        done = []
        error = None
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            for step in rung.steps:
                if self.wl.main_argv is not None:
                    done.append(step(item, done, limit))
                else:
                    done.append(self._in_process(lambda: step(item, done), traced))
        except (Cutoff, subprocess.TimeoutExpired):
            error = "cut off by the op limit"
        except Exception as exc:  # the op failed; counted, and the run goes on
            error = type(exc).__name__
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return done, error, seconds

    def _in_process(self, call, traced: bool):
        if not traced:
            return call()
        self.tracer.install()
        try:
            return self.tracer.root(self.op_id, call)
        finally:
            self.tracer.uninstall()

    def _main(self, item, traced: bool) -> float:
        """cli.main on the op's argv, in this process; returns its seconds."""
        argv = self.wl.main_argv(item)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            self._in_process(lambda: self.cli.main(argv), traced)
            return time.perf_counter() - start

    def run_pass(self, index: int, tally: Tally | None, traced: bool = False) -> bool:
        """One pass over the ladder; returns False if any op failed unexpectedly.

        Only ops that returned the known answer feed the latency samples, so
        an op that fails fast cannot make a rung look faster.  Every op's time
        counts towards ops/s.
        """
        correct = True
        this_pass: dict[str, list[float]] = defaultdict(list)
        for rung in self.wl.rungs:
            for r in range(rung.repeat):
                item = rung.items[(index * rung.repeat + r) % len(rung.items)]
                self.op_id += 1
                done, error, seconds = self._timed(rung, item, traced)
                if error is None and not rung.check(item, done):
                    error = "wrong answer"
                if error is not None and error != rung.known_failure:
                    correct = False
                inproc = seconds
                if self.wl.main_argv is not None and self.tracer is not None and error is None:
                    inproc = self._main(item, traced)
                    if tally is not None:
                        tally.overhead_ms.append((seconds - inproc) * 1e3)
                if tally is None:
                    continue
                tally.attempted += 1
                tally.total_s += seconds
                tally.op_s += inproc
                if error is None:
                    this_pass[rung.name].append(seconds)
                else:
                    tally.fail(rung.name, error)
        if tally is not None:
            tally.passes.append(this_pass)
        return correct


def _slope(points: list[tuple[float, float]]) -> float:
    xs, ys = zip(*points)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _growth(workload, tally: Tally) -> float:
    """Median over passes of the log-log slope of each pass's rung medians.

    Fitting within a pass, a few seconds long, keeps a slow drift in machine
    speed from tilting the fit.
    """
    sized = [r for r in workload.rungs if r.size is not None]
    slopes = [_slope([(math.log(r.size), math.log(statistics.median(p[r.name]))) for r in sized])
              for p in tally.passes if all(p[r.name] for r in sized)]
    return statistics.median(slopes) if slopes else 0.0  # no complete pass: the run is not correct


def _p50_ms(rung: str, tally: Tally) -> float:
    """Median time of the rung's successful ops over all timed passes."""
    ops = [s for p in tally.passes for s in p[rung]]
    return 1e3 * statistics.median(ops) if ops else 0.0  # none: the run is not correct


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that import zeckgodel and build the inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
                               "--workload", args.workload, "--seed", str(args.seed)],
                              capture_output=True, timeout=SETUP_LIMIT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit("set-up process failed")
    return statistics.median(samples)


def _layer_metrics(tracer, traced: Tally, untraced: Tally, passes: int) -> dict:
    metrics = {}
    for group, counter, unit in PER_LAYER_COUNTERS:
        st = tracer.stats[group]
        if counter == "self_s":
            value = st["self_ns"] / 1e9 / passes
        elif counter == "max_index":
            value = st[counter]
        else:
            value = st[counter] / passes
        metrics[f"{group}.{counter}"] = (value, unit)
    for group in ERROR_GROUPS:
        metrics[f"{group}.errors"] = (tracer.stats[group]["errors"] / passes, "count")
    prov = tracer.stats["logic.prov_bounded"]
    metrics["logic.prov_bounded.found_ratio"] = (
        prov["found"] / prov["calls"] if prov["calls"] else 0.0, "ratio")
    overhead = untraced.overhead_ms
    metrics["cli.process_overhead_ms"] = (statistics.median(overhead) if overhead else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (traced.op_s / untraced.op_s, "ratio")
    metrics["trace.root_coverage"] = (tracer.coverage(), "ratio")
    return metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zeckgodel", "__init__.py")):
        print(f"perfbench: no zeckgodel sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.set_int_max_str_digits(0)  # proof literals in Z[...] form exceed the default

    from workloads import OUT_DIR, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import zeckgodel
    if os.path.commonpath([os.path.abspath(zeckgodel.__file__), src]) != src:
        print(f"perfbench: imported zeckgodel from {zeckgodel.__file__}, not {src}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, root)
        return 0

    setup_s = _setup_seconds(args)
    workload = make(args.seed, root)
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    # A fixed number of passes, from --seconds and the workload's nominal pass
    # time alone; a traced run does half as many, each untraced and traced.
    passes = max(1, round(args.seconds / workload.pass_s / (2 if args.trace else 1)))
    runner = Runner(workload, started + RUN_LIMIT_S, tracer)
    correct = runner.run_pass(0, None)  # warm-up: caches fill, answers are still checked
    untraced, traced = Tally(), Tally()
    timed_start = time.perf_counter()
    for index in range(1, passes + 1):
        correct &= runner.run_pass(index, untraced)
        if args.trace:
            correct &= runner.run_pass(index, traced, traced=True)
    print(f"perfbench: {passes} passes in {time.perf_counter() - timed_start:.1f} s", file=sys.stderr)

    for label, tally in (("", untraced), ("traced ", traced)):
        for why, count in sorted(tally.failures.items()):
            print(f"perfbench: {count} x {label}{why}", file=sys.stderr)
    if args.trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        tracer.write(os.path.join(root, OUT_DIR, f"spans_{args.workload}_{args.seed}.tsv"))
        tally = traced
        metrics = _layer_metrics(tracer, traced, untraced, passes)
        if metrics["trace.root_coverage"][0] < 0.95:
            print("perfbench: spans cover less than 95% of op time", file=sys.stderr)
    else:
        tally = untraced
        who = resource.RUSAGE_CHILDREN if workload.main_argv is not None else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (tally.attempted / tally.total_s, "1/s"),
            "top_rung_ms_p50": (_p50_ms(workload.top, tally), "ms"),
            "bottom_rung_ms_p50": (_p50_ms(workload.bottom, tally), "ms"),
            "growth_exponent": (_growth(workload, tally), "1"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
