"""Benchmark for balwords: one closed-loop client driving the package in process.

    python3 perfbench/run.py --workload check-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
client sends the next operation only after the previous one returned, from one
thread.  Every answer is checked outside its timed call.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it runs the same
rounds untraced and then traced, and reports the per-layer metrics.  The last
line of standard output is the JSON result; the line before it is a report
with the run's metadata and details (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import islice
from math import log
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
LAYERS = ["words", "christoffel", "balance", "counting", "farey", "forbidden", "render", "cli"]
EXPONENTS = [
    "balance.is_balanced",
    "balance.unbalance_witness",
    "balance.is_circularly_balanced",
    "balance.is_prefix_normal",
    "counting.count_balanced_report",
    "balance.enumerate_balanced",
    "farey.enumerate_plc",
]
SETUP_RUNS = 7
SETUP_ARGV = ["-m", "balwords", "gen", "lower", "1", "1"]
TAIL_BEYOND = 10
WALL_FACTOR = 4  # stop starting rounds once checks and calls have taken this many times --seconds
CAL_EVERY_S = 0.05
CAL_REF_S = 0.5e-3  # the calibration kernel's time at the reference speed
WRONG = object()  # the answer --inject-fault substitutes, which no check accepts


def load_package():
    init = SRC / "balwords" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of a balwords checkout")
    sys.path.insert(0, str(SRC))
    import balwords

    return balwords


def _calibration_kernel() -> int:
    """Fixed pure-Python work: window sums over a prefix-sum table, as the scans do."""
    h = [0]
    for c in "0010010100101" * 16:
        h.append(h[-1] + (c == "1"))
    s = 0
    for k in range(1, 40):
        for i in range(len(h) - k):
            s += h[i + k] - h[i]
    return s


class Clock:
    """Scales measured times to a fixed reference speed.

    A shared host changes speed by tens of percent over seconds, and such a
    change moves every timing alike.  The calibration kernel, timed at most
    CAL_EVERY_S before a measurement, gives the current speed; a measured time
    is multiplied by CAL_REF_S over the kernel's time.  The kernel is the
    benchmark's own code, so a change to the package cannot move it.
    """

    def __init__(self) -> None:
        self.factor = 1.0
        self.at = float("-inf")

    def scale(self) -> float:
        if perf_counter() - self.at > CAL_EVERY_S:
            times = []
            for _ in range(3):
                t0 = perf_counter()
                _calibration_kernel()
                times.append(perf_counter() - t0)
            self.factor = CAL_REF_S / statistics.median(times)
            self.at = perf_counter()
        return self.factor


@dataclass
class Record:
    name: str
    size: int
    seconds: float
    first_s: float
    big: bool
    fit: bool


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    @property
    def busy(self) -> float:
        return sum(r.seconds for r in self.records)


def execute(op, out: Pass, clock: Clock, tracer, inject: bool) -> None:
    out.attempted += 1
    before = clock.scale()
    t0 = perf_counter()
    try:
        result = op.call()
        if op.stream:
            items = iter(result)
            head = list(islice(items, 1))
            t_first = perf_counter()
            result = head + list(items)
        t_end = perf_counter()
    except Exception as exc:  # an unexpected exception is a failed operation
        out.fail(f"{op.name}({op.size}) raised {exc!r}")
        return
    first_at = t_first if op.stream else getattr(result, "first_at", None) or t_end
    scale = (before + clock.scale()) / 2
    out.records.append(Record(op.name, op.size, (t_end - t0) * scale, (first_at - t0) * scale, op.big, op.fit))
    if inject:
        result = WRONG
    try:
        if tracer is not None:
            with tracer.pause():
                ok = op.check(result)
        else:
            ok = op.check(result)
    except Exception as exc:
        ok, why = False, f"check raised {exc!r}"
    else:
        why = "wrong answer"
    if not ok:
        out.fail(f"{op.name}({op.size}): {why}")


def run_round(workload, seed: int, rnd: int, small: bool, inject: bool, out: Pass, clock: Clock,
              tracer=None) -> None:
    rng = random.Random(f"{workload.name}:{seed}:{rnd}")
    for i, op in enumerate(workload.make_round(rng, rnd, small)):
        execute(op, out, clock, tracer, inject and i == 0)
    out.rounds += 1


def measure(workload, seed: int, seconds: float, small: bool, inject: bool,
            tracer=None) -> tuple[Pass, Pass]:
    """Whole rounds until the untraced calls have used `seconds`.

    With a tracer, each round runs again traced right after its untraced run,
    so both see the same inputs and the same machine conditions.
    """
    plain, traced, clock = Pass(), Pass(), Clock()
    wall0 = perf_counter()
    while not plain.rounds or (plain.busy < seconds and perf_counter() - wall0 < WALL_FACTOR * seconds):
        rnd = plain.rounds
        run_round(workload, seed, rnd, small, inject, plain, clock)
        if tracer is not None:
            tracer.install()
            try:
                run_round(workload, seed, rnd, small, inject, traced, clock, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def run_checks(workload, seed: int, small: bool, out: Pass) -> None:
    """Identities checked once per run; each counts as one attempted operation."""
    for name, check in workload.run_checks(random.Random(f"{workload.name}:{seed}:checks"), small):
        out.attempted += 1
        try:
            ok = check()
        except Exception as exc:
            ok, name = False, f"{name} raised {exc!r}"
        if not ok:
            out.fail(f"identity {name} failed")


def setup_seconds(out: Pass) -> float:
    """Median wall time of a cold `python -m balwords gen lower 1 1`, at the reference speed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    clock, times = Clock(), []
    for _ in range(SETUP_RUNS):
        out.attempted += 1
        clock.at = float("-inf")
        before = clock.scale()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - t0
        clock.at = float("-inf")
        times.append(elapsed * (before + clock.scale()) / 2)
        if proc.returncode != 0 or proc.stdout != "01\n":
            out.fail(f"cold {' '.join(SETUP_ARGV)} exited {proc.returncode}: {proc.stderr[-200:]!r}")
    return statistics.median(times)


def end_to_end(workload, run: Pass, setup_s: float) -> tuple[dict, dict]:
    times = sorted(r.seconds for r in run.records)
    first = [r.first_s for r in run.records if r.big]
    beyond = min(TAIL_BEYOND, len(times) - 1)
    tail = times[-1 - beyond]  # the highest percentile with TAIL_BEYOND samples beyond it
    metrics = {
        "ops_per_s": (len(times) / run.busy, "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "first_result_ms": (statistics.median(first) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    details = {
        "samples": len(times),
        "tail_percentile": 100 * (len(times) - beyond) / len(times),
        "tail_samples_beyond": beyond,
        "first_result_samples": len(first),
    }
    return metrics, details


def exponent(records: list[Record], name: str) -> float:
    """Least-squares slope of log(median time) against log(size) over the rungs of `name`."""
    by_size: dict[int, list[float]] = {}
    for r in records:
        if r.fit and r.name == name:
            by_size.setdefault(r.size, []).append(r.seconds)
    if len(by_size) < 2:
        return 0.0  # not on this workload's ladder
    xs = [log(n) for n in by_size]
    ys = [log(statistics.median(t)) for t in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(tracer, untraced: Pass, traced: Pass) -> dict:
    rounds = traced.rounds
    calls, self_s = tracer.layer_totals()
    to_reference = traced.busy / sum(self_s.values())  # spans hold measured seconds
    c = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / rounds, "count/round")
        metrics[f"{layer}.self_s"] = (self_s[layer] * to_reference / rounds, "s/round")
        metrics[f"{layer}.errors"] = (c[layer, "errors"] / rounds, "count/round")
    for name, layer, key, unit in [
        ("balance.letters_in", "balance", "letters_in", "letters/round"),
        ("balance.words_out", "balance", "items_out", "words/round"),
        ("words.letters_in", "words", "letters_in", "letters/round"),
        ("christoffel.letters_out", "christoffel", "letters_out", "letters/round"),
        ("counting.terms", "counting", "terms", "terms/round"),
        ("farey.entries_out", "farey", "items_out", "entries/round"),
        ("forbidden.words_out", "forbidden", "items_out", "words/round"),
        ("render.bytes_out", "render", "letters_out", "bytes/round"),
    ]:
        metrics[name] = (c[layer, key] / rounds, unit)
    terms = c["counting", "terms"]
    metrics["counting.live_term_ratio"] = (c["counting", "live_terms"] / terms if terms else 0.0, "ratio")
    for name in EXPONENTS:
        metrics[f"{name}.exp"] = (exponent(untraced.records, name), "exponent")
    metrics["trace.overhead_frac"] = ((traced.busy - untraced.busy) / untraced.busy, "frac")
    return metrics


def metadata(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "balwords").glob("*.py")))
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_balwords_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="replace the first answer of each round with a wrong one")
    args = parser.parse_args(argv)

    package = load_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    opts = dict(seed=args.seed, small=args.small, inject=args.inject_fault)

    meta = metadata(args.seed)
    if args.trace:
        tracer = Tracer(package, LAYERS)
        untraced, traced = measure(workload, seconds=args.seconds / 2, tracer=tracer, **opts)
        metrics = per_layer(tracer, untraced, traced)
        tracer.write(TRACE_DIR / f"trace-{workload.name}.jsonl", {"workload": workload.name, **meta})
        passes, details = [untraced, traced], {"rounds": untraced.rounds, "spans": len(tracer.span_name)}
    else:
        run, _ = measure(workload, seconds=args.seconds, **opts)
        run_checks(workload, args.seed, args.small, run)
        metrics, details = end_to_end(workload, run, setup_seconds(run))
        passes, details["rounds"] = [run], run.rounds

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures][:5]
    report = {"workload": workload.name, "trace": args.trace, "failed_frac": failed / attempted,
              "failures": failures, **details, "meta": meta}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
