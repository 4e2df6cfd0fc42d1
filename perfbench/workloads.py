"""The benchmark's workloads: seeded rounds of operations, each with its own check.

A workload builds one round of operations from a seeded generator.  The
benchmark runs whole rounds until its time is used, so every run sees the same
mix of sizes.  Densities, rotations, flip positions and sizes are drawn by
stratum, and the stratum rotates with the round.  That keeps the cost of a run
nearly independent of the seed.

Each operation's check runs outside its timed call and compares the answer
with ``oracles``, which never imports the package.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import oracles as O
from balwords import balance, christoffel, cli, counting, farey, forbidden, words

ENUM_CAP = 26  # the CLI's size cap for enumerations (README)
ORACLE_CAP = 20  # the CLI's cap for count --oracle (README)


@dataclass
class Op:
    """One timed call into the package, named like its span: ``layer.function``."""

    name: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    fit: bool = False  # its time enters the scaling fit of `name`
    big: bool = False  # it counts toward first_result_ms
    stream: bool = False  # its result is a sequence whose first item is usable alone


@dataclass
class Workload:
    name: str
    make_round: Callable[[random.Random, int, bool], list[Op]]
    run_checks: Callable[[random.Random, bool], list[tuple[str, Callable[[], bool]]]] = (
        lambda rng, small: []
    )


def _stratified(rng: random.Random, rnd: int, j: int, lo: float, hi: float) -> float:
    """A value from stratum (rnd + j) mod 4 of [lo, hi)."""
    return lo + (hi - lo) * ((rnd + j) % 4 + rng.random()) / 4


def _split(n: int, d: float) -> tuple[int, int]:
    """(zeros, ones) of length n with ones-density about d and both letters at least twice."""
    b = min(max(round(n * d), 2), n - 2)
    return n - b, b


def conjugate_word(rng: random.Random, rnd: int, n: int, d: float) -> str:
    c = O.christoffel(*_split(n, d))
    r = int(_stratified(rng, rnd, 1, 0, n))
    return c[r:] + c[:r]


def prefix_word(rng: random.Random, rnd: int, n: int, d: float) -> str:
    m = int(_stratified(rng, rnd, 1, n + 1, 2 * n))
    return O.christoffel(*_split(m, d))[:n]


def flip_word(rng: random.Random, rnd: int, w: str) -> str:
    i = int(_stratified(rng, rnd, 3, 1, len(w) - 1))
    return w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]


class Facts:
    """Reference answers for one word.  Unflipped words are balanced by construction,
    conjugates circularly balanced and prefixes prefix normal."""

    def __init__(self, w: str, kind: str):
        self.w, self.kind = w, kind

    @cached_property
    def imbalance(self) -> int | None:
        return None if self.kind in ("conj", "pref") else O.imbalance_length(self.w)

    @property
    def balanced(self) -> bool:
        return self.imbalance is None

    @cached_property
    def prefix_normal(self) -> bool:
        return self.kind == "pref" or O.is_prefix_normal(self.w)

    @cached_property
    def circular(self) -> bool:
        return self.kind == "conj" or O.is_circularly_balanced(self.w)

    @cached_property
    def minimal_forbidden(self) -> bool:
        w = self.w
        return not self.balanced and O.is_balanced(w[:-1]) and O.is_balanced(w[1:])

    def witness_ok(self, found) -> bool:
        """`found` is None or has the fields v, pos0 and pos1 of an imbalance witness."""
        if found is None:
            return self.balanced
        return O.witness_ok(self.w, found.v, found.pos0, found.pos1)


def _seeded_words(rng: random.Random, rnd: int, n: int) -> list[Facts]:
    """Two Christoffel conjugates/prefixes and the same kinds with one letter flipped."""
    out = []
    for j, (kind, make) in enumerate((("conj", conjugate_word), ("pref", prefix_word)) * 2):
        w = ""
        while "0" not in w or "1" not in w:  # in_digital_bar needs both letters
            w = make(rng, rnd + j, n, _stratified(rng, rnd, j, 0.15, 0.85))
            if j >= 2:
                w = flip_word(rng, rnd + j, w)
        out.append(Facts(w, kind + "-flip" * (j >= 2)))
    return out


# -- check-long ---------------------------------------------------------------

LONG_LADDER = (128, 256, 512, 1024)
CIRCULAR_LADDER = (32, 64, 128)  # the circular scan is cubic; longer rungs would swamp the round


def _circular_op(f: Facts, n: int) -> Op:
    return Op("balance.is_circularly_balanced", n, lambda: balance.is_circularly_balanced(f.w),
              lambda r: r == f.circular, fit=f.kind == "conj")


def _check_ops(f: Facts, n: int, top: int) -> list[Op]:
    w, full = f.w, f.kind in ("conj", "pref")
    ops = [
        Op("balance.is_balanced", n, lambda: balance.is_balanced(w), lambda r: r == f.balanced, fit=full),
        Op("balance.unbalance_witness", n, lambda: balance.unbalance_witness(w), f.witness_ok, fit=full),
        Op("balance.is_prefix_normal", n, lambda: balance.is_prefix_normal(w),
           lambda r: r == f.prefix_normal, fit=f.kind == "pref"),
        Op("farey.is_plc", n, lambda: farey.is_plc(w), lambda r: r == CHECKS["plc"](f)),
        Op("christoffel.is_central", n, lambda: christoffel.is_central(w), lambda r: r == O.is_central(w)),
        Op("words.is_lyndon", n, lambda: words.is_lyndon(w), lambda r: r == O.is_lyndon(w)),
        Op("forbidden.is_minimal_forbidden", n, lambda: forbidden.is_minimal_forbidden(w),
           lambda r: r == f.minimal_forbidden),
        Op("balance.in_digital_bar", n, lambda: balance.in_digital_bar(w), lambda r: r == O.in_bar(w)),
    ]
    for op in ops:
        op.big = op.fit and n == top
    return ops


def check_long_round(rng: random.Random, rnd: int, small: bool) -> list[Op]:
    ladder, circular = ((32, 64), (8, 16)) if small else (LONG_LADDER, CIRCULAR_LADDER)
    ops = []
    for n in ladder:
        for f in _seeded_words(rng, rnd, n):
            ops += _check_ops(f, n, ladder[-1])
    for n in circular:
        ops += [_circular_op(f, n) for f in _seeded_words(rng, rnd, n)]
    return ops


# -- count-ladder -------------------------------------------------------------

COUNT_LADDER = (10, 20, 40, 80, 160, 320, 640, 1280, 2560)
COUNT_FIT_FROM = 320  # below this, per-call overhead hides the formula's growth


def _count_check(a: int, b: int, mirror: bool) -> Callable[[object], bool]:
    """Brute force up to the oracle cap.  Above it, the complement symmetry
    count(a, b) = count(b, a), which Mignosi's total cannot see: a term moved
    between the heavy and the light sum cancels over a+b = n."""

    def check(report) -> bool:
        terms_ok = all(0 <= t.h_value <= t.n_value <= t.alpha + t.beta for t in report.terms)
        if report.total != sum(t.contribution for t in report.terms) or not terms_ok:
            return False
        if a + b <= ORACLE_CAP:
            return report.total == len(O.balanced_words(a, b))
        return not mirror or counting.count_balanced(b, a) == report.total

    return check


def count_ladder_round(rng: random.Random, rnd: int, small: bool) -> list[Op]:
    ladder = COUNT_LADDER[:5] if small else COUNT_LADDER
    ops = []
    for n in ladder:
        for j in range(2):
            a, b = _split(n, _stratified(rng, rnd, j, 0.1, 0.45))
            if (rnd + j) % 2:
                a, b = b, a
            ops.append(Op("counting.count_balanced_report", n,
                          lambda a=a, b=b: counting.count_balanced_report(a, b),
                          _count_check(a, b, mirror=n < ladder[-1]), fit=n >= COUNT_FIT_FROM or small,
                          big=n == ladder[-1]))
    return ops


def count_ladder_checks(rng: random.Random, small: bool):
    n = rng.randrange(30, 40) if small else rng.randrange(100, 200)

    def mignosi_and_mirror() -> bool:
        counts = [counting.count_balanced(a, n - a) for a in range(n + 1)]
        return sum(counts) == O.mignosi_total(n) and counts == counts[::-1]

    return [(f"mignosi-{n}", mignosi_and_mirror)]


# -- enum-sweep ---------------------------------------------------------------

BALANCED_LADDER = (12, 24, 48)
PLC_LADDER = (10, 20, 40)
FAREY_N = 32
MF_SIZES = (64, 128, 256)
MAB_SIZES = (32, 64, 128)


def _balanced_check(rng: random.Random, a: int, b: int) -> Callable[[list], bool]:
    def check(found: list) -> bool:
        if a + b <= ORACLE_CAP:
            return found == list(O.balanced_words(a, b))
        ordered = all(u < v for u, v in zip(found, found[1:]))
        parikh_ok = all(w.count("1") == b and len(w) == a + b for w in found)
        sample = rng.sample(found, min(8, len(found)))
        return (ordered and parikh_ok and all(map(O.is_balanced, sample))
                and len(found) == counting.count_balanced(a, b))

    return check


def _plc_entries_ok(n: int, entries: list) -> bool:
    if [e.word for e in entries] != list(O.plc_words(n)) or len(entries) != O.farey_size(n):
        return False
    for e in entries:
        a, b = e.root.count("0"), e.root.count("1")
        if gcd(a, b) != 1 or e.root != O.christoffel(a, b) or e.fraction != Fraction(b, a + b):
            return False
        if not (e.root * (n // len(e.root) + 1)).startswith(e.word):
            return False
    return True


def _farey_check(n: int) -> Callable[[list], bool]:
    def check(pairs: list) -> bool:
        fractions = [(f.numerator, f.denominator) for _, f in pairs]
        return fractions == O.farey(n) and _plc_entries_ok(n, [e for e, _ in pairs])

    return check


def _mf_check(rng: random.Random, n: int) -> Callable[[list], bool]:
    def check(found: list) -> bool:
        words_ = [m.word for m in found]
        if words_ != sorted(set(words_)) or sum(w[0] == "0" for w in words_) != O.mf_zero_census(n):
            return False
        for m in found:
            a, b = m.source.count("0"), m.source.count("1")
            if gcd(a, b) == 1 or m.word != O.swap_ends(m.source):
                return False
            if m.source not in (O.christoffel(a, b), O.christoffel(a, b)[::-1]):
                return False
        return all(O.is_minimal_forbidden(m.word) for m in rng.sample(found, min(2, len(found))))

    return check


def enum_sweep_round(rng: random.Random, rnd: int, small: bool) -> list[Op]:
    scale, rungs = (2, 2) if small else (1, 3)
    ops = []
    for i, n in enumerate(BALANCED_LADDER[:rungs]):
        a, b = _split(n, _stratified(rng, rnd, i, 0.2, 0.45))
        if (rnd + i) % 2:
            a, b = b, a
        ops.append(Op("balance.enumerate_balanced", n, lambda a=a, b=b: balance.enumerate_balanced(a, b),
                      _balanced_check(rng, a, b), fit=True, big=n > ENUM_CAP, stream=True))
    for n in PLC_LADDER[:rungs]:
        ops.append(Op("farey.enumerate_plc", n, lambda n=n: farey.enumerate_plc(n),
                      lambda r, n=n: _plc_entries_ok(n, r), fit=True, big=n > ENUM_CAP, stream=True))
    n = FAREY_N // scale
    ops.append(Op("farey.plc_farey_bijection", n, lambda n=n: farey.plc_farey_bijection(n),
                  _farey_check(n), big=n > ENUM_CAP, stream=True))
    for size in MF_SIZES:
        n = size // scale
        ops.append(Op("forbidden.enumerate_mf", n, lambda n=n: forbidden.enumerate_mf(n),
                      _mf_check(rng, n), big=True, stream=True))
    for size in MAB_SIZES:
        n = size // scale
        ops.append(Op("forbidden.enumerate_mab", n, lambda n=n: forbidden.enumerate_mab(n),
                      lambda r, n=n: r == list(O.mab_words(n)), big=True, stream=True))
    return ops


# -- cli-mix ------------------------------------------------------------------


@dataclass
class CliResult:
    code: int | None
    out: str
    err: str
    first_at: float | None


class _Capture(io.StringIO):
    """Standard output that notes when the first text arrives."""

    first_at: float | None = None

    def write(self, s: str) -> int:
        if self.first_at is None:
            self.first_at = perf_counter()
        return super().write(s)


def run_cli(argv: list[str]) -> CliResult:
    out, err = _Capture(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue(), out.first_at)


def _expect(code: int, output: Callable[[str], bool]) -> Callable[[CliResult], bool]:
    return lambda r: r.code == code and output(r.out.rstrip("\n"))


def _split_lines(s: str) -> list[str]:
    return s.split("\n") if s else []


def _lines(expected) -> Callable[[str], bool]:
    return lambda s: _split_lines(s) == list(expected)


def _json_list(expected) -> Callable[[str], bool]:
    return lambda s: json.loads(s) == list(expected)


def _cycle(options, k: int):
    return options[k % len(options)]


def _req_gen(rng: random.Random, k: int):
    kind = _cycle(["lower", "upper", "central", "matrix"], k)
    top = 16 if kind == "matrix" else 30
    a, b = rng.randint(1, top), rng.randint(1, top)
    while kind == "central" and gcd(a, b) != 1:
        b += 1
    c = O.christoffel(a, b)
    js = k // 4 % 3 == 0
    argv = ["gen", kind, str(a), str(b)] + ["--json"] * js
    if kind == "matrix":
        rows = sorted(c[i:] + c[:i] for i in range(len(c)))
        ok = (lambda s: json.loads(s)["rows"] == rows) if js else _lines(rows)
        return argv, _expect(0, ok)
    word = {"lower": c, "upper": c[::-1], "central": c[1:-1]}[kind]
    return argv, _expect(0, (lambda s: json.loads(s)["word"] == word) if js else (lambda s: s == word))


CHECKS = {
    "balanced": lambda f: f.balanced,
    "circular": lambda f: f.circular,
    "prefix-normal": lambda f: f.prefix_normal,
    "plc": lambda f: f.balanced and f.prefix_normal,  # the prefixes of Christoffel words
    "central": lambda f: O.is_central(f.w),
    "lyndon": lambda f: O.is_lyndon(f.w),
    "mf": lambda f: f.minimal_forbidden,
    "in-bar": lambda f: O.in_bar(f.w),
}


def _req_check(rng: random.Random, k: int):
    prop = _cycle(sorted(CHECKS), k)
    f = _seeded_words(rng, k, int(_stratified(rng, k // 8, 0, 8, 49)))[k // 8 % 4]
    holds = CHECKS[prop](f)
    js = k // 8 % 3 == 0

    def ok(r: CliResult) -> bool:
        if r.code != (0 if holds else 1):
            return False
        if not js:
            return r.out.startswith(f"{prop}: {'yes' if holds else 'no'}")
        payload = json.loads(r.out)
        witness = payload["witness"]
        if prop == "balanced" and witness is not None:
            return f.witness_ok(SimpleNamespace(**witness))
        return payload["holds"] is holds

    return ["check", prop, f.w] + ["--json"] * js, ok


def _req_count(rng: random.Random, k: int):
    a = rng.randint(1, ORACLE_CAP - 1)
    b = rng.randint(1, ORACLE_CAP - a)
    total = len(O.balanced_words(a, b))
    flag = _cycle(["", "--json", "--audit", "--oracle"], k)
    argv = ["count", str(a), str(b)] + [flag] * bool(flag)
    if flag == "--oracle":
        return argv, _expect(0, lambda s: s == f"formula={total} oracle={total} ok")
    if flag:
        return argv, _expect(0, lambda s: json.loads(s)["total"] == total
                             == sum(t["contribution"] for t in json.loads(s)["terms"]))
    return argv, _expect(0, lambda s: s == str(total))


def _mf_listing_ok(n: int, found: list[str]) -> bool:
    return (found == sorted(set(found)) and sum(w[0] == "0" for w in found) == O.mf_zero_census(n)
            and all(map(O.is_minimal_forbidden, found)))


def _req_enum(rng: random.Random, k: int):
    family = _cycle(["balanced", "plc", "mf", "mab", "farey"], k)
    js = k // 5 % 3 == 0
    n = 4 + k // 5 * 7 % (ENUM_CAP - 3)  # every size 4..26 in turn, so each run has the same heavy tail
    if family == "balanced":
        a = rng.randint(1, min(n, 18) - 1)
        args, expected = [str(a), str(min(n, 18) - a)], O.balanced_words(a, min(n, 18) - a)
    else:
        args = [str(n)]
        expected = {"plc": O.plc_words, "mab": O.mab_words}.get(family, lambda n: None)(n)
    argv = ["enum", family, *args] + ["--json"] * js
    if family == "mf":
        if js:
            return argv, _expect(0, lambda s: _mf_listing_ok(n, [m["word"] for m in json.loads(s)]))
        return argv, _expect(0, lambda s: _mf_listing_ok(n, _split_lines(s)))
    if family == "farey":
        words_, fractions = O.plc_words(n), [f"{p}/{q}" for p, q in O.farey(n)]
        if js:
            return argv, _expect(0, lambda s: [(e["word"], e["fraction"]) for e in json.loads(s)]
                                 == list(zip(words_, fractions)))
        return argv, _expect(0, _lines(f"{w}  {f}" for w, f in zip(words_, fractions)))
    return argv, _expect(0, _json_list(expected) if js else _lines(expected))


def _req_render(rng: random.Random, k: int):
    f = _seeded_words(rng, k, int(_stratified(rng, k // 4, 0, 6, 41)))[k // 4 % 4]
    w, zeros, ones = f.w, f.w.count("0"), f.w.count("1")
    svg, bar = k % 2 == 1, k // 2 % 2 == 1
    argv = ["render", w] + ["--bar"] * bar
    if not svg:
        return argv, _expect(0, lambda s: s.count("_") == zeros and s.count("|") == ones)
    segment = k // 4 % 2 == 1
    argv += ["--format", "svg", "--cell-size", str(rng.randint(4, 24))] + ["--segment"] * segment

    def ok(s: str) -> bool:
        path = s.split("<polyline")[-1]
        return (s.startswith("<svg") and s.endswith("</svg>")
                and s.count("<polyline") == 1 + 2 * bar
                and ("stroke-dasharray" in s) == segment
                and path.count(",") == len(w) + 1)

    return argv, _expect(0, ok)


def _req_invalid(rng: random.Random, k: int):
    """Inputs the README makes exit 2.  The (0,0) edges are left out on purpose:
    today `count 0 0` exits 0 while `enum balanced 0 0` exits 2, and that domain
    rule is not settled yet."""
    bad_word = "".join(rng.choice("01") for _ in range(rng.randint(3, 12))) + rng.choice("2ab ")
    over = str(rng.randint(ENUM_CAP + 1, ENUM_CAP + 8))
    a = rng.randint(ORACLE_CAP // 2 + 1, ORACLE_CAP)
    argv = _cycle([
        ["check", rng.choice(sorted(CHECKS)), bad_word],
        ["render", bad_word],
        ["enum", rng.choice(["plc", "mf", "mab", "farey"]), over],
        ["enum", "balanced", over, "1"],
        ["count", str(a), str(ORACLE_CAP + 1 - a + rng.randint(0, 8)), "--oracle"],
    ], k)
    return argv, lambda r: r.code == 2 and r.out == "" and r.err.startswith("error:")


# Requests per round of each kind; kinds, flags and size strata cycle with the
# request's running index, so every round has the same composition.
CLI_MIX = ((_req_gen, 8), (_req_check, 16), (_req_count, 8), (_req_enum, 10), (_req_render, 8), (_req_invalid, 5))


def cli_mix_round(rng: random.Random, rnd: int, small: bool) -> list[Op]:
    ops = []
    for make, count in CLI_MIX:
        count = count // 4 if small else count
        for i in range(count):
            argv, check = make(rng, rnd * count + i)
            ops.append(Op("cli.main", len(argv), lambda argv=argv: run_cli(argv), check, big=argv[0] == "enum"))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "check-long": Workload("check-long", check_long_round),
    "count-ladder": Workload("count-ladder", count_ladder_round, count_ladder_checks),
    "enum-sweep": Workload("enum-sweep", enum_sweep_round),
    "cli-mix": Workload("cli-mix", cli_mix_round),
}
