"""Acceptance suite.

Each test exercises one advertised guarantee end to end, prints a single
PASS/FAIL line (visible with ``pytest -s``), and enforces the runtime
budget where one is stated.  Tolerances are exact everywhere: these are
integer and word identities, not approximations.
"""

from __future__ import annotations

import time
from math import gcd
from pathlib import Path

from conftest import (
    all_words,
    brute_heavy_factors,
    brute_period_factors,
    enumerate_mab_from_squares,
    euler_phi,
    lower_christoffel_arithmetic,
    max_balanced_lyndon,
    periodic_window,
)

from balwords.balance import (
    enumerate_balanced,
    in_digital_bar,
    is_balanced,
)
from balwords.christoffel import (
    christoffel_matrix,
    central_word,
    lower_christoffel,
    palindromic_factorization,
    standard_factorization,
    upper_christoffel,
)
from balwords.counting import (
    brute_count_balanced,
    count_balanced,
    count_balanced_report,
    count_heavy_factors,
    count_heavy_occurrences,
    count_period_factors,
    prefix_height_lower,
    prefix_height_upper,
)
from balwords.farey import enumerate_plc, farey_sequence, plc_farey_bijection
from balwords.forbidden import (
    enumerate_mab,
    enumerate_mf,
    is_minimal_forbidden,
)
from balwords.words import is_lyndon, is_unbordered, parikh, smallest_period

GOLDEN = Path(__file__).parent / "golden"


def _finish(name: str, failures: list, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    ok = not failures
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"{name}: {len(failures)} failure(s), first: {failures[:3]}"
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_known_object_reproduction():
    started = time.perf_counter()
    failures = []
    if lower_christoffel(7, 4) != "00100100101":
        failures.append("lower(7,4)")
    if central_word(7, 4) != "010010010":
        failures.append("central(7,4)")
    std = standard_factorization(7, 4)
    if (std.left, std.right) != ("001", "00100101"):
        failures.append(("standard", std))
    pal = palindromic_factorization(7, 4)
    if (pal.left, pal.right) != ("00100100", "101"):
        failures.append(("palindromic", pal))
    expected_rows = (GOLDEN / "gen_matrix_7_4.txt").read_text().split()
    if list(christoffel_matrix(7, 4).rows) != expected_rows:
        failures.append("matrix(7,4)")
    if lower_christoffel_arithmetic(7, 4) != "00100100101":
        failures.append("arithmetic(7,4)")
    _finish("1 known-object reproduction", failures, started, budget=1.0)


def test_criterion_2_count_5_3_with_audit_terms():
    started = time.perf_counter()
    failures = []
    if count_balanced(5, 3) != 12:
        failures.append("count(5,3)")
    expected_words = (GOLDEN / "enum_balanced_5_3.txt").read_text().split()
    if enumerate_balanced(5, 3) != expected_words:
        failures.append("enumeration(5,3)")
    report = count_balanced_report(5, 3)
    got = {(t.alpha, t.beta, t.kind): (t.n_value, t.h_value, t.contribution) for t in report.terms}
    expected_terms = {
        (2, 1, "heavy"): (3, 2, 2),
        (5, 2, "heavy"): (4, 2, 2),
        (5, 3, "heavy"): (2, 0, 0),
        (3, 2, "light"): (5, 1, 4),
        (4, 3, "light"): (4, 2, 2),
        (5, 3, "light"): (2, 0, 2),
    }
    if got != expected_terms:
        failures.append(("audit terms", got))
    if report.total != 12:
        failures.append("audit total")
    _finish("2 audit expansion for (5,3)", failures, started, budget=1.0)


def test_criterion_3_closed_formula_equals_oracle():
    started = time.perf_counter()
    failures = []
    pairs = 0
    for a in range(1, 14):
        for b in range(1, 14):
            if a + b > 14:
                continue
            pairs += 1
            formula = count_balanced(a, b)
            oracle = brute_count_balanced(a, b)
            if formula != oracle:
                failures.append((a, b, formula, oracle))
    assert pairs == 91
    _finish("3 count formula vs enumeration (91 pairs)", failures, started, budget=60.0)


def test_criterion_4_period_and_heavy_factor_grids():
    started = time.perf_counter()
    failures = []
    for m in range(2, 13):
        for alpha in range(1, m):
            beta = m - alpha
            if gcd(alpha, beta) != 1:
                continue
            for n in range(0, 37):
                nv = count_period_factors(alpha, beta, n)
                hv = count_heavy_factors(alpha, beta, n)
                period_set = brute_period_factors(alpha, beta, n)
                heavy_set = brute_heavy_factors(alpha, beta, n)
                if nv != len(period_set):
                    failures.append(("N", alpha, beta, n, nv, len(period_set)))
                if hv != len(heavy_set):
                    failures.append(("H", alpha, beta, n, hv, len(heavy_set)))
                expected_occ = count_heavy_occurrences(alpha, beta, n)
                heavy = prefix_height_upper(alpha, beta, n)
                light = prefix_height_lower(alpha, beta, n)
                for offset in (0, 1, m):
                    window = periodic_window(alpha, beta, m + n - 1, offset) if m + n - 1 > 0 else ""
                    occ = sum(
                        1
                        for i in range(m)
                        if heavy != light and window[i : i + n].count("1") == heavy
                    )
                    if occ != expected_occ:
                        failures.append(("occ", alpha, beta, n, offset, occ, expected_occ))
    _finish("4 period/heavy factor count grid", failures, started, budget=60.0)


def test_criterion_5_minimal_forbidden_brute_force():
    started = time.perf_counter()
    failures = []
    for n in range(2, 19):
        brute = {w for w in all_words(n, min_len=n) if is_minimal_forbidden(w)}
        listed = {m.word for m in enumerate_mf(n)}
        if brute != listed:
            failures.append((n, len(brute), len(listed)))
    for n in range(2, 25):
        zero_start = [m.word for m in enumerate_mf(n) if m.word.startswith("0")]
        if len(zero_start) != n - euler_phi(n) - 1:
            failures.append(("count", n, len(zero_start)))
        for w in zero_start:
            if not is_lyndon(w):
                failures.append(("lyndon", w))
    _finish("5 minimal forbidden words vs brute force", failures, started, budget=120.0)


def test_criterion_6_minimal_almost_balanced():
    started = time.perf_counter()
    failures = []
    for max_len in range(4, 17):
        if enumerate_mab(max_len) != enumerate_mab_from_squares(max_len):
            failures.append(("generators", max_len))
    mab16 = set(enumerate_mab(16))
    if "000101" not in mab16:
        failures.append("000101 missing")
    if "000100101" in set(enumerate_mab(18)):
        failures.append("000100101 wrongly included")
    mf_by_len = {n: {m.word for m in enumerate_mf(n)} for n in range(4, 17, 2)}
    for w in mab16:
        if w not in mf_by_len[len(w)]:
            failures.append(("not minimal forbidden", w))
    _finish("6 minimal almost-balanced words", failures, started)


def test_criterion_7_farey_pairing():
    started = time.perf_counter()
    failures = []
    pairs = plc_farey_bijection(5)
    words = [e.word for e, _ in pairs]
    fracs = [f"{f.numerator}/{f.denominator}" for _, f in pairs]
    if words != (GOLDEN / "enum_plc_5.txt").read_text().split():
        failures.append("plc(5) listing")
    if fracs != ["0/1", "1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "1/1"]:
        failures.append("farey(5) listing")
    total = 1
    for n in range(1, 31):
        total += euler_phi(n)
        entries = enumerate_plc(n)
        if len(entries) != total:
            failures.append(("size", n, len(entries), total))
        fractions = [e.fraction for e in entries]
        if any(x >= y for x, y in zip(fractions, fractions[1:])):
            failures.append(("not increasing", n))
        if fractions != farey_sequence(n):
            failures.append(("mismatch", n))
    _finish("7 prefix/Farey order pairing", failures, started, budget=30.0)


def test_criterion_8_bar_containment_and_extremality():
    started = time.perf_counter()
    failures = []
    for a in range(0, 13):
        for b in range(0, 13):
            if a + b > 12 or (a == 0 and b == 0):
                continue
            listed = enumerate_balanced(a, b)
            if listed[0] != lower_christoffel(a, b):
                failures.append(("minimum", a, b))
            if a >= 1 and b >= 1:
                for w in listed:
                    if not in_digital_bar(w):
                        failures.append(("bar", w))
            if a >= 1 and b >= 1 and gcd(a, b) == 1:
                if max_balanced_lyndon(a, b) != lower_christoffel(a, b):
                    failures.append(("lyndon max", a, b))
    _finish("8 bar containment and extremal words", failures, started)


def test_criterion_9_structural_invariants():
    started = time.perf_counter()
    failures = []
    from balwords.christoffel import central_decompose, is_central, CentralPair

    for w in all_words(14, min_len=1):
        a, b = parikh(w)
        chris = gcd(a, b) == 1 and w in (lower_christoffel(a, b), upper_christoffel(a, b))
        if (is_balanced(w) and is_unbordered(w)) != chris:
            failures.append(("unbordered-balance", w))
    for w in all_words(14):
        if not is_central(w):
            continue
        parts = central_decompose(w)
        if isinstance(parts, CentralPair):
            if parts.p + "01" + parts.q != w or parts.q + "10" + parts.p != w:
                failures.append(("round-trip", w))
            if not (is_central(parts.p) and is_central(parts.q)):
                failures.append(("central parts", w))
    for n in range(2, 31):
        count = sum(
            1
            for a in range(1, n)
            if gcd(a, n - a) == 1
            and smallest_period(lower_christoffel(a, n - a)) == n
        )
        if count != euler_phi(n):
            failures.append(("census", n, count))
    _finish("9 structural word invariants", failures, started)
