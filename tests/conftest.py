"""Shared brute-force oracles and word generators for the test suite.

The oracles here deliberately re-derive everything from first principles
(definition-level scans, full enumeration) so they stay independent of
the implementations they check.  The window and factor oracles for the
counting formulas build on lower_christoffel, whose own oracle is
lower_christoffel_arithmetic.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from balwords.balance import ImbalanceWitness
from balwords.christoffel import lower_christoffel, upper_christoffel
from balwords.counting import prefix_height_upper
from balwords.forbidden import enumerate_mab, enumerate_mf
from balwords.words import is_lyndon, smallest_period


def all_words(max_len: int, min_len: int = 0):
    """Every binary word with min_len <= |w| <= max_len, shortest first."""
    for n in range(min_len, max_len + 1):
        if n == 0:
            yield ""
            continue
        for bits in range(1 << n):
            yield format(bits, f"0{n}b")


def naive_is_balanced(w: str) -> bool:
    """Definition-level balance check comparing all equal-length factors."""
    n = len(w)
    for k in range(1, n + 1):
        counts = {w[i : i + k].count("1") for i in range(n - k + 1)}
        if max(counts) - min(counts) > 1:
            return False
    return True


def naive_smallest_period(w: str) -> int:
    """Letter-by-letter period scan."""
    n = len(w)
    for p in range(1, n + 1):
        if all(w[i] == w[i + p] for i in range(n - p)):
            return p
    raise AssertionError("unreachable")


def naive_is_prefix_normal(w: str) -> bool:
    n = len(w)
    for k in range(1, n + 1):
        prefix_zeros = w[:k].count("0")
        if any(w[i : i + k].count("0") > prefix_zeros for i in range(n - k + 1)):
            return False
    return True


def is_conjugate_of_reversal(w: str) -> bool:
    r = w[::-1]
    return any(w[i:] + w[:i] == r for i in range(len(w)))


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def complement(w: str) -> str:
    return w.translate(str.maketrans("01", "10"))


def naive_unbalance_witness(w: str) -> ImbalanceWitness | None:
    """The shortest palindrome v with both 0v0 and 1v1 in w, if any.

    Tries every length of v from 0 up; ties break on the leftmost 0v0
    occurrence, then the leftmost 1v1 occurrence.  Positions are 1-based.
    """
    n = len(w)
    for length in range(0, n - 1):
        first: tuple[dict[str, int], dict[str, int]] = ({}, {})
        for i in range(n - length - 1):
            x, y = w[i], w[i + length + 1]
            if x != y:
                continue
            v = w[i + 1 : i + length + 1]
            if v != v[::-1]:
                continue
            seen = first[int(x)]
            if v not in seen:
                seen[v] = i
        common = set(first[0]) & set(first[1])
        if common:
            v = min(common, key=lambda s: (first[0][s], first[1][s]))
            return ImbalanceWitness(v, first[0][v] + 1, first[1][v] + 1)
    return None


def words_with_parikh(a: int, b: int) -> list[str]:
    """Every word with a zeros and b ones, in lexicographic order."""
    n = a + b
    out = []
    for positions in combinations(range(n), b):
        letters = ["0"] * n
        for i in positions:
            letters[i] = "1"
        out.append("".join(letters))
    return sorted(out)


def max_balanced_lyndon(a: int, b: int) -> str:
    """Lexicographically greatest Lyndon word with Parikh vector (a, b).

    Brute force over all words with that Parikh vector; kept deliberately
    independent of the Christoffel construction it is compared against.
    """
    if gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) must be coprime")
    best = None
    for w in words_with_parikh(a, b):
        if is_lyndon(w) and (best is None or w > best):
            best = w
    assert best is not None
    return best


def lower_christoffel_arithmetic(a: int, b: int) -> str:
    """Primitive lower Christoffel word via the sorted-multiples construction.

    Sort the positive multiples of a and of b below a*b, write '1' for each
    multiple of a and '0' for each multiple of b, then bracket with a
    leading '0' and a trailing '1'.
    """
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) must be coprime and positive")
    marks = sorted(range(a, a * b, a)) + sorted(range(b, a * b, b))
    letters = sorted((m, "1" if m % a == 0 else "0") for m in marks)
    return "0" + "".join(c for _, c in letters) + "1"


def periodic_window(alpha: int, beta: int, length: int, offset: int = 0) -> str:
    """A window of the infinite repetition of the lower Christoffel word."""
    w = lower_christoffel(alpha, beta)
    reps = (offset + length) // len(w) + 2
    return (w * reps)[offset : offset + length]


def brute_period_factors(alpha: int, beta: int, n: int) -> set[str]:
    """Oracle for count_period_factors by direct window enumeration."""
    if alpha < 1 or beta < 1 or n < 0:
        raise ValueError("need alpha,beta >= 1 and n >= 0")
    if n == 0:
        return set()
    m = alpha + beta
    window = periodic_window(alpha, beta, n + 2 * m)
    return {
        window[i : i + n]
        for i in range(len(window) - n + 1)
        if smallest_period(window[i : i + n]) == m
    }


def brute_heavy_factors(alpha: int, beta: int, n: int) -> set[str]:
    """Oracle for count_heavy_factors: the period factors with the larger
    ones-count, when two counts occur."""
    if gcd(alpha, beta) != 1:
        raise ValueError(f"({alpha},{beta}) must be coprime")
    m = alpha + beta
    if beta * n % m == 0:
        return set()
    heavy_ones = prefix_height_upper(alpha, beta, n)
    return {u for u in brute_period_factors(alpha, beta, n) if u.count("1") == heavy_ones}


def enumerate_mab_from_squares(max_len: int) -> list[str]:
    """Alternative generator: end-swapped squares of primitive Christoffel words."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = set()
    for m in range(2, max_len // 2 + 1):
        for a in range(1, m):
            b = m - a
            if gcd(a, b) != 1:
                continue
            for root in (lower_christoffel(a, b), upper_christoffel(a, b)):
                square = root * 2
                out.add(square[-1] + square[1:-1] + square[0])
    return sorted(out)


def mab_subset_check(max_len: int) -> bool:
    """Whether every minimal almost-balanced word up to max_len is minimal forbidden."""
    mab = enumerate_mab(max_len) if max_len >= 2 else []
    by_len: dict[int, set[str]] = {}
    for w in mab:
        by_len.setdefault(len(w), set()).add(w)
    for n, group in by_len.items():
        mf = {m.word for m in enumerate_mf(n)}
        if not group <= mf:
            return False
    return True
