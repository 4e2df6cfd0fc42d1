"""Closed-form counting of balanced words by Parikh vector, with oracles.

Every balanced word with a zeros and b ones arises, for a unique coprime
pair (alpha, beta), as a length-(a+b) factor of the periodic repetition of
the lower Christoffel word of slope beta/alpha with minimal period
alpha+beta.  Summing the per-pair factor counts, split into light and
heavy height classes, gives the total.

All arithmetic is exact: floors and ceilings of beta*k/(alpha+beta) are
integer divisions, and range bounds are compared by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .christoffel import period_inverses


@dataclass(frozen=True)
class CountTerm:
    alpha: int
    beta: int
    kind: str  # "heavy" | "light"
    n_value: int
    h_value: int
    contribution: int


@dataclass(frozen=True)
class CountReport:
    """Audit decomposition of the balanced-word count for one Parikh vector."""

    a: int
    b: int
    terms: tuple[CountTerm, ...]
    total: int

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "terms": [
                {
                    "alpha": t.alpha,
                    "beta": t.beta,
                    "kind": t.kind,
                    "N": t.n_value,
                    "H": t.h_value,
                    "contribution": t.contribution,
                }
                for t in self.terms
            ],
            "total": self.total,
        }


def prefix_height_lower(alpha: int, beta: int, k: int) -> int:
    """Ones in the length-k prefix of the repeated lower Christoffel word."""
    if k < 0:
        raise ValueError("prefix length must be >= 0")
    return beta * k // (alpha + beta)


def prefix_height_upper(alpha: int, beta: int, k: int) -> int:
    """Ones in the length-k prefix of the repeated upper Christoffel word."""
    if k < 0:
        raise ValueError("prefix length must be >= 0")
    return -((-beta * k) // (alpha + beta))


def count_period_factors(alpha: int, beta: int, n: int) -> int:
    """Number of length-n factors of the periodic word of slope beta/alpha
    whose minimal period is exactly alpha+beta.

    Zero unless the pair is coprime and n reaches a full period; then
    controlled by the inverses alpha', beta' of alpha, beta mod alpha+beta:
    2(n-alpha-beta+1) below alpha+beta+min(alpha',beta'), then
    n-max(alpha',beta')+1 up to alpha+beta+max(alpha',beta'), then the
    full count alpha+beta.
    """
    if alpha < 1 or beta < 1 or n < 0:
        raise ValueError("need alpha,beta >= 1 and n >= 0")
    m = alpha + beta
    if gcd(alpha, beta) > 1 or n < m:
        return 0
    ai, bi = period_inverses(alpha, beta)
    if n < m + min(ai, bi):
        return 2 * (n - m + 1)
    if n < m + max(ai, bi):
        return n - max(ai, bi) + 1
    return m


def count_heavy_occurrences(alpha: int, beta: int, n: int) -> int:
    """Occurrences of heavy length-n factors in any window of alpha+beta+n-1
    consecutive letters of the periodic word: n*beta mod (alpha+beta)."""
    if gcd(alpha, beta) != 1:
        raise ValueError(f"({alpha},{beta}) must be coprime")
    if n < 0:
        raise ValueError("n must be >= 0")
    return n * beta % (alpha + beta)


def count_heavy_factors(alpha: int, beta: int, n: int) -> int:
    """Number of heavy length-n factors of minimal period alpha+beta.

    Outside the periodic regime the count is a height sum: total heights
    of the qualifying factors minus floor(sigma*n) per factor, where
    sigma = beta/(alpha+beta).  The summation limits depend on where
    n-alpha-beta falls relative to the inverses alpha', beta'; for large n
    the count stabilizes at n*beta mod (alpha+beta).
    """
    nn = count_period_factors(alpha, beta, n)
    if nn == 0:
        return 0
    m = alpha + beta
    ai, bi = period_inverses(alpha, beta)

    def fl(k: int) -> int:
        return beta * k // m

    def ce(k: int) -> int:
        return -((-beta * k) // m)

    if n < m + min(ai, bi):
        s = sum(ce(n - i) + fl(i) for i in range(n - m + 1))
        return 2 * s - fl(n) * nn
    if m + bi <= n < m + ai:
        s = sum(fl(n - i) + ce(i) for i in range(n - ai + 1))
        return s - fl(n) * nn
    if m + ai <= n < m + bi:
        s = sum(ce(n - i) + fl(i) for i in range(n - bi + 1))
        return s - fl(n) * nn
    return n * beta % m


def term_ranges(a: int, b: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Coprime index pairs of the two sums: heavy terms over alpha, light over beta.

    Heavy: 1 <= alpha <= a and (b-1)*alpha/(a+1) < beta <= b*alpha/a.
    Light: 1 <= beta <= b and (a-1)*beta/(b+1) < alpha <= a*beta/b.
    Bounds are evaluated on integers (strict left, inclusive right).  Pairs
    with a common factor have no factor of minimal period alpha+beta, so
    they are left out; needs a, b >= 1.
    """
    heavy = []
    for alpha in range(1, a + 1):
        lo = (b - 1) * alpha // (a + 1) + 1
        hi = b * alpha // a
        heavy.extend((alpha, beta) for beta in range(lo, hi + 1) if gcd(alpha, beta) == 1)
    light = []
    for beta in range(1, b + 1):
        lo = (a - 1) * beta // (b + 1) + 1
        hi = a * beta // b
        light.extend((alpha, beta) for alpha in range(lo, hi + 1) if gcd(alpha, beta) == 1)
    return heavy, light


def count_balanced_report(a: int, b: int) -> CountReport:
    """Balanced-word count for Parikh vector (a, b) with its term breakdown."""
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    if a == 0 or b == 0:
        return CountReport(a, b, (), 1)
    n = a + b
    heavy, light = term_ranges(a, b)
    terms = []
    for alpha, beta in heavy:
        nv, hv = count_period_factors(alpha, beta, n), count_heavy_factors(alpha, beta, n)
        terms.append(CountTerm(alpha, beta, "heavy", nv, hv, hv))
    for alpha, beta in light:
        nv, hv = count_period_factors(alpha, beta, n), count_heavy_factors(alpha, beta, n)
        terms.append(CountTerm(alpha, beta, "light", nv, hv, nv - hv))
    return CountReport(a, b, tuple(terms), sum(t.contribution for t in terms))


def count_balanced(a: int, b: int) -> int:
    """Number of balanced words with a zeros and b ones; 1 when either is 0."""
    return count_balanced_report(a, b).total


def brute_balanced_words(a: int, b: int) -> list[str]:
    """Oracle for enumerate_balanced: all balanced words with Parikh vector (a, b), sorted.

    Depth-first search over extensions that never consults the term list;
    a prefix that is not balanced is pruned, which is complete because
    balance is a factorial property.  The running min/max ones-count per
    factor length is updated incrementally with the appended letter and
    undone on backtrack.
    """
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    n = a + b
    ones = [0] * (n + 1)
    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    word: list[str] = []
    out: list[str] = []

    def push(c: str) -> list[tuple[int, int, int]] | None:
        m = len(word) + 1
        ones[m] = ones[m - 1] + (c == "1")
        word.append(c)
        journal: list[tuple[int, int, int]] = []
        for k in range(1, m + 1):
            h = ones[m] - ones[m - k]
            if k == m:
                journal.append((k, lo[k], hi[k]))
                lo[k] = hi[k] = h
            elif h < hi[k] - 1 or h > lo[k] + 1:
                undo(journal)
                return None
            elif h < lo[k]:
                journal.append((k, lo[k], hi[k]))
                lo[k] = h
            elif h > hi[k]:
                journal.append((k, lo[k], hi[k]))
                hi[k] = h
        return journal

    def undo(journal: list[tuple[int, int, int]]) -> None:
        word.pop()
        for k, l, h in reversed(journal):
            lo[k], hi[k] = l, h

    def walk(zeros_used: int, ones_used: int) -> None:
        if len(word) == n:
            out.append("".join(word))
            return
        for c in "01":
            if c == "0" and zeros_used == a:
                continue
            if c == "1" and ones_used == b:
                continue
            journal = push(c)
            if journal is None:
                continue
            walk(zeros_used + (c == "0"), ones_used + (c == "1"))
            undo(journal)

    walk(0, 0)
    return out


def brute_count_balanced(a: int, b: int, cap: int = 20) -> int:
    """Oracle for count_balanced via full enumeration; refuses a+b > cap."""
    if a + b > cap:
        raise ValueError(f"a+b={a + b} exceeds the enumeration cap {cap}")
    return len(brute_balanced_words(a, b))
