"""Closed-form counting of balanced words by Parikh vector, with oracles.

Every balanced word with a zeros and b ones arises, for a unique coprime
pair (alpha, beta), as a length-(a+b) factor of the periodic repetition of
the lower Christoffel word of slope beta/alpha with minimal period
alpha+beta.  Summing the per-pair factor counts, split into light and
heavy height classes, gives the total.

The coprime pairs of the two sums are the fractions of two short slope
intervals, walked in increasing order as consecutive Farey fractions of
bounded denominator by ``christoffel._farey_walk``; no pair is tested with
gcd.  Each walked fraction's successor gives the pair's inverses mod
alpha+beta by the inverse rule ``christoffel._successor_inverse``, and
each term's height sums reduce to one closed-form floor sum,
O(log(alpha+beta)).  A count sums the terms along the walk.

All arithmetic is exact: floors and ceilings of beta*k/(alpha+beta) are
integer divisions, and fractions are compared by cross-multiplication.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .christoffel import _farey_walk, _successor_inverse, period_inverses


class CountTerm(NamedTuple):
    alpha: int
    beta: int
    kind: str  # "heavy" | "light"
    n_value: int
    h_value: int
    contribution: int


# CountTerm._make without its Python frame and length check, for rows built in a loop.
_count_term = partial(tuple.__new__, CountTerm)


class CountReport(NamedTuple):
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


def _floor_sum(count: int, m: int, p: int, q: int) -> int:
    """Sum of (p*i + q) // m over 0 <= i < count, for count, p, q >= 0 and m >= 1.

    Euclid-style reduction in O(log m) steps: take the whole multiples of m
    out of p and q, then count the lattice points under the line with the
    roles of m and p swapped.
    """
    total = 0
    while True:
        if p >= m:
            total += count * (count - 1) // 2 * (p // m)
            p %= m
        if q >= m:
            total += count * (q // m)
            q %= m
        top = p * count + q
        if top < m:
            return total
        count, q = divmod(top, m)
        m, p = p, m


def _term(alpha: int, beta: int, alpha_inv: int, beta_inv: int, n: int) -> tuple[int, int]:
    """(N, H) of a coprime pair with n >= m = alpha+beta, given its inverses mod m.

    Below the periodic regime H is a height sum: the summed floor and
    ceiling heights of the qualifying factors minus floor(n*beta/m) per
    factor.  Each is one floor sum G(c) = sum of beta*k // m over k < c.
    With beta coprime to m, ceil(beta*k/m) = beta*k // m + 1 except at the
    multiples of m, and every run length c here is at most m, so a ceiling
    sum is G(c) + c - 1.  As beta*alpha' = -1 and beta*beta' = 1 (mod m),
    heights shifted by alpha' or beta' are ceiling or floor heights plus a
    constant.
    """
    m = alpha + beta
    hi = alpha_inv if alpha_inv > beta_inv else beta_inv
    if n >= m + hi:
        return m, n * beta % m
    floor_n = beta * n // m
    if n < 2 * m - hi:  # m + min(alpha', beta'), as alpha' + beta' = m
        # ceil heights over k = m..n plus floor heights over k = 0..n-m
        span = n - m + 1
        s = span * (beta + 1) + 2 * _floor_sum(span, m, beta, 0) - 1
        return 2 * span, 2 * (s - floor_n * span)
    nn = n - hi + 1
    s = 2 * _floor_sum(nn, m, beta, 0)
    if beta_inv < alpha_inv:
        # floor heights over k = alpha'..n plus ceil heights over k = 0..n-alpha'
        s += nn * ((beta * alpha_inv + 1) // m + 1) - 2
    else:
        # ceil heights over k = beta'..n plus floor heights over k = 0..n-beta'
        s += nn * ((beta * beta_inv - 1) // m + 1)
    return nn, s - floor_n * nn


def _period_term(alpha: int, beta: int, n: int) -> tuple[int, int]:
    """(N, H): the length-n factors of minimal period alpha+beta and the heavy ones."""
    if alpha < 1 or beta < 1 or n < 0:
        raise ValueError("need alpha,beta >= 1 and n >= 0")
    if gcd(alpha, beta) > 1 or n < alpha + beta:
        return 0, 0
    return _term(alpha, beta, *period_inverses(alpha, beta), n)


def count_period_factors(alpha: int, beta: int, n: int) -> int:
    """Number of length-n factors of the periodic word of slope beta/alpha
    whose minimal period is exactly alpha+beta.

    Zero unless the pair is coprime and n reaches a full period; then
    controlled by the inverses alpha', beta' of alpha, beta mod alpha+beta:
    2(n-alpha-beta+1) below alpha+beta+min(alpha',beta'), then
    n-max(alpha',beta')+1 up to alpha+beta+max(alpha',beta'), then the
    full count alpha+beta.
    """
    return _period_term(alpha, beta, n)[0]


def count_heavy_factors(alpha: int, beta: int, n: int) -> int:
    """Number of heavy length-n factors of minimal period alpha+beta.

    Outside the periodic regime the count is a height sum: total heights
    of the qualifying factors minus floor(sigma*n) per factor, where
    sigma = beta/(alpha+beta).  The summation limits depend on where
    n-alpha-beta falls relative to the inverses alpha', beta'; the sums of
    floor and ceiling heights reduce to one closed-form floor sum,
    O(log(alpha+beta)).  For large n the count stabilizes at
    n*beta mod (alpha+beta).
    """
    return _period_term(alpha, beta, n)[1]


def walk_terms(a: int, b: int):
    """Yield (alpha, beta, alpha', beta', kind) for every term of the (a, b) count.

    Heavy terms are the fractions beta/alpha with alpha <= a in
    ((b-1)/(a+1), b/a], light terms the fractions alpha/beta with beta <= b
    in ((a-1)/(b+1), a/b]; needs a, b >= 1.  Each interval is walked by
    ``christoffel._farey_walk``, which yields exactly the coprime pairs,
    each with its successor r/s, and ``christoffel._successor_inverse``
    reads p's inverse mod p+q off that successor; alpha' + beta' = alpha + beta.
    """
    for p, q, r, s in _farey_walk(a, b - 1, a + 1, b, a):
        inv = _successor_inverse(p, q, r, s)
        yield q, p, p + q - inv, inv, "heavy"
    for p, q, r, s in _farey_walk(b, a - 1, b + 1, a, b):
        inv = _successor_inverse(p, q, r, s)
        yield p, q, inv, p + q - inv, "light"


def count_balanced_report(a: int, b: int) -> CountReport:
    """Balanced-word count for Parikh vector (a, b) with its term breakdown.

    Heavy terms come first, each kind ordered by alpha, then beta.  Within a
    kind beta never falls as alpha rises, so this is also the order by beta.
    The rows are built as plain tuples (alpha, beta, kind, N, H,
    contribution), sorted and summed as such, and wrapped as ``CountTerm``
    at the end.  A row starts with alpha, beta, and no pair repeats within
    a kind, so each kind's plain tuple sort is that order.
    """
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    if a == 0 or b == 0:
        return CountReport(a, b, (), 1)
    n = a + b
    heavy, light = [], []
    for alpha, beta, alpha_inv, beta_inv, kind in walk_terms(a, b):
        nv, hv = _term(alpha, beta, alpha_inv, beta_inv, n)
        if kind == "heavy":
            heavy.append((alpha, beta, kind, nv, hv, hv))
        else:
            light.append((alpha, beta, kind, nv, hv, nv - hv))
    heavy.sort()
    light.sort()
    rows = heavy + light  # field 5 of a row is its contribution
    return CountReport(a, b, tuple(map(_count_term, rows)), sum(map(itemgetter(5), rows)))


def count_balanced(a: int, b: int) -> int:
    """Number of balanced words with a zeros and b ones; 1 when either is 0.

    Sums the terms along the walk without building a report.
    """
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    if a == 0 or b == 0:
        return 1
    n = a + b
    total = 0
    for alpha, beta, alpha_inv, beta_inv, kind in walk_terms(a, b):
        nv, hv = _term(alpha, beta, alpha_inv, beta_inv, n)
        total += hv if kind == "heavy" else nv - hv
    return total


def brute_balanced_words(a: int, b: int) -> list[str]:
    """Oracle for enumerate_balanced: all balanced words with Parikh vector (a, b), sorted.

    Breadth-first pass over word lengths that never consults the term list.
    Each word of a level carries lo and hi, where lo[k-1] and hi[k-1] are
    the least and greatest ones-counts of its length-k factors.  Appending
    a letter adds one new factor of each length, a suffix; one walk back
    through the word gives their ones-counts, and the extension is dropped
    as soon as some length spreads by more than one.  Dropping unbalanced prefixes
    is complete because balance is a factorial property, and each sorted
    level is extended by 0 before 1, so every level stays sorted.
    """
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    # lo and hi are two lists of ints rather than one list of (lo, hi)
    # tuples: each new tuple is one more object that the cyclic garbage
    # collector tracks, so a tuple per length per word sets off gen-0
    # collections that the int lists do not.
    level: list[tuple[str, list[int], list[int]]] = [("", [], [])]
    for m in range(a + b):
        grown = []
        for x, lo, hi in level:
            ones = hi[-1] if m else 0  # the one length-m factor is x itself
            for c, h, room in (("0", 0, m - ones < a), ("1", 1, ones < b)):
                if not room:
                    continue
                # h runs over the ones-counts of the suffixes of x + c.
                new_lo, new_hi = [], []
                for letter, l, u in zip(reversed(x), lo, hi):
                    if h < u - 1 or h > l + 1:
                        break
                    new_lo.append(l if l < h else h)
                    new_hi.append(u if u > h else h)
                    h += letter == "1"
                else:
                    new_lo.append(h)
                    new_hi.append(h)
                    grown.append((x + c, new_lo, new_hi))
        level = grown
    return [x for x, _, _ in level]


def brute_count_balanced(a: int, b: int, cap: int = 20) -> int:
    """Oracle for count_balanced via full enumeration; refuses a+b > cap."""
    if a + b > cap:
        raise ValueError(f"a+b={a + b} exceeds the enumeration cap {cap}")
    return len(brute_balanced_words(a, b))
