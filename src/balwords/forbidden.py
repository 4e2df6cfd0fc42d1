"""Minimal forbidden words of the balanced language, and the minimal
almost-balanced words.

Swapping the first and last letters of a non-primitive Christoffel word
(one boundary letter of each kind) produces exactly the words that are
unbalanced while all their proper factors are balanced.  Restricting the
source to squares gives the minimal almost-balanced words, which also
arise as u^2 v^2 over standard factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .balance import is_balanced
from .christoffel import (
    lower_christoffel,
    standard_factorization,
    upper_christoffel,
)
from .words import reversal


@dataclass(frozen=True)
class MFWord:
    """A minimal forbidden word together with the Christoffel word it was made from."""

    word: str
    source: str
    swap: tuple[str, str]  # (first, last) letters of the source


def _swap_ends(source: str) -> str:
    return source[-1] + source[1:-1] + source[0]


def enumerate_mf(n: int) -> list[MFWord]:
    """All minimal forbidden words of length n, sorted by word.

    Sources are the non-primitive lower and upper Christoffel words of
    length n whose endpoints use both letters (a, b >= 1, gcd > 1).
    """
    if n < 2:
        raise ValueError("minimal forbidden words have length >= 2")
    out = []
    for a in range(1, n):
        b = n - a
        if gcd(a, b) == 1:
            continue
        for source in (lower_christoffel(a, b), upper_christoffel(a, b)):
            out.append(MFWord(_swap_ends(source), source, (source[0], source[-1])))
    dedup = {m.word: m for m in out}
    return [dedup[w] for w in sorted(dedup)]


def is_minimal_forbidden(w: str) -> bool:
    """Whether w is unbalanced while both maximal proper factors are balanced.

    Checking the prefix and the suffix suffices because balance is a
    factorial property.
    """
    if not w:
        raise ValueError("empty word cannot be minimal forbidden")
    return not is_balanced(w) and is_balanced(w[:-1]) and is_balanced(w[1:])


def enumerate_mab(max_len: int) -> list[str]:
    """All minimal almost-balanced words of length <= max_len, sorted.

    Generated as u^2 v^2 and its reversal over the standard factorization
    u v of each primitive lower Christoffel word.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = set()
    for m in range(2, max_len // 2 + 1):
        for a in range(1, m):
            b = m - a
            if gcd(a, b) != 1:
                continue
            f = standard_factorization(a, b)
            w = f.left * 2 + f.right * 2
            out.add(w)
            out.add(reversal(w))
    return sorted(out)
