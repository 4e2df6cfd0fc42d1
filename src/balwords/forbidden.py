"""Minimal forbidden words of the balanced language, and the minimal
almost-balanced words.

Swapping the first and last letters of a non-primitive Christoffel word
(one boundary letter of each kind) produces exactly the words that are
unbalanced while all their proper factors are balanced.  Restricting the
source to squares gives the minimal almost-balanced words, which also
arise as u^2 v^2 over standard factorizations, read off the Christoffel
tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .christoffel import _christoffel_tree, lower_christoffel
from .words import parikh, reversal


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
    length n whose endpoints use both letters (a, b >= 1, gcd > 1); each
    upper word is the reversal of its lower one.
    """
    if n < 2:
        raise ValueError("minimal forbidden words have length >= 2")
    out = []
    for a in range(1, n):
        b = n - a
        if gcd(a, b) == 1:
            continue
        lower = lower_christoffel(a, b)
        for source in (lower, reversal(lower)):
            out.append(MFWord(_swap_ends(source), source, (source[0], source[-1])))
    dedup = {m.word: m for m in out}
    return [dedup[w] for w in sorted(dedup)]


def is_minimal_forbidden(w: str) -> bool:
    """Whether w is unbalanced while all its proper factors are balanced.

    This reads ``enumerate_mf`` backwards.  Swapping the end letters keeps
    the Parikh vector (a, b), so w is minimal forbidden iff its ends differ
    (then a, b >= 1), gcd(a, b) > 1, and the swapped word is the lower
    Christoffel word of (a, b) or its reversal.
    """
    if not w:
        raise ValueError("empty word cannot be minimal forbidden")
    a, b = parikh(w)
    if w[0] == w[-1] or gcd(a, b) == 1:
        return False
    lower = lower_christoffel(a, b)
    return _swap_ends(w) in (lower, reversal(lower))


def enumerate_mab(max_len: int) -> list[str]:
    """All minimal almost-balanced words of length <= max_len, sorted.

    Generated as u^2 v^2 and its reversal over the standard factorization
    u v of each primitive lower Christoffel word with both letters and
    |uv| <= max_len // 2, read off the walk of the Christoffel tree.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = set()
    for u, v in _christoffel_tree(max_len // 2):
        w = u + u + v + v
        out.add(w)
        out.add(w[::-1])
    return sorted(out)
