"""Prefixes of lower Christoffel words and the Farey correspondence.

The prefixes of lower Christoffel words (PLC) are exactly the words that
are both balanced and prefix normal.  ``is_plc`` decides this in one pass:
w is PLC iff max h_i/i < min (h_i+1)/i over its prefix heights h_i, that
is iff some slope r has h_i = floor(i*r) for every prefix
(``balance.is_christoffel_prefix``).  The length-n ones, in lexicographic
order, are the length-n prefixes of the powers of the primitive lower
Christoffel words of the Farey fractions of order n, in increasing order
(Berstel, Lauve, Reutenauer, Saliola 2008); the word of p/q has root
ones(root)/|root| = p/q.  The enumeration builds them by walking the
Farey sequence through the Christoffel tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .balance import is_christoffel_prefix
from .words import smallest_period


@dataclass(frozen=True)
class PlcEntry:
    word: str
    root: str
    fraction: Fraction


def is_plc(w: str) -> bool:
    """Whether w is a prefix of some lower Christoffel word."""
    if not w:
        raise ValueError("the empty word is not classified")
    return is_christoffel_prefix(w)


def plc_root(v: str) -> str:
    """The primitive lower Christoffel word whose infinite power v prefixes.

    The length of any such word is a period of v, and the prefix of v whose
    length is the smallest period is already one, so it is the root.
    """
    if not is_plc(v):
        raise ValueError(f"{v!r} is not a prefix of a lower Christoffel word")
    return v[: smallest_period(v)]


def enumerate_plc(n: int) -> list[PlcEntry]:
    """All length-n prefixes of lower Christoffel words, in lexicographic order.

    Walks the Farey fractions of order n in increasing order through the
    Christoffel tree: the root of a mediant (p+r)/(q+s) of neighbours p/q
    and r/s is the concatenation of their roots, starting from '0' for 0/1
    and '1' for 1/1.  The stack holds the right neighbours still to come; a
    mediant whose denominator exceeds n is not in F_n, so the top is next.
    Each entry's word is the length-n prefix of its root repeated.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    out = [PlcEntry("0" * n, "0", Fraction(0))]
    left_p, left_q, left_root = 0, 1, "0"
    rights = [(1, 1, "1")]
    while rights:
        p, q, root = rights[-1]
        if left_q + q <= n:
            rights.append((left_p + p, left_q + q, left_root + root))
        else:
            left_p, left_q, left_root = rights.pop()
            out.append(PlcEntry((root * (n // q + 1))[:n], root, Fraction(p, q)))
    return out


def farey_sequence(n: int) -> list[Fraction]:
    """Reduced fractions a/b with 0 <= a <= b <= n, in increasing order.

    Walked from 0/1 and 1/n by the next-term recurrence: after consecutive
    p/q < r/s comes (k*r - p)/(k*s - q) with k = (n + q) // s.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    out = [Fraction(0), Fraction(1, n)]
    p, q, r, s = 0, 1, 1, n
    while r < s:
        k = (n + q) // s
        p, q, r, s = r, s, k * r - p, k * s - q
        out.append(Fraction(r, s))
    return out


def plc_farey_bijection(n: int) -> list[tuple[PlcEntry, Fraction]]:
    """Pair the i-th length-n prefix word with the i-th Farey fraction.

    The positional pairing must agree with the primitive-root fraction of
    every entry; disagreement is an internal error.
    """
    entries = enumerate_plc(n)
    fractions = farey_sequence(n)
    if len(entries) != len(fractions):
        raise RuntimeError(
            f"size mismatch at n={n}: {len(entries)} words vs {len(fractions)} fractions"
        )
    for entry, frac in zip(entries, fractions):
        if entry.fraction != frac:
            raise RuntimeError(
                f"order mismatch at n={n}: {entry.word} maps to {entry.fraction}, expected {frac}"
            )
    for prev, entry in zip(entries, entries[1:]):
        if prev.word >= entry.word:
            raise RuntimeError(f"order mismatch at n={n}: {prev.word} does not precede {entry.word}")
    return list(zip(entries, fractions))
