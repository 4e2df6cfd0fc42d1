"""Prefixes of lower Christoffel words and the Farey correspondence.

The prefixes of lower Christoffel words (PLC) are exactly the words that
are both balanced and prefix normal.  ``is_plc`` decides this by two
balance tests (``balance.is_christoffel_prefix``): a word with a 0 is PLC
iff it is 0u with 0u and 1u both balanced, that is iff u is a left
special balanced word, a prefix of a characteristic word.  The length-n
ones, in lexicographic order, are the length-n prefixes of the powers of
the primitive lower Christoffel words of the Farey fractions of order n,
in increasing order (Berstel, Lauve, Reutenauer, Saliola 2008); the word
of p/q has root ones(root)/|root| = p/q.  The enumeration walks the
Christoffel tree (``christoffel._christoffel_tree``) and the Farey
sequence is walked by its next-term recurrence
(``christoffel._farey_walk``); both walks live in ``christoffel``, and the
bijection checks the two independent walks against each other.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .balance import is_christoffel_prefix
from .christoffel import _christoffel_tree, _farey_walk
from .words import smallest_period


class PlcEntry(NamedTuple):
    """A length-n prefix word and the primitive lower Christoffel word it repeats.

    A named tuple, so it compares equal to the plain tuple (word, root).
    """

    word: str
    root: str

    @property
    def fraction(self) -> Fraction:
        """The root's Farey fraction ones(root)/|root|."""
        from fractions import Fraction

        return Fraction(self.root.count("1"), len(self.root))


# PlcEntry._make without its Python frame and length check, for lists of entries.
_plc_entry = partial(tuple.__new__, PlcEntry)


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

    The roots are '0', then the primitive lower Christoffel words u v with
    both letters and |uv| <= n in increasing slope, read off the in-order
    walk of the Christoffel tree, then '1'; their fractions are the Farey
    fractions of order n in increasing order.  Each entry's word is the
    length-n prefix of its root repeated.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    roots = ["0", *[w for _, _, w in _christoffel_tree(n)], "1"]
    words = [(root * (n // len(root) + 1))[:n] for root in roots]
    return list(map(_plc_entry, zip(words, roots)))


def farey_sequence(n: int) -> list[Fraction]:
    """Reduced fractions a/b with 0 <= a <= b <= n, in increasing order.

    0/1, then the fractions of (0/1, 1/1] walked by ``christoffel._farey_walk``.
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError("order must be >= 1")
    return [Fraction(0)] + [Fraction(p, q) for p, q, _, _ in _farey_walk(n, 0, 1, 1, 1)]


def plc_farey_bijection(n: int) -> list[tuple[PlcEntry, Fraction]]:
    """Pair the i-th length-n prefix word with the i-th Farey fraction.

    The positional pairing must agree with the primitive-root fraction of
    every entry, compared as (ones, length) against the walked (p, q)
    before any ``Fraction`` is built; disagreement is an internal error.
    """
    from fractions import Fraction

    entries = enumerate_plc(n)
    walk = [(0, 1, 1, n), *_farey_walk(n, 0, 1, 1, 1)]
    if len(entries) != len(walk):
        raise RuntimeError(
            f"size mismatch at n={n}: {len(entries)} words vs {len(walk)} fractions"
        )
    for entry, (p, q, _, _) in zip(entries, walk):
        if (entry.root.count("1"), len(entry.root)) != (p, q):
            raise RuntimeError(
                f"order mismatch at n={n}: {entry.word} maps to {entry.fraction}, expected {Fraction(p, q)}"
            )
    for prev, entry in zip(entries, entries[1:]):
        if prev.word >= entry.word:
            raise RuntimeError(f"order mismatch at n={n}: {prev.word} does not precede {entry.word}")
    return [(entry, Fraction(p, q)) for entry, (p, q, _, _) in zip(entries, walk)]
