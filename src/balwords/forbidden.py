"""Minimal forbidden words of the balanced language, and the minimal
almost-balanced words.

Swapping the first and last letters of a non-primitive Christoffel word
(one boundary letter of each kind) produces exactly the words that are
unbalanced while all their proper factors are balanced.  Restricting the
source to squares gives the minimal almost-balanced words, which also
arise as u^2 v^2 over standard factorizations, read off the Christoffel
tree.  Both enumerations build their words already in lexicographic
order, each word once; a final ``list.sort`` keeps the order a contract
rather than an argument, at the cost of one linear pass.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from typing import NamedTuple

from .christoffel import _christoffel_tree, lower_christoffel
from .words import parikh, reversal


class MFWord(NamedTuple):
    """A minimal forbidden word together with the Christoffel word it was made from.

    A named tuple, so it compares equal to the plain tuple (word, source).
    """

    word: str
    source: str

    @property
    def swap(self) -> tuple[str, str]:
        """The (first, last) letters of the source, which the word has swapped."""
        return self.source[0], self.source[-1]


# MFWord._make without its Python frame and length check, for lists of words.
_mf_word = partial(tuple.__new__, MFWord)


def _swap_ends(source: str) -> str:
    return source[-1] + source[1:-1] + source[0]


def enumerate_mf(n: int) -> list[MFWord]:
    """All minimal forbidden words of length n, sorted by word.

    Sources are the non-primitive lower and upper Christoffel words of
    length n whose endpoints use both letters (a, b >= 1, gcd > 1); each
    upper word is the reversal of its lower one.  Two sources never give
    the same word: the Parikh vector (a, b) or the first letter differs.
    The words are built in order: the upper-sourced ones (first letter 0)
    and then the lower-sourced ones (first letter 1), each in the order
    a = n-1, ..., 1, that is by increasing slope b/a.  The final sort finds
    them in order (the tests check every n < 400) and so takes one pass.
    """
    if n < 2:
        raise ValueError("minimal forbidden words have length >= 2")
    lowers = [lower_christoffel(a, n - a) for a in range(n - 1, 0, -1) if gcd(a, n) > 1]
    uppers = [lower[::-1] for lower in lowers]
    # A lower word runs 0...1 and its reversal 1...0; each source's word has its ends swapped.
    words = ["0" + upper[1:-1] + "1" for upper in uppers] + ["1" + lower[1:-1] + "0" for lower in lowers]
    out = list(map(_mf_word, zip(words, uppers + lowers)))
    out.sort()
    return out


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

    Generated as u^2 v^2 over the standard factorization u v of each
    primitive lower Christoffel word with both letters and
    |uv| <= max_len // 2, read off the walk of the Christoffel tree by
    increasing slope, followed by their reversals.  Each word is built as
    u.uv.v = u^2 v^2 from the pair and the walk's word w = uv.  No word
    occurs twice, since the Parikh vector 2(a, b) or the first letter
    differs, and the walk already lists each half in order; the final sort
    only confirms it.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = [u + w + v for u, v, w in _christoffel_tree(max_len // 2)]
    out += [w[::-1] for w in out]
    out.sort()
    return out
