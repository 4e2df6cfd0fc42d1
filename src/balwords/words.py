"""Core operations on finite binary words.

Words are plain Python strings over the alphabet {'0', '1'}; the empty
string is the empty word.  Indexing in the public contracts is 1-based
(``factor(w, 1, 3)`` is the length-3 prefix); internal code translates to
Python's 0-based slices.
"""

from __future__ import annotations

from typing import NamedTuple

ALPHABET = ("0", "1")


class Parikh(NamedTuple):
    """Letter counts of a binary word: (number of 0s, number of 1s)."""

    zeros: int
    ones: int

    @property
    def length(self) -> int:
        return self.zeros + self.ones


def check_word(w: str) -> str:
    """Validate that w uses only '0'/'1' and return it unchanged."""
    if w.strip("01"):
        bad = next(c for c in w if c not in "01")
        raise ValueError(f"invalid letter {bad!r}: words are over the alphabet {{0,1}}")
    return w


def _require_nonempty(w: str) -> None:
    if not w:
        raise ValueError("empty word not allowed here")


def parikh(w: str) -> Parikh:
    """Parikh vector (zeros, ones) of w."""
    ones = w.count("1")
    return Parikh(len(w) - ones, ones)


def factor(w: str, i: int, j: int) -> str:
    """The factor w[i..j], 1-based and inclusive on both ends."""
    if not (1 <= i <= j <= len(w)):
        raise ValueError(f"factor indices ({i},{j}) out of range for |w|={len(w)}")
    return w[i - 1 : j]


def factors_of_length(w: str, k: int) -> set[str]:
    """All distinct factors of w of length k; {''} for k=0."""
    if not (0 <= k <= len(w)):
        raise ValueError(f"factor length {k} out of range for |w|={len(w)}")
    if k == 0:
        return {""}
    return {w[i : i + k] for i in range(len(w) - k + 1)}


def smallest_period(w: str) -> int:
    """Least p >= 1 with w[i] = w[i+p] for all valid i; |w| iff unbordered."""
    _require_nonempty(w)
    n = len(w)
    for p in range(1, n):
        if w[: n - p] == w[p:]:
            return p
    return n


def has_period(w: str, p: int) -> bool:
    """Whether p is a period of w; every p >= |w| is a period vacuously."""
    _require_nonempty(w)
    if p < 1:
        raise ValueError("periods are positive")
    n = len(w)
    return p >= n or w[: n - p] == w[p:]


def is_unbordered(w: str) -> bool:
    """True iff the longest border of w is empty."""
    _require_nonempty(w)
    return smallest_period(w) == len(w)


def conjugates(w: str) -> list[str]:
    """All |w| rotations of w, in rotation order starting at w itself."""
    _require_nonempty(w)
    return [w[i:] + w[:i] for i in range(len(w))]


def is_primitive(w: str) -> bool:
    """True iff w is not a proper power of a shorter word."""
    _require_nonempty(w)
    p = smallest_period(w)
    return p == len(w) or len(w) % p != 0


def reversal(w: str) -> str:
    return w[::-1]


def is_palindrome(w: str) -> bool:
    """True iff w reads the same in both directions; true for the empty word."""
    return w == w[::-1]


def two_palindrome_splits(w: str) -> list[int]:
    """All positions p, 0 <= p <= |w|, where w[1..p] and w[p+1..] are both palindromes.

    Nonempty exactly when w is a conjugate of its reversal.
    """
    _require_nonempty(w)
    return [
        p
        for p in range(len(w) + 1)
        if is_palindrome(w[:p]) and is_palindrome(w[p:])
    ]


def is_lyndon(w: str) -> bool:
    """True iff w is primitive and strictly minimal among its rotations (0 < 1)."""
    _require_nonempty(w)
    rots = conjugates(w)
    return w == min(rots) and rots.count(w) == 1

