"""Core operations on finite binary words.

Words are plain Python strings over the alphabet {'0', '1'}; the empty
string is the empty word.
"""

from __future__ import annotations

from typing import NamedTuple


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


def smallest_period(w: str) -> int:
    """Least p >= 1 with w[i] = w[i+p] for all valid i; |w| iff unbordered.

    This is |w| minus the longest border of w, read off the KMP failure
    function in O(|w|).
    """
    _require_nonempty(w)
    n = len(w)
    border = [0] * (n + 1)  # border[i]: length of the longest border of w[:i]
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = border[k]
        if w[i] == w[k]:
            k += 1
        border[i + 1] = k
    return n - border[n]


def conjugates(w: str) -> list[str]:
    """All |w| rotations of w, in rotation order starting at w itself."""
    _require_nonempty(w)
    return [w[i:] + w[:i] for i in range(len(w))]


def reversal(w: str) -> str:
    return w[::-1]


def is_palindrome(w: str) -> bool:
    """True iff w reads the same in both directions; true for the empty word."""
    return w == w[::-1]


def is_lyndon(w: str) -> bool:
    """True iff w is primitive and strictly minimal among its rotations (0 < 1).

    Equivalently, w is strictly smaller than each of its proper suffixes.
    """
    _require_nonempty(w)
    return all(w < w[i:] for i in range(1, len(w)))

