"""Balance predicates and enumeration of balanced binary words.

A word is balanced when any two equal-length factors have ones-counts
differing by at most 1.  The balanced words of one Parikh vector are the
windows of periodic lower Christoffel words named by the counting
formula's term list, which is how they are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .christoffel import lower_christoffel, upper_christoffel
from .counting import term_ranges
from .words import Parikh, conjugates, is_lyndon, parikh


@dataclass(frozen=True)
class ImbalanceWitness:
    """A palindrome v with both 0v0 and 1v1 occurring in the witnessed word.

    Positions are 1-based starts of the two occurrences.
    """

    v: str
    pos0: int
    pos1: int


@dataclass(frozen=True)
class FactorClass:
    """The one or two Parikh vectors taken by the length-k factors of a balanced word."""

    length: int
    light: Parikh
    heavy: Parikh | None = None


def _ones_prefix(w: str) -> list[int]:
    acc = [0]
    for c in w:
        acc.append(acc[-1] + (c == "1"))
    return acc


def is_balanced(w: str) -> bool:
    """Whether every two equal-length factors of w differ by at most one '1'."""
    n = len(w)
    if n < 2:
        return True
    # 00 and 11 together already violate balance at length 2.
    if "00" in w and "11" in w:
        return False
    ones = _ones_prefix(w)
    for k in range(2, n):
        lo = hi = ones[k]
        for i in range(1, n - k + 1):
            h = ones[i + k] - ones[i]
            if h < lo:
                lo = h
            elif h > hi:
                hi = h
            if hi - lo > 1:
                return False
    return True


def unbalance_witness(w: str) -> ImbalanceWitness | None:
    """Shortest palindrome v such that 0v0 and 1v1 both occur in w, if any.

    None exactly when w is balanced.  Ties break on the leftmost 0v0
    occurrence, then the leftmost 1v1 occurrence.
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


def is_circularly_balanced(w: str) -> bool:
    """Whether every rotation of w is balanced."""
    if not w:
        raise ValueError("circular balance needs a nonempty word")
    return is_balanced(w) and all(is_balanced(u) for u in conjugates(w))


def factor_classes(w: str) -> list[FactorClass]:
    """Per-length Parikh classes of the factors of a balanced word.

    For each k the factors take one or two Parikh vectors; the one with
    fewer ones is light, the other (when present) heavy.  A single class
    is reported as light.
    """
    if not is_balanced(w):
        raise ValueError("factor classes are defined for balanced words only")
    n = len(w)
    ones = _ones_prefix(w)
    out = [FactorClass(0, Parikh(0, 0))]
    for k in range(1, n + 1):
        counts = {ones[i + k] - ones[i] for i in range(n - k + 1)}
        lo = min(counts)
        light = Parikh(k - lo, lo)
        if len(counts) == 1:
            out.append(FactorClass(k, light))
        else:
            out.append(FactorClass(k, light, Parikh(k - lo - 1, lo + 1)))
    return out


def _require_balanced(v: str) -> None:
    if not is_balanced(v):
        raise ValueError("argument must be a balanced word")


def is_right_special(v: str) -> bool:
    """Whether both v0 and v1 are balanced."""
    _require_balanced(v)
    return is_balanced(v + "0") and is_balanced(v + "1")


def is_left_special(v: str) -> bool:
    """Whether both 0v and 1v are balanced."""
    _require_balanced(v)
    return is_balanced("0" + v) and is_balanced("1" + v)


def is_bispecial(v: str) -> bool:
    _require_balanced(v)
    return is_left_special(v) and is_right_special(v)


def is_strictly_bispecial(v: str) -> bool:
    """Whether all four extensions 0v1, 1v0, 0v0, 1v1 are balanced."""
    _require_balanced(v)
    return all(is_balanced(x + v + y) for x in "01" for y in "01")


def is_prefix_normal(w: str) -> bool:
    """Whether no factor of w has more 0s than the prefix of the same length."""
    n = len(w)
    zeros = [0]
    for c in w:
        zeros.append(zeros[-1] + (c == "0"))
    for k in range(1, n):
        cap = zeros[k]
        for i in range(1, n - k + 1):
            if zeros[i + k] - zeros[i] > cap:
                return False
    return True


def in_digital_bar(w: str) -> bool:
    """Whether the path of w stays within the Christoffel bar of its endpoint.

    Each proper prefix must share its Parikh vector with the equal-length
    prefix of the lower or of the upper Christoffel word of parikh(w);
    equivalently its height must be floor or ceil of k*b/(a+b).
    """
    a, b = parikh(w)
    if a == 0 or b == 0:
        raise ValueError("the bar degenerates when a=0 or b=0")
    n = a + b
    h = 0
    for k in range(1, n):
        h += w[k - 1] == "1"
        if not (b * k) // n <= h <= -((-b * k) // n):
            return False
    return True


def enumerate_balanced(a: int, b: int) -> list[str]:
    """All balanced words with Parikh vector (a, b), lexicographically sorted.

    Built from the counting decomposition: every such word is a window of
    length a+b of the periodic lower Christoffel word of a coprime pair
    (alpha, beta) from the term list, and every window with b ones is
    balanced.  The windows at the alpha+beta offsets of each pair, united
    and sorted, are the whole set.  (0, 0) gives the empty word.
    """
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    if a == 0 or b == 0:
        return ["0" * a + "1" * b]
    n = a + b
    heavy, light = term_ranges(a, b)
    out: set[str] = set()
    for alpha, beta in set(heavy + light):
        m = alpha + beta
        text = lower_christoffel(alpha, beta) * (n // m + 2)
        out.update(w for i in range(m) if (w := text[i : i + n]).count("1") == b)
    return sorted(out)


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


def digital_bar_bounds(a: int, b: int) -> tuple[str, str]:
    """The lower and upper boundary words of the (a, b) Christoffel bar."""
    return lower_christoffel(a, b), upper_christoffel(a, b)
