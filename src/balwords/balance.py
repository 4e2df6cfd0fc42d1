"""Balance predicates and enumeration of balanced binary words.

A word is balanced when any two equal-length factors have ones-counts
differing by at most 1.  Each predicate that can fail with a reason is one
scan returning a frozen witness or None, and the predicate is
``scan(w) is None``.  The balanced words of one Parikh vector are the
windows of periodic lower Christoffel words named by the counting
formula's term list, which is how they are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .christoffel import lower_christoffel, upper_christoffel
from .counting import term_ranges
from .words import Parikh, parikh


@dataclass(frozen=True)
class ImbalanceWitness:
    """A palindrome v with both 0v0 and 1v1 occurring in the witnessed word.

    Positions are 1-based starts of the two occurrences.
    """

    v: str
    pos0: int
    pos1: int


@dataclass(frozen=True)
class RotationWitness:
    """An unbalanced rotation w[offset:] + w[:offset] of the witnessed word."""

    rotation: str
    offset: int


@dataclass(frozen=True)
class PrefixNormalWitness:
    """A factor at 1-based position with more 0s than the equal-length prefix."""

    factor: str
    position: int
    prefix: str


@dataclass(frozen=True)
class BarWitness:
    """A proper prefix whose height lies outside allowed = [floor, ceil] of k*b/(a+b)."""

    prefix_length: int
    height: int
    allowed: list[int]


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


def _imbalance_length(w: str) -> int | None:
    """Least k at which two length-k factors of w differ by two ones, if any."""
    n = len(w)
    if n < 2:
        return None
    # 00 and 11 together already violate balance at length 2.
    if "00" in w and "11" in w:
        return 2
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
                return k
    return None


def is_balanced(w: str) -> bool:
    """Whether every two equal-length factors of w differ by at most one '1'."""
    return _imbalance_length(w) is None


def unbalance_witness(w: str) -> ImbalanceWitness | None:
    """Shortest palindrome v such that 0v0 and 1v1 both occur in w, if any.

    None exactly when w is balanced.  The shortest v has length k-2, k the
    least length with two factors two ones apart.  Ties break on the
    leftmost 0v0 occurrence, then the leftmost 1v1 occurrence.
    """
    k = _imbalance_length(w)
    if k is None:
        return None
    first: tuple[dict[str, int], dict[str, int]] = ({}, {})
    for i in range(len(w) - k + 1):
        x = w[i]
        if x != w[i + k - 1]:
            continue
        v = w[i + 1 : i + k - 1]
        if v == v[::-1]:
            first[int(x)].setdefault(v, i)
    v = min(first[0].keys() & first[1].keys(), key=lambda s: (first[0][s], first[1][s]))
    return ImbalanceWitness(v, first[0][v] + 1, first[1][v] + 1)


def rotation_witness(w: str) -> RotationWitness | None:
    """The first unbalanced rotation of w, if any; None iff w is circularly balanced."""
    if not w:
        raise ValueError("circular balance needs a nonempty word")
    for offset in range(len(w)):
        rotation = w[offset:] + w[:offset]
        if not is_balanced(rotation):
            return RotationWitness(rotation, offset)
    return None


def is_circularly_balanced(w: str) -> bool:
    """Whether every rotation of w is balanced."""
    return rotation_witness(w) is None


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


def prefix_normal_witness(w: str) -> PrefixNormalWitness | None:
    """The first factor of w with more 0s than the prefix of its length, if any.

    Factors are scanned by increasing length, then by position; None iff w
    is prefix-normal.
    """
    n = len(w)
    zeros = [0]
    for c in w:
        zeros.append(zeros[-1] + (c == "0"))
    for k in range(1, n):
        cap = zeros[k]
        for i in range(1, n - k + 1):
            if zeros[i + k] - zeros[i] > cap:
                return PrefixNormalWitness(w[i : i + k], i + 1, w[:k])
    return None


def is_prefix_normal(w: str) -> bool:
    """Whether no factor of w has more 0s than the prefix of the same length."""
    return prefix_normal_witness(w) is None


def bar_witness(w: str) -> BarWitness | None:
    """The shortest proper prefix of w whose height leaves the bar, if any.

    Each proper prefix of length k must share its Parikh vector with the
    equal-length prefix of the lower or of the upper Christoffel word of
    parikh(w); equivalently its height must be floor or ceil of k*b/(a+b).
    None iff w stays in the bar.
    """
    a, b = parikh(w)
    if a == 0 or b == 0:
        raise ValueError("the bar degenerates when a=0 or b=0")
    n = a + b
    h = 0
    for k in range(1, n):
        h += w[k - 1] == "1"
        lo, hi = b * k // n, -((-b * k) // n)
        if not lo <= h <= hi:
            return BarWitness(k, h, [lo, hi])
    return None


def in_digital_bar(w: str) -> bool:
    """Whether the path of w stays within the Christoffel bar of its endpoint."""
    return bar_witness(w) is None


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


def digital_bar_bounds(a: int, b: int) -> tuple[str, str]:
    """The lower and upper boundary words of the (a, b) Christoffel bar."""
    return lower_christoffel(a, b), upper_christoffel(a, b)
