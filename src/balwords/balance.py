"""Balance predicates and enumeration of balanced binary words.

A word is balanced when any two equal-length factors have ones-counts
differing by at most 1.  Each property that can fail with a reason has one
scan returning a named-tuple witness or None.  The balanced words of one
Parikh vector are the windows of periodic lower Christoffel words named by
the counting formula's term list, which is how they are enumerated.

Three properties have a linear test through Christoffel words.  A word is
balanced iff its prefix of length p, p its smallest period, occurs in
c + c, c the lower Christoffel word of that prefix's Parikh vector.  A
word is circularly balanced iff it occurs in c + c, c the (possibly
non-primitive) lower Christoffel word of its own Parikh vector.  A word is
a prefix of a lower Christoffel word iff the slopes r with h_i =
floor(i*r) for every prefix height h_i form a nonempty interval, which one
pass over the prefixes decides; such a word is prefix normal.  The
rotation and prefix-normal scans run only once a word has failed its
linear test, and their predicates are ``scan(w) is None``.
``unbalance_witness`` does not run the linear balance test first: it
still scans a balanced word in full.
"""

from __future__ import annotations

from typing import NamedTuple

from .christoffel import lower_christoffel
from .counting import walk_terms
from .words import parikh, smallest_period


class ImbalanceWitness(NamedTuple):
    """A palindrome v with both 0v0 and 1v1 occurring in the witnessed word.

    Positions are 1-based starts of the two occurrences.
    """

    v: str
    pos0: int
    pos1: int


class RotationWitness(NamedTuple):
    """An unbalanced rotation w[offset:] + w[:offset] of the witnessed word."""

    rotation: str
    offset: int


class PrefixNormalWitness(NamedTuple):
    """A factor at 1-based position with more 0s than the equal-length prefix."""

    factor: str
    position: int
    prefix: str


class BarWitness(NamedTuple):
    """A proper prefix whose height lies outside allowed = (floor, ceil) of k*b/(a+b)."""

    prefix_length: int
    height: int
    allowed: tuple[int, int]


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
    """Whether every two equal-length factors of w differ by at most one '1'.

    Let p be the smallest period of w, x = w[:p], and c the lower
    Christoffel word of parikh(x).  Then w is balanced iff x occurs in
    c + c, that is iff x is a conjugate of c: one KMP pass and one
    substring search, after the same 00-and-11 exit as the scan.

    If: c's infinite power is the mechanical word of slope |c|_1/|c|,
    whose length-k factors all have floor or ceil of k|c|_1/|c| ones, so
    it is balanced.  x's infinite power is a suffix of it, and w is a
    prefix of x's.

    Only if, when |w| >= 2p - 1: x is primitive, since a root shorter than
    x would be a smaller period of w.  Each conjugate of x is a factor of
    x's infinite power that starts in its first p letters, so it is a
    factor of w[:2p - 1] and hence balanced.  The Lyndon conjugate of x is
    unbordered and balanced, so it is a Christoffel word (the balanced
    unbordered words are exactly the Christoffel words); being Lyndon, it
    is the primitive lower one of its Parikh vector, that is c.

    When |w| < 2p - 1, only the conjugates of x that start in w's first
    |w| - p + 1 letters are factors of w, and no proof is given here.
    That case rests on evidence: the test agrees with the quadratic scan
    ``_imbalance_length(w) is None`` on every word of at most 24 letters.
    """
    if len(w) < 2:
        return True
    if "00" in w and "11" in w:
        return False
    x = w[: smallest_period(w)]
    return x in lower_christoffel(*parikh(x)) * 2


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
    """The first unbalanced rotation of w, if any; None iff w is circularly balanced.

    w is circularly balanced iff it is a conjugate of the lower Christoffel
    word c of its own Parikh vector, that is iff w occurs in c + c.  Only a
    word that fails this test has its rotations scanned for the witness.
    """
    if not w:
        raise ValueError("circular balance needs a nonempty word")
    c = lower_christoffel(*parikh(w))
    if w in c + c:
        return None
    for offset in range(len(w)):
        rotation = w[offset:] + w[:offset]
        if not is_balanced(rotation):
            return RotationWitness(rotation, offset)
    return None


def is_circularly_balanced(w: str) -> bool:
    """Whether every rotation of w is balanced."""
    return rotation_witness(w) is None


def is_christoffel_prefix(w: str) -> bool:
    """Whether w is a prefix of a (possibly non-primitive) lower Christoffel word.

    These are the words that are both balanced and prefix normal.  With h_i
    the number of ones in the length-i prefix, they are the words for which
    the slopes r with h_i = floor(i*r) for every i, the interval
    [max h_i/i, min (h_i+1)/i) over 1 <= i <= |w|, is nonempty.  One pass
    keeps both extremes as fractions, compares them by cross-multiplication
    and stops at the first prefix that empties the interval.
    """
    lo_num, lo_den = 0, 1  # max h_i/i so far
    hi_num, hi_den = 1, 0  # min (h_i+1)/i so far, starting at infinity
    h = 0
    for i, c in enumerate(w, 1):
        if c == "1":
            h += 1
        if h * lo_den > lo_num * i:
            lo_num, lo_den = h, i
        if (h + 1) * hi_den < hi_num * i:
            hi_num, hi_den = h + 1, i
        if lo_num * hi_den >= hi_num * lo_den:
            return False
    return True


def prefix_normal_witness(w: str) -> PrefixNormalWitness | None:
    """The first factor of w with more 0s than the prefix of its length, if any.

    Factors are scanned by increasing length, then by position; None iff w
    is prefix-normal.  Every prefix of a lower Christoffel word is prefix
    normal, so such a word is accepted by the linear test without a scan.
    """
    if is_christoffel_prefix(w):
        return None
    n = len(w)
    ones = _ones_prefix(w)
    for k in range(1, n):
        prefix_ones = ones[k]
        for i in range(1, n - k + 1):
            if ones[i + k] - ones[i] < prefix_ones:
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
            return BarWitness(k, h, (lo, hi))
    return None


def in_digital_bar(w: str) -> bool:
    """Whether the path of w stays within the Christoffel bar of its endpoint."""
    return bar_witness(w) is None


def enumerate_balanced(a: int, b: int) -> list[str]:
    """All balanced words with Parikh vector (a, b), lexicographically sorted.

    Built from the counting decomposition: every such word is a window of
    length a+b of the periodic lower Christoffel word of a coprime pair
    (alpha, beta) of the count's terms (``counting.walk_terms``), and every
    window with b ones is balanced.  Those windows, united and sorted, are
    the whole set.  (0, 0) gives the empty word.

    With m = alpha+beta and q, c = divmod(n*beta, m), the window at offset
    i has q ones, plus one when r = i*beta mod m is at least m - c; b is q
    or q+1.  So only the offsets i = r*beta' mod m of the matching r are
    sliced, beta' the inverse of beta mod m that the walk yields.
    """
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    if a == 0 or b == 0:
        return ["0" * a + "1" * b]
    n = a + b
    out: set[str] = set()
    for alpha, beta, _, beta_inv, _ in walk_terms(a, b):
        m = alpha + beta
        q, c = divmod(n * beta, m)
        text = lower_christoffel(alpha, beta) * (n // m + 2)
        offsets = (r * beta_inv % m for r in (range(m - c) if b == q else range(m - c, m)))
        out.update(text[i : i + n] for i in offsets)
    return sorted(out)
