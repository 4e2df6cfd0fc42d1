"""Balance predicates and enumeration of balanced binary words.

A word is balanced when any two equal-length factors have ones-counts
differing by at most 1.  Each property that can fail with a reason has one
scan returning a named-tuple witness or None.  The balanced words of one
Parikh vector are the windows of periodic lower Christoffel words named by
the counting formula's term list, which is how they are enumerated.

Three properties have a linear test.  Balance is decided by run-length
derivation: once one letter is isolated, the runs of the other between
its occurrences must take two consecutive lengths, and the word is
balanced iff the word of its run kinds is, which is at most about half as
long.  A word is circularly balanced iff it occurs in c + c, c the
(possibly non-primitive) lower Christoffel word of its own Parikh vector.
A word 0u is a prefix of a lower Christoffel word iff 0u and 1u are both
balanced; such a word is prefix normal.  The rotation and prefix-normal
scans run only once a word has failed its linear test, and their
predicates are ``scan(w) is None``.
``unbalance_witness`` does not run the linear balance test first: it
still scans a balanced word in full.
"""

from __future__ import annotations

from typing import NamedTuple

from .christoffel import lower_christoffel
from .counting import walk_terms
from .words import parikh

_EXCHANGE = str.maketrans("01", "10")
_KINDS = str.maketrans("ab", "01")


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

    Decided by run-length derivation (Wu, "On the chain code of a line",
    IEEE PAMI 1982; Lothaire, *Algebraic Combinatorics on Words*, 2002,
    ch. 2), each round a few ``str`` passes.  A word with both 00 and 11
    is unbalanced, and exchanging the letters keeps balance, so after at
    most one exchange every 1 is isolated.  A word with at most one 1 is
    then balanced.  Otherwise w = 0^h t 0^e with t = 1 0^r_1 1 ... 1 0^r_m 1
    and every r_i >= 1.

    Runs.  If w is balanced and k is its shortest interior run, every
    interior run is k or k+1 and h, e <= k+1: otherwise 0^(k+2) and
    1 0^k 1 are two factors of equal length two 1s apart.  r_1 is k or
    k+1, so k is r_1 - 1 when a run of r_1 - 1 occurs and r_1 otherwise,
    and k >= 1.  The "if" below holds for any k >= 1, so a wrong k only
    rejects a word that is unbalanced anyway.  Let sigma(a) = 1 0^k and
    sigma(b) = 1 0^(k+1).  The two ``replace`` calls read t as
    sigma(u) 1, and a 0 left over means a run outside {k, k+1}.  Let u'
    be u with a b put before it when h = k+1 and after it when e = k+1.
    w is balanced iff u' is, and u' with a, b read as 0, 1 is the next
    round's word.

    If: a finite balanced word is a factor of a Sturmian word, which is
    recurrent, so u' extends to a balanced x u' y.  sigma is G~^k E G,
    with E the exchange, G: 0 -> 0, 1 -> 01 and G~: 0 -> 0, 1 -> 10, so
    it is a Sturmian morphism and sigma(x u' y) is balanced.  w is a
    factor of it: 0^h is a suffix of sigma(x) when h <= k and of sigma(b)
    when h = k+1, and 1 0^e is a prefix of sigma(y) when e <= k and is
    sigma(b) when e = k+1.  So an end of length at most k is dropped and
    an end of k+1 is a forced b.

    Only if: if u' is unbalanced, it has factors a v a and b v b.  Then
    1 0^k sigma(v) 1 0^k 1 and 0^(k+1) sigma(v) 1 0^(k+1), of equal
    length and two 1s apart, are factors of w.  The first is sigma(a v a)
    and the 1 that starts the next image, or t's last 1, and a occurs
    only in u.  The second is sigma(b v b) without its first letter, and
    a b added at the head or the tail stands for 0^h or 1 0^e in w.

    Each letter of u' stands for at least k+1 >= 2 letters of w, so
    there are O(log |w|) rounds and O(|w|) letters passed in all.
    """
    while True:
        if "11" in w:
            if "00" in w:
                return False
            w = w.translate(_EXCHANGE)
        first, last = w.find("1"), w.rfind("1")
        if first == last:
            return True
        t = w[first : last + 1]
        head, tail = first, len(w) - 1 - last
        r1 = t.find("1", 1) - 1
        k = r1 - 1 if "1" + "0" * (r1 - 1) + "1" in t else r1
        kinds = t.replace("1" + "0" * (k + 1), "b").replace("1" + "0" * k, "a")
        if max(head, tail) > k + 1 or "0" in kinds:
            return False
        w = "1" * (head == k + 1) + kinds[:-1].translate(_KINDS) + "1" * (tail == k + 1)


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

    These are the words that are both balanced and prefix normal.  A word
    with no 0 is a power of 1, the word of (0, 1).  Otherwise write w = 0u,
    since a word that starts with 1 and has a 0 is not prefix normal.  The
    prefixes of lower Christoffel words are those of the lower mechanical
    words s_(alpha,0) = 0 c_alpha, c_alpha the characteristic word of
    slope alpha, and the prefixes of characteristic words are exactly the
    left special balanced words (Lothaire, 2002, ch. 2).  So w is one iff
    u is left special, that is iff 0u and 1u are both balanced.
    """
    return "0" not in w or (w[0] == "0" and is_balanced("1" + w[1:]) and is_balanced(w))


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
