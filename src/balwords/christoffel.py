"""Construction and structural decomposition of Christoffel words, and the
walks of the Christoffel (Stern-Brocot) tree.

A lower Christoffel word encodes the tightest lattice path from (0,0) to
(a,b) that stays weakly below the straight segment between those points
('0' = unit step right, '1' = unit step up); the upper word is its
reversal and runs weakly above.  Central words are the palindromic
interiors of the primitive ones.  The primitive lower words are the nodes
of the Christoffel tree, and each node's standard factorization is the
pair of nodes it was made from (Berstel, Lauve, Reutenauer, Saliola 2008).
One descent of that tree builds the lower word together with its standard
factorization; the palindromic factorization cuts the same word after a'
letters, and the conjugate matrix holds its sorted rotations.  One
in-order walk of the tree lists the nodes by slope, for the prefix and
almost-balanced enumerations.

The same tree, read as fractions, is the Stern-Brocot tree.  This module
also holds its integer descent (the Farey neighbours of a point) and the
walk of the bounded Farey set by its next-term recurrence, which
``counting`` and ``farey`` use, and the one inverse rule: for consecutive
Farey fractions p/q < r/s, -(r+s) is p's inverse mod p+q.  The period
inverses a', b' come from that rule too, with no modular exponentiation.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .words import parikh, reversal


class Factorization(NamedTuple):
    left: str
    right: str
    kind: str  # "palindromic" | "standard"

    @property
    def word(self) -> str:
        return self.left + self.right


class ChristoffelMatrix(NamedTuple):
    a: int
    b: int
    rows: tuple[str, ...]

    @property
    def order(self) -> int:
        return self.a + self.b

    def as_text(self) -> str:
        return "\n".join(self.rows)


def _require_endpoint(a: int, b: int) -> None:
    if a < 0 or b < 0:
        raise ValueError("endpoint coordinates must be nonnegative")
    if a == 0 and b == 0:
        raise ValueError("endpoint (0,0) has no Christoffel word")


def _require_coprime(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError("both coordinates must be >= 1")
    if gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) must be coprime")


def _standard_pair(a: int, b: int) -> tuple[str, str]:
    """Standard factorization (u, v) of the lower Christoffel word of coprime a, b >= 1.

    Descends the Christoffel tree from the root pair ('0', '1'), keeping
    the images u, v of 0 and 1 under the morphisms passed so far and the
    endpoint (x, y) still to reach.  A step toward more zeros maps
    1 -> 01 (v = u v, x -= y), one toward more ones maps 0 -> 01
    (u = u v, y -= x); a run of k equal steps is one string repeat, so the
    descent takes one Euclid step per partial quotient.  It ends at
    (1, 1), whose word is 01, so u v is the word of (a, b).
    """
    u, v = "0", "1"
    x, y = a, b
    while x != y:
        if x > y:
            k = (x - 1) // y
            v = u * k + v
            x -= k * y
        else:
            k = (y - 1) // x
            u = u + v * k
            y -= k * x
    return u, v


def _christoffel_tree(n: int) -> list[tuple[str, str, str]]:
    """The standard pair (u, v) and the word uv of every primitive lower
    Christoffel word with both letters and |uv| <= n, by increasing slope,
    as a list of (u, v, uv).

    In-order walk of the Christoffel tree from the root ('0', '1') with an
    explicit stack: the child (u, uv) of a node lies below it in slope and
    (uv, v) above it, and a node longer than n ends its branch, since its
    descendants are longer still.  Each node's word is built once, and each
    node's stack entry is the list item.
    """
    out, stack = [], []
    emit, push, pop = out.append, stack.append, stack.pop
    u, v, w = "0", "1", "01"
    while True:
        while len(w) <= n:
            push((u, v, w))
            v, w = w, u + w
        if not stack:
            return out
        u, v, w = node = pop()
        emit(node)
        u, w = w, w + v


def _neighbours(order: int, u: int, v: int) -> tuple[int, int, int, int]:
    """(p, q, r, s): the consecutive fractions p/q <= u/v < r/s of denominator <= order.

    Batched Stern-Brocot descent from 0/1 and 1/0, for u >= 0 and v, order
    >= 1: each step moves one end as many mediants toward u/v as the value
    and the denominator bound allow, so the steps follow the continued
    fraction of u/v, O(log) of them.
    """
    p, q, r, s = 0, 1, 1, 0
    while q + s <= order:
        if (p + r) * v <= u * (q + s):
            t = (u * q - v * p) // (v * r - u * s)
            if s:
                t = min(t, (order - q) // s)
            p, q = p + t * r, q + t * s
        else:
            below = u * q - v * p
            t = (order - s) // q
            if below:
                t = min(t, (v * r - u * s - 1) // below)
            r, s = r + t * p, s + t * q
    return p, q, r, s


def _farey_walk(order: int, u: int, v: int, x: int, y: int):
    """Yield (p, q, r, s) for each fraction p/q of denominator <= order in
    (u/v, x/y], in increasing order, with r/s its successor.

    Starts at the neighbours of u/v and steps by the next-term recurrence:
    after consecutive p/q < r/s comes (k*r - p)/(k*s - q) with
    k = (order + q) // s.  Consecutive fractions satisfy r*q - p*s = 1, so
    every yielded pair is in lowest terms.
    """
    p, q, r, s = _neighbours(order, u, v)
    while r * y <= x * s:
        k = (order + q) // s
        p, q, r, s = r, s, k * r - p, k * s - q
        yield p, q, r, s


def _successor_inverse(p: int, q: int, r: int, s: int) -> int:
    """p's inverse modulo p+q, for consecutive Farey fractions p/q < r/s.

    As r*q - p*s = 1 and q = -p (mod p+q), p*(-(r+s)) = 1 (mod p+q).
    """
    return -(r + s) % (p + q)


def lower_christoffel(a: int, b: int) -> str:
    """Lower Christoffel word with a zeros and b ones.

    A letter power when a or b is 0; otherwise, for gcd(a,b)=g, the g-th
    power of the primitive word u v of (a/g, b/g), built by the Christoffel
    tree descent of ``_standard_pair``.  The defining letter formula (letter
    k is '1' exactly when floor(k*b/(a+b)) rises at step k) is the test
    oracle.
    """
    _require_endpoint(a, b)
    if a == 0 or b == 0:
        return "0" * a + "1" * b
    g = gcd(a, b)
    u, v = _standard_pair(a // g, b // g)
    return (u + v) * g


def upper_christoffel(a: int, b: int) -> str:
    """Upper Christoffel word: the reversal of the lower one."""
    return reversal(lower_christoffel(a, b))


def central_word(a: int, b: int) -> str:
    """Interior C of the primitive lower Christoffel word 0C1."""
    _require_coprime(a, b)
    return lower_christoffel(a, b)[1:-1]


def is_central(w: str) -> bool:
    """True iff 0w1 is a primitive lower Christoffel word.

    Equivalently, w has coprime periods p, q with p + q = |w| + 2, so the
    empty word and letter powers qualify.
    """
    u = "0" + w + "1"
    a, b = parikh(u)
    return gcd(a, b) == 1 and lower_christoffel(a, b) == u


def period_inverses(a: int, b: int) -> tuple[int, int]:
    """(a', b'): multiplicative inverses of a and b modulo a+b.

    These are the two coprime periods of central_word(a, b), and the part
    lengths of both factorizations below; a' + b' = a + b.  The fraction
    b/a is its own lower neighbour among the fractions of denominator
    <= a, so its Farey successor gives b' by ``_successor_inverse``.
    """
    _require_coprime(a, b)
    bi = _successor_inverse(*_neighbours(a, b, a))
    return a + b - bi, bi


def palindromic_factorization(a: int, b: int) -> Factorization:
    """Split the primitive lower Christoffel word into two palindromes.

    For 0C1 with C = P01Q this is 0P0 . 1Q1; letter-power interiors give
    the splits 0^(n+1) . 1 and 0 . 1^(n+1).  The cut falls after a'
    letters, a' the inverse of a modulo a+b, which is the length of the
    right part of the standard factorization.  Swapping the parts yields
    the upper Christoffel word.
    """
    _require_coprime(a, b)
    u, v = _standard_pair(a, b)
    w = u + v
    return Factorization(w[: len(v)], w[len(v) :], "palindromic")


def standard_factorization(a: int, b: int) -> Factorization:
    """Split the primitive lower Christoffel word before its least proper suffix.

    Both parts are again primitive lower Christoffel words (for 0C1 with
    C = P01Q the parts are 0Q1 and 0P1): they are the two nodes of the
    Christoffel tree that the word's node was made from, read off the
    descent of ``_standard_pair``.  The cut falls after b' letters, b' the
    inverse of b modulo a+b.
    """
    _require_coprime(a, b)
    return Factorization(*_standard_pair(a, b), "standard")


def christoffel_matrix(a: int, b: int) -> ChristoffelMatrix:
    """The (a+b) x (a+b) matrix of conjugates of the lower Christoffel word.

    The rows are the rotations of c = lower_christoffel(a, b), taken as
    slices of c + c, in sorted order, with repeats when gcd(a,b) > 1.  Read
    by columns this is the defining table: column 1 is a zeros over b ones,
    and each next column shifts the block of ones up by b positions modulo
    a+b.
    """
    if a < 1 or b < 1:
        raise ValueError("matrix requires a >= 1 and b >= 1")
    n = a + b
    cc = lower_christoffel(a, b) * 2
    return ChristoffelMatrix(a, b, tuple(sorted(cc[i : i + n] for i in range(n))))
