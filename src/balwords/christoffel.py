"""Construction and structural decomposition of Christoffel words.

A lower Christoffel word encodes the tightest lattice path from (0,0) to
(a,b) that stays weakly below the straight segment between those points
('0' = unit step right, '1' = unit step up); the upper word is its
reversal and runs weakly above.  Central words are the palindromic
interiors of the primitive ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .words import (
    conjugates,
    has_period,
    is_palindrome,
    parikh,
    reversal,
)


@dataclass(frozen=True)
class Factorization:
    left: str
    right: str
    kind: str  # "palindromic" | "standard"

    @property
    def word(self) -> str:
        return self.left + self.right


@dataclass(frozen=True)
class PowerOfLetter:
    letter: str
    count: int


@dataclass(frozen=True)
class CentralPair:
    """The unique palindromes P, Q with C = P 01 Q = Q 10 P."""

    p: str
    q: str


@dataclass(frozen=True)
class ChristoffelMatrix:
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


def lower_christoffel(a: int, b: int) -> str:
    """Lower Christoffel word with a zeros and b ones.

    Letter k is '1' exactly when the segment height floor(k*b/(a+b)) rises
    at step k; for gcd(a,b)=g the result is the g-th power of the
    primitive word of the reduced slope.
    """
    _require_endpoint(a, b)
    n = a + b
    return "".join(
        "1" if (k * b) // n > ((k - 1) * b) // n else "0" for k in range(1, n + 1)
    )


def upper_christoffel(a: int, b: int) -> str:
    """Upper Christoffel word: the reversal of the lower one."""
    return reversal(lower_christoffel(a, b))


def central_word(a: int, b: int) -> str:
    """Interior C of the primitive lower Christoffel word 0C1."""
    _require_coprime(a, b)
    if a + b < 2:
        raise ValueError("central word requires a+b >= 2")
    return lower_christoffel(a, b)[1:-1]


def is_central(w: str) -> bool:
    """True iff w has coprime periods p, q with p + q = |w| + 2.

    Periods >= |w| count vacuously, so the empty word (p=q=1) and letter
    powers qualify.
    """
    n = len(w)
    if n == 0:
        return True
    for p in range(1, n // 2 + 2):
        q = n + 2 - p
        if gcd(p, q) == 1 and has_period(w, p) and has_period(w, q):
            return True
    return False


def central_decompose(c: str) -> PowerOfLetter | CentralPair:
    """Split a central word as P 01 Q = Q 10 P, or report it as a letter power.

    The pair (P, Q) is unique; finding two valid splits would be an
    internal inconsistency.
    """
    if not is_central(c):
        raise ValueError(f"{c!r} is not a central word")
    if len(set(c)) <= 1:
        return PowerOfLetter(c[0] if c else "0", len(c))
    found = []
    for i in range(len(c) - 1):
        if c[i : i + 2] != "01":
            continue
        p, q = c[:i], c[i + 2 :]
        if is_palindrome(p) and is_palindrome(q) and q + "10" + p == c:
            found.append(CentralPair(p, q))
    if len(found) != 1:
        raise RuntimeError(f"expected exactly one P01Q split of {c!r}, found {len(found)}")
    return found[0]


def period_inverses(a: int, b: int) -> tuple[int, int]:
    """(a', b'): multiplicative inverses of a and b modulo a+b.

    These are the two coprime periods of central_word(a, b), and the part
    lengths of both factorizations below; a' + b' = a + b.
    """
    _require_coprime(a, b)
    n = a + b
    ai, bi = pow(a, -1, n), pow(b, -1, n)
    assert ai + bi == n
    return ai, bi


def palindromic_factorization(a: int, b: int) -> Factorization:
    """Split the primitive lower Christoffel word into two palindromes.

    For 0C1 with C = P01Q this is 0P0 . 1Q1; letter-power interiors give
    the splits 0^(n+1) . 1 and 0 . 1^(n+1).  Swapping the parts yields the
    upper Christoffel word.
    """
    _require_coprime(a, b)
    c = central_word(a, b)
    parts = central_decompose(c)
    if isinstance(parts, PowerOfLetter):
        if parts.letter == "0":
            return Factorization("0" * (parts.count + 1), "1", "palindromic")
        return Factorization("0", "1" * (parts.count + 1), "palindromic")
    return Factorization("0" + parts.p + "0", "1" + parts.q + "1", "palindromic")


def standard_factorization(a: int, b: int) -> Factorization:
    """Split the primitive lower Christoffel word before its least proper suffix.

    Both parts are again primitive lower Christoffel words (for 0C1 with
    C = P01Q the parts are 0Q1 and 0P1).  The cut falls after b' letters,
    b' the inverse of b modulo a+b.
    """
    _, cut = period_inverses(a, b)
    w = lower_christoffel(a, b)
    return Factorization(w[:cut], w[cut:], "standard")


def christoffel_matrix(a: int, b: int) -> ChristoffelMatrix:
    """The (a+b) x (a+b) matrix of conjugates of the lower Christoffel word.

    Column 1 is a zeros over b ones; each next column shifts the block of
    ones up by b positions modulo a+b.  The rows come out as the sorted
    conjugates (with repeats when gcd(a,b) > 1); this is cross-checked
    against explicit rotation-and-sort on every call.
    """
    if a < 1 or b < 1:
        raise ValueError("matrix requires a >= 1 and b >= 1")
    n = a + b
    rows = tuple(
        "".join("1" if (i - 1 - a + j * b) % n < b else "0" for j in range(n))
        for i in range(1, n + 1)
    )
    expected = tuple(sorted(conjugates(lower_christoffel(a, b))))
    if rows != expected:
        raise RuntimeError(f"column-shift rows disagree with sorted conjugates for ({a},{b})")
    return ChristoffelMatrix(a, b, rows)


def is_lower_christoffel(w: str) -> bool:
    """True iff w equals the lower Christoffel word of its own Parikh vector."""
    if not w:
        return False
    pv = parikh(w)
    return w == lower_christoffel(pv.zeros, pv.ones)


def is_primitive_lower_christoffel(w: str) -> bool:
    if not w:
        return False
    pv = parikh(w)
    return gcd(pv.zeros, pv.ones) == 1 and w == lower_christoffel(pv.zeros, pv.ones)


def primitive_lower_christoffel_words(length: int) -> list[str]:
    """All primitive lower Christoffel words of the given length, by increasing slope.

    Increasing slope is also increasing lexicographic order.  There are
    phi(length) of them for length >= 2, and both letters for length 1.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if length == 1:
        return ["0", "1"]
    return [
        lower_christoffel(a, length - a)
        for a in range(length - 1, 0, -1)
        if gcd(a, length - a) == 1
    ]

