"""Shared brute-force oracles and word generators for the test suite.

The oracles here deliberately re-derive everything from first principles
(definition-level scans, full enumeration) so they stay independent of
the implementations they check.  Two linear oracles, ``cc_is_balanced``
and ``slope_is_christoffel_prefix``, reach the long words that the
quadratic scans cannot, by methods other than the package's run-length
derivation.  The window and factor oracles for the counting formulas
build on lower_christoffel, whose own oracles are the letter formula
naive_lower_christoffel and lower_christoffel_arithmetic.
The structural predicates (periods and borders, special factors, factor
classes, central splits) are used by the tests to check the paper's
claims; no runtime code needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import strategies as st

from balwords.balance import (
    ImbalanceWitness,
    PrefixNormalWitness,
    RotationWitness,
    _imbalance_length,
    _ones_prefix,
    is_balanced,
)
from balwords.christoffel import (
    Factorization,
    is_central,
    lower_christoffel,
    period_inverses,
    upper_christoffel,
)
from balwords.counting import CountReport, CountTerm, _period_term, count_period_factors, walk_terms
from balwords.forbidden import MFWord, enumerate_mab, enumerate_mf
from balwords.words import (
    Parikh,
    _require_nonempty,
    conjugates,
    is_lyndon,
    is_palindrome,
    parikh,
    smallest_period,
)


def all_words(max_len: int, min_len: int = 0):
    """Every binary word with min_len <= |w| <= max_len, shortest first."""
    for n in range(min_len, max_len + 1):
        if n == 0:
            yield ""
            continue
        for bits in range(1 << n):
            yield format(bits, f"0{n}b")


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


def is_primitive(w: str) -> bool:
    """True iff w is not a proper power of a shorter word."""
    _require_nonempty(w)
    p = smallest_period(w)
    return p == len(w) or len(w) % p != 0


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


def naive_is_balanced(w: str) -> bool:
    """Definition-level balance check comparing all equal-length factors."""
    n = len(w)
    for k in range(1, n + 1):
        counts = {w[i : i + k].count("1") for i in range(n - k + 1)}
        if max(counts) - min(counts) > 1:
            return False
    return True


def scan_is_balanced(w: str) -> bool:
    """Balance by the quadratic scan for two factors two ones apart, which
    is independent of the run-length derivation behind ``is_balanced``."""
    return _imbalance_length(w) is None


def cc_is_balanced(w: str) -> bool:
    """Balance by one KMP pass and one substring search: with p the smallest
    period of w, x = w[:p] and c the lower Christoffel word of parikh(x),
    w is balanced iff x occurs in c + c, that is iff x is a conjugate of c.
    Linear, so it reaches the long words the scan cannot.

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
    on every word of at most 24 letters.
    """
    if len(w) < 2:
        return True
    if "00" in w and "11" in w:
        return False
    x = w[: smallest_period(w)]
    return x in lower_christoffel(*parikh(x)) * 2


def slope_is_christoffel_prefix(w: str) -> bool:
    """Prefix of a lower Christoffel word by the slope interval, in one pass.

    With h_i the number of ones in the length-i prefix, these are the
    words for which the slopes r with h_i = floor(i*r) for every i, the
    interval [max h_i/i, min (h_i+1)/i) over 1 <= i <= |w|, is nonempty.
    Both extremes are kept as fractions, compared by cross-multiplication,
    and the pass stops at the first prefix that empties the interval.
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


@st.composite
def mechanical_words(draw, max_len: int = 300):
    """(word, height) for the mechanical word s(i) = floor(((i+1)P + t)/Q)
    - floor((iP + t)/Q), 0 <= i < n, with 0 <= P <= Q: it is balanced and
    has floor((nP + t)/Q) - floor(t/Q) ones."""
    q = draw(st.integers(1, max_len))
    p = draw(st.integers(0, q))
    t = draw(st.integers(0, 2 * q))
    n = draw(st.integers(0, max_len))
    word = "".join(str(((i + 1) * p + t) // q - (i * p + t) // q) for i in range(n))
    return word, (n * p + t) // q - t // q


def naive_smallest_period(w: str) -> int:
    """Letter-by-letter period scan."""
    n = len(w)
    for p in range(1, n + 1):
        if all(w[i] == w[i + p] for i in range(n - p)):
            return p
    raise AssertionError("unreachable")


def naive_is_prefix_normal(w: str) -> bool:
    n = len(w)
    for k in range(1, n + 1):
        prefix_zeros = w[:k].count("0")
        if any(w[i : i + k].count("0") > prefix_zeros for i in range(n - k + 1)):
            return False
    return True


def naive_is_plc(w: str) -> bool:
    """Prefix of a lower Christoffel word: balanced and prefix normal."""
    return naive_is_balanced(w) and naive_is_prefix_normal(w)


def naive_rotation_witness(w: str) -> RotationWitness | None:
    """The first unbalanced rotation of w, trying every rotation in order."""
    for offset in range(len(w)):
        rotation = w[offset:] + w[:offset]
        if not scan_is_balanced(rotation):
            return RotationWitness(rotation, offset)
    return None


def naive_prefix_normal_witness(w: str) -> PrefixNormalWitness | None:
    """The first factor with more 0s than the equal-length prefix, by length then position."""
    n = len(w)
    zeros = [0]
    for c in w:
        zeros.append(zeros[-1] + (c == "0"))
    for k in range(1, n):
        for i in range(1, n - k + 1):
            if zeros[i + k] - zeros[i] > zeros[k]:
                return PrefixNormalWitness(w[i : i + k], i + 1, w[:k])
    return None


def naive_is_central(w: str) -> bool:
    """Coprime periods p, q with p + q = |w| + 2, each tested on its own."""
    n = len(w)
    if n == 0:
        return True
    for p in range(1, n // 2 + 2):
        q = n + 2 - p
        if gcd(p, q) == 1 and has_period(w, p) and has_period(w, q):
            return True
    return False


def naive_is_minimal_forbidden(w: str) -> bool:
    """Unbalanced while both maximal proper factors are balanced; balance is
    factorial, so that makes every proper factor balanced."""
    return not scan_is_balanced(w) and scan_is_balanced(w[:-1]) and scan_is_balanced(w[1:])


def naive_is_lyndon(w: str) -> bool:
    """Primitive and strictly least among its rotations, over all conjugates."""
    rots = conjugates(w)
    return w == min(rots) and rots.count(w) == 1


def is_conjugate_of_reversal(w: str) -> bool:
    r = w[::-1]
    return any(w[i:] + w[:i] == r for i in range(len(w)))


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def coprime_pairs(max_sum: int):
    """Every coprime pair (a, b) with a, b >= 1 and a+b <= max_sum, by sum, then a."""
    for s in range(2, max_sum + 1):
        for a in range(1, s):
            if gcd(a, s - a) == 1:
                yield a, s - a


def complement(w: str) -> str:
    return w.translate(str.maketrans("01", "10"))


@dataclass(frozen=True)
class FactorClass:
    """The one or two Parikh vectors taken by the length-k factors of a balanced word."""

    length: int
    light: Parikh
    heavy: Parikh | None = None


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


@dataclass(frozen=True)
class PowerOfLetter:
    letter: str
    count: int


@dataclass(frozen=True)
class CentralPair:
    """The unique palindromes P, Q with C = P 01 Q = Q 10 P."""

    p: str
    q: str


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


def naive_christoffel_matrix(a: int, b: int) -> tuple[str, ...]:
    """Oracle for christoffel_matrix: the rows of the table defined by columns.

    Column 1 is a zeros over b ones; each next column shifts the block of
    ones up by b positions modulo a+b.  Cell (i, j) is one modular test.
    """
    n = a + b
    return tuple(
        "".join("1" if (i - 1 - a + j * b) % n < b else "0" for j in range(n))
        for i in range(1, n + 1)
    )


def naive_unbalance_witness(w: str) -> ImbalanceWitness | None:
    """The shortest palindrome v with both 0v0 and 1v1 in w, if any.

    Tries every length of v from 0 up; ties break on the leftmost 0v0
    occurrence, then the leftmost 1v1 occurrence.  Positions are 1-based.
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


def naive_lower_christoffel(a: int, b: int) -> str:
    """Oracle for lower_christoffel: the defining letter formula.

    Letter k is '1' exactly when the segment height floor(k*b/(a+b)) rises
    at step k; for gcd(a,b)=g the result is the g-th power of the
    primitive word of the reduced slope.
    """
    if a < 0 or b < 0 or a == b == 0:
        raise ValueError(f"({a},{b}) has no Christoffel word")
    n = a + b
    return "".join(
        "1" if (k * b) // n > ((k - 1) * b) // n else "0" for k in range(1, n + 1)
    )


def naive_standard_factorization(a: int, b: int) -> Factorization:
    """Oracle for standard_factorization: the letter-formula word cut after
    b' letters, b' the inverse of b modulo a+b."""
    _, cut = period_inverses(a, b)
    w = naive_lower_christoffel(a, b)
    return Factorization(w[:cut], w[cut:], "standard")


def naive_palindromic_factorization(a: int, b: int) -> Factorization:
    """Oracle for palindromic_factorization: the letter-formula word cut
    after a' letters, a' the inverse of a modulo a+b."""
    cut, _ = period_inverses(a, b)
    w = naive_lower_christoffel(a, b)
    return Factorization(w[:cut], w[cut:], "palindromic")


def lower_christoffel_arithmetic(a: int, b: int) -> str:
    """Primitive lower Christoffel word via the sorted-multiples construction.

    Sort the positive multiples of a and of b below a*b, write '1' for each
    multiple of a and '0' for each multiple of b, then bracket with a
    leading '0' and a trailing '1'.
    """
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) must be coprime and positive")
    marks = sorted(range(a, a * b, a)) + sorted(range(b, a * b, b))
    letters = sorted((m, "1" if m % a == 0 else "0") for m in marks)
    return "0" + "".join(c for _, c in letters) + "1"


def periodic_window(alpha: int, beta: int, length: int, offset: int = 0) -> str:
    """A window of the infinite repetition of the lower Christoffel word."""
    w = lower_christoffel(alpha, beta)
    reps = (offset + length) // len(w) + 2
    return (w * reps)[offset : offset + length]


def prefix_height_lower(alpha: int, beta: int, k: int) -> int:
    """Ones in the length-k prefix of the repeated lower Christoffel word."""
    if k < 0:
        raise ValueError("prefix length must be >= 0")
    return beta * k // (alpha + beta)


def prefix_height_upper(alpha: int, beta: int, k: int) -> int:
    """Ones in the length-k prefix of the repeated upper Christoffel word."""
    if k < 0:
        raise ValueError("prefix length must be >= 0")
    return -((-beta * k) // (alpha + beta))


def count_heavy_occurrences(alpha: int, beta: int, n: int) -> int:
    """Occurrences of heavy length-n factors in any window of alpha+beta+n-1
    consecutive letters of the periodic word: n*beta mod (alpha+beta)."""
    if gcd(alpha, beta) != 1:
        raise ValueError(f"({alpha},{beta}) must be coprime")
    if n < 0:
        raise ValueError("n must be >= 0")
    return n * beta % (alpha + beta)


def brute_period_factors(alpha: int, beta: int, n: int) -> set[str]:
    """Oracle for count_period_factors by direct window enumeration."""
    if alpha < 1 or beta < 1 or n < 0:
        raise ValueError("need alpha,beta >= 1 and n >= 0")
    if n == 0:
        return set()
    m = alpha + beta
    window = periodic_window(alpha, beta, n + 2 * m)
    return {
        window[i : i + n]
        for i in range(len(window) - n + 1)
        if smallest_period(window[i : i + n]) == m
    }


def brute_heavy_factors(alpha: int, beta: int, n: int) -> set[str]:
    """Oracle for count_heavy_factors: the period factors with the larger
    ones-count, when two counts occur."""
    if gcd(alpha, beta) != 1:
        raise ValueError(f"({alpha},{beta}) must be coprime")
    m = alpha + beta
    if beta * n % m == 0:
        return set()
    heavy_ones = prefix_height_upper(alpha, beta, n)
    return {u for u in brute_period_factors(alpha, beta, n) if u.count("1") == heavy_ones}


def naive_heavy_factors(alpha: int, beta: int, n: int) -> int:
    """Oracle for count_heavy_factors: its height sums taken term by term."""
    nn = count_period_factors(alpha, beta, n)
    if nn == 0:
        return 0
    m = alpha + beta
    ai, bi = period_inverses(alpha, beta)

    def fl(k: int) -> int:
        return beta * k // m

    def ce(k: int) -> int:
        return -((-beta * k) // m)

    if n < m + min(ai, bi):
        s = sum(ce(n - i) + fl(i) for i in range(n - m + 1))
        return 2 * s - fl(n) * nn
    if m + bi <= n < m + ai:
        s = sum(fl(n - i) + ce(i) for i in range(n - ai + 1))
        return s - fl(n) * nn
    if m + ai <= n < m + bi:
        s = sum(ce(n - i) + fl(i) for i in range(n - bi + 1))
        return s - fl(n) * nn
    return n * beta % m


def term_ranges(a: int, b: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Coprime index pairs of the two sums: heavy terms over alpha, light over beta.

    Heavy: 1 <= alpha <= a and (b-1)*alpha/(a+1) < beta <= b*alpha/a.
    Light: 1 <= beta <= b and (a-1)*beta/(b+1) < alpha <= a*beta/b.
    Bounds are evaluated on integers (strict left, inclusive right).  Pairs
    with a common factor have no factor of minimal period alpha+beta, so
    they are left out; needs a, b >= 1.
    """
    heavy = []
    for alpha in range(1, a + 1):
        lo = (b - 1) * alpha // (a + 1) + 1
        hi = b * alpha // a
        heavy.extend((alpha, beta) for beta in range(lo, hi + 1) if gcd(alpha, beta) == 1)
    light = []
    for beta in range(1, b + 1):
        lo = (a - 1) * beta // (b + 1) + 1
        hi = a * beta // b
        light.extend((alpha, beta) for alpha in range(lo, hi + 1) if gcd(alpha, beta) == 1)
    return heavy, light


def naive_count_balanced_report(a: int, b: int) -> CountReport:
    """Oracle for count_balanced_report: term_ranges' pairs, each term from
    period_inverses through _period_term."""
    if a < 0 or b < 0:
        raise ValueError("need a,b >= 0")
    if a == 0 or b == 0:
        return CountReport(a, b, (), 1)
    n = a + b
    heavy, light = term_ranges(a, b)
    terms = []
    for alpha, beta in heavy:
        nv, hv = _period_term(alpha, beta, n)
        terms.append(CountTerm(alpha, beta, "heavy", nv, hv, hv))
    for alpha, beta in light:
        nv, hv = _period_term(alpha, beta, n)
        terms.append(CountTerm(alpha, beta, "light", nv, hv, nv - hv))
    return CountReport(a, b, tuple(terms), sum(t.contribution for t in terms))


def naive_enumerate_balanced(a: int, b: int) -> list[str]:
    """Oracle for enumerate_balanced: every length-(a+b) window of the
    periodic lower Christoffel word of each term pair, at each of its
    alpha+beta offsets, kept when it has b ones; united and sorted."""
    if a == 0 or b == 0:
        return ["0" * a + "1" * b]
    n = a + b
    out: set[str] = set()
    for alpha, beta in {t[:2] for t in walk_terms(a, b)}:
        m = alpha + beta
        text = lower_christoffel(alpha, beta) * (n // m + 2)
        out.update(w for i in range(m) if (w := text[i : i + n]).count("1") == b)
    return sorted(out)


def naive_plc_root(v: str) -> str:
    """Oracle for plc_root on a PLC word v: the shortest prefix of v that is a
    primitive lower Christoffel word and reproduces v when repeated."""
    for m in range(1, len(v) + 1):
        r = v[:m]
        a, b = parikh(r)
        if gcd(a, b) != 1 or r != lower_christoffel(a, b):
            continue
        reps = len(v) // m + 1
        if (r * reps).startswith(v):
            return r
    raise ValueError(f"no primitive root found for {v!r}")


def naive_farey_sequence(n: int) -> list[Fraction]:
    """Oracle for farey_sequence: every a/b with 0 <= a <= b <= n, reduced,
    deduplicated and sorted."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return sorted({Fraction(a, b) for b in range(1, n + 1) for a in range(b + 1)})


def naive_enumerate_mf(n: int) -> list[MFWord]:
    """Oracle for enumerate_mf: swap the end letters of the lower Christoffel
    word of every (a, n-a) with a, n-a >= 1 and gcd > 1 and of its reversal,
    deduplicated by word and sorted."""
    if n < 2:
        raise ValueError("minimal forbidden words have length >= 2")
    out = []
    for a in range(1, n):
        b = n - a
        if gcd(a, b) == 1:
            continue
        lower = lower_christoffel(a, b)
        for source in (lower, lower[::-1]):
            out.append(MFWord(source[-1] + source[1:-1] + source[0], source))
    dedup = {m.word: m for m in out}
    return [dedup[w] for w in sorted(dedup)]


def naive_enumerate_mab(max_len: int) -> list[str]:
    """Oracle for enumerate_mab: u^2 v^2 and its reversal over the standard
    factorization of every coprime (a, b) with 2(a+b) <= max_len."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = set()
    for m in range(2, max_len // 2 + 1):
        for a in range(1, m):
            b = m - a
            if gcd(a, b) != 1:
                continue
            f = naive_standard_factorization(a, b)
            w = f.left * 2 + f.right * 2
            out.add(w)
            out.add(w[::-1])
    return sorted(out)


def enumerate_mab_from_squares(max_len: int) -> list[str]:
    """Alternative generator: end-swapped squares of primitive Christoffel words."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = set()
    for m in range(2, max_len // 2 + 1):
        for a in range(1, m):
            b = m - a
            if gcd(a, b) != 1:
                continue
            for root in (lower_christoffel(a, b), upper_christoffel(a, b)):
                square = root * 2
                out.add(square[-1] + square[1:-1] + square[0])
    return sorted(out)


def mab_subset_check(max_len: int) -> bool:
    """Whether every minimal almost-balanced word up to max_len is minimal forbidden."""
    mab = enumerate_mab(max_len) if max_len >= 2 else []
    by_len: dict[int, set[str]] = {}
    for w in mab:
        by_len.setdefault(len(w), set()).add(w)
    for n, group in by_len.items():
        mf = {m.word for m in enumerate_mf(n)}
        if not group <= mf:
            return False
    return True
