"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports balwords.  Each answer comes from a definition or from an
identity in the literature, coded apart from the package, so that a fast path
that drifts shows up as a failed operation instead of a speed-up.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def christoffel(a: int, b: int) -> str:
    """Lower Christoffel word with a zeros and b ones, as a residue walk mod a+b.

    Step k adds b to the residue; a wrap past a+b is an up step ('1').
    """
    n = a + b
    r, out = 0, []
    for _ in range(n):
        r += b
        if r >= n:
            r -= n
            out.append("1")
        else:
            out.append("0")
    return "".join(out)


def heights(w: str) -> list[int]:
    h = [0]
    for c in w:
        h.append(h[-1] + (c == "1"))
    return h


def imbalance_length(w: str) -> int | None:
    """Least k with two length-k factors whose ones-counts differ by 2; None if balanced."""
    n, h = len(w), heights(w)
    for k in range(2, n + 1):
        sums = [h[i + k] - h[i] for i in range(n - k + 1)]
        if max(sums) - min(sums) > 1:
            return k
    return None


def is_balanced(w: str) -> bool:
    return imbalance_length(w) is None


def witness_ok(w: str, v: str, pos0: int, pos1: int) -> bool:
    """Letter-by-letter check of a shortest imbalance witness: 0v0 at pos0, 1v1 at pos1."""
    m = len(v) + 2
    return (
        v == v[::-1]
        and w[pos0 - 1 : pos0 - 1 + m] == "0" + v + "0"
        and w[pos1 - 1 : pos1 - 1 + m] == "1" + v + "1"
        and m == imbalance_length(w)
    )


def is_circularly_balanced(w: str) -> bool:
    """Conjugate of the (possibly non-primitive) Christoffel word of its Parikh vector."""
    c = christoffel(w.count("0"), w.count("1"))
    return w in c + c


def is_prefix_normal(w: str) -> bool:
    """No factor has more zeros than the prefix of the same length."""
    n = len(w)
    z = [k - h for k, h in enumerate(heights(w))]
    return all(max(z[i + k] - z[i] for i in range(n - k + 1)) <= z[k] for k in range(1, n))


def is_central(w: str) -> bool:
    """Central words are exactly the interiors of primitive lower Christoffel words."""
    a, b = w.count("0") + 1, w.count("1") + 1
    return gcd(a, b) == 1 and "0" + w + "1" == christoffel(a, b)


def is_lyndon(w: str) -> bool:
    """Strictly smaller than each of its proper suffixes."""
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


def is_minimal_forbidden(w: str) -> bool:
    return not is_balanced(w) and is_balanced(w[:-1]) and is_balanced(w[1:])


def in_bar(w: str) -> bool:
    """Every prefix height is the floor or the ceiling of k*b/(a+b)."""
    n, b = len(w), w.count("1")
    return all((b * k) // n <= h <= -((-b * k) // n) for k, h in enumerate(heights(w)))


def totient(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def farey(n: int) -> list[tuple[int, int]]:
    """Farey sequence of order n as (numerator, denominator), by the next-term recurrence."""
    a, b, c, d = 0, 1, 1, n
    out = [(a, b)]
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append((a, b))
    return out


def farey_size(n: int) -> int:
    return 1 + sum(totient(k) for k in range(1, n + 1))


def mignosi_total(n: int) -> int:
    """Balanced words of length n (Mignosi 1991): 1 + sum_k (n-k+1) phi(k)."""
    return 1 + sum((n - k + 1) * totient(k) for k in range(1, n + 1))


def mf_zero_census(n: int) -> int:
    """Minimal forbidden words of length n that start with '0'."""
    return n - totient(n) - 1


@lru_cache(maxsize=None)
def balanced_words(a: int, b: int) -> tuple[str, ...]:
    """Brute force: depth-first over extensions, keeping a prefix only while it is balanced."""
    out = []

    def walk(w: str, zeros: int, ones: int) -> None:
        if zeros == a and ones == b:
            out.append(w)
            return
        for c, z, o in (("0", zeros + 1, ones), ("1", zeros, ones + 1)):
            if z <= a and o <= b and _extension_balanced(w + c):
                walk(w + c, z, o)

    walk("", 0, 0)
    return tuple(out)


def _extension_balanced(w: str) -> bool:
    """Whether w is balanced, given that w[:-1] is: only suffixes can break it."""
    n, h = len(w), heights(w)
    for k in range(2, n):
        s = h[n] - h[n - k]
        if any(abs(s - (h[i + k] - h[i])) > 1 for i in range(n - k)):
            return False
    return True


@lru_cache(maxsize=None)
def plc_words(n: int) -> tuple[str, ...]:
    """Length-n prefixes of lower Christoffel words, from every word of length n..2n-1."""
    return tuple(sorted({christoffel(a, m - a)[:n] for m in range(n, 2 * n) for a in range(m + 1)}))


def swap_ends(w: str) -> str:
    return w[-1] + w[1:-1] + w[0]


@lru_cache(maxsize=None)
def mab_words(max_len: int) -> tuple[str, ...]:
    """Minimal almost-balanced words: end-swapped squares of primitive Christoffel words."""
    out = set()
    for m in range(2, max_len // 2 + 1):
        for a in range(1, m):
            if gcd(a, m - a) == 1:
                r = christoffel(a, m - a)
                out.update((swap_ends(r + r), swap_ends(r[::-1] * 2)))
    return tuple(sorted(out))
