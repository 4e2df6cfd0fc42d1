from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_words,
    complement,
    enumerate_mab_from_squares,
    euler_phi,
    mab_subset_check,
    naive_enumerate_mab,
    naive_enumerate_mf,
    naive_is_minimal_forbidden,
)

from balwords.christoffel import _christoffel_tree, lower_christoffel
from balwords.forbidden import (
    MFWord,
    enumerate_mab,
    enumerate_mf,
    is_minimal_forbidden,
)
from balwords.words import is_lyndon, parikh, reversal

GOLDEN = Path(__file__).parent / "golden"


def brute_minimal_forbidden(n: int) -> set[str]:
    return {w for w in all_words(n, min_len=n) if naive_is_minimal_forbidden(w)}


def test_enumerate_mf_length_six():
    found = enumerate_mf(6)
    assert [m.word for m in found] == (GOLDEN / "enum_mf_6.txt").read_text().split()
    by_word = {m.word: m for m in found}
    assert by_word["000101"].source == "100100"
    assert by_word["000101"].swap == ("1", "0")
    assert by_word["101000"].source == "001001"
    with pytest.raises(ValueError):
        enumerate_mf(1)


def test_enumerate_mf_length_nine_contains_cube_swap():
    by_word = {m.word: m for m in enumerate_mf(9)}
    assert "000100101" in by_word
    assert by_word["000100101"].source == "100100100"


def test_sources_reassemble_from_word_and_swap():
    for n in range(2, 15):
        for m in enumerate_mf(n):
            x, y = m.swap
            assert m.source == x + m.word[1:-1] + y
            assert m.word == y + m.source[1:-1] + x


def test_is_minimal_forbidden_known_words():
    assert is_minimal_forbidden("000101")
    assert is_minimal_forbidden("000100101")
    assert not is_minimal_forbidden("0000101")
    assert not is_minimal_forbidden("0101")
    # letter powers: balanced, and their end letters are equal
    assert not is_minimal_forbidden("0")
    assert not is_minimal_forbidden("00")
    assert not is_minimal_forbidden("1111")
    with pytest.raises(ValueError):
        is_minimal_forbidden("")


@st.composite
def flipped_swapped_christoffel_powers(draw):
    """The lower or upper Christoffel word of (k*p, k*q), k >= 2, with its
    ends swapped and 0-2 letters flipped."""
    p = draw(st.integers(1, 30))
    q = draw(st.integers(1, 30))
    k = draw(st.integers(2, 6))
    source = lower_christoffel(k * p, k * q)
    if draw(st.booleans()):
        source = source[::-1]
    letters = list(source[-1] + source[1:-1] + source[0])
    for i in draw(st.lists(st.integers(0, len(letters) - 1), max_size=2)):
        letters[i] = "1" if letters[i] == "0" else "0"
    return "".join(letters)


@given(flipped_swapped_christoffel_powers())
def test_is_minimal_forbidden_matches_the_definition(w):
    assert is_minimal_forbidden(w) == naive_is_minimal_forbidden(w)


def test_is_minimal_forbidden_at_scale():
    # The definition's balance scans are quadratic; 10^5 letters is one
    # Christoffel word compared.
    source = lower_christoffel(61802, 100000)
    w = source[-1] + source[1:-1] + source[0]
    assert is_minimal_forbidden(w)
    flipped = w[:80000] + ("1" if w[80000] == "0" else "0") + w[80001:]
    assert not is_minimal_forbidden(flipped)


def test_enumerate_mf_matches_brute_force():
    for n in range(2, 13):
        assert [m.word for m in enumerate_mf(n)] == sorted(brute_minimal_forbidden(n))


def test_enumerate_mf_matches_the_dedup_oracle():
    for n in range(2, 121):
        assert enumerate_mf(n) == naive_enumerate_mf(n)


def test_enumerate_mf_is_built_in_order():
    # enumerate_mf lists the upper-sourced words (first letter 0) and then the
    # lower-sourced ones, each with a running from n-1 down to 1, and sorts.
    # The sort must find nothing to move, and no word may occur twice.
    for n in range(2, 400):
        lowers = [lower_christoffel(a, n - a) for a in range(n - 1, 0, -1) if gcd(a, n) > 1]
        order = ["0" + c[-2:0:-1] + "1" for c in lowers] + ["1" + c[1:-1] + "0" for c in lowers]
        assert all(x < y for x, y in zip(order, order[1:]))
        found = enumerate_mf(n)
        assert [m.word for m in found] == order
        if n <= 300:
            assert len(found) == 2 * (n - 1 - euler_phi(n))
            for m in found:
                lower = lower_christoffel(*parikh(m.source))
                assert m.source in (lower, lower[::-1])


def test_mf_word_is_a_named_pair():
    m = MFWord("000101", "100100")
    assert MFWord._fields == ("word", "source")
    assert m == ("000101", "100100") and hash(m) == hash(("000101", "100100"))
    assert m.swap == ("1", "0")
    with pytest.raises(AttributeError):
        m.swap = ("0", "1")


def test_zero_starting_count_and_lyndon():
    for n in range(2, 17):
        zero_start = [m.word for m in enumerate_mf(n) if m.word.startswith("0")]
        assert len(zero_start) == n - euler_phi(n) - 1
        for w in zero_start:
            assert is_lyndon(w)


def test_mf_set_is_closed_under_reversal_and_complement():
    for n in range(2, 15):
        words = {m.word for m in enumerate_mf(n)}
        assert {reversal(w) for w in words} == words
        assert {complement(w) for w in words} == words


def test_enumerate_mab_known_members():
    mab = enumerate_mab(12)
    assert "000101" in mab
    assert "101000" in mab
    assert "0011" in mab and "1100" in mab
    assert "000100101" not in enumerate_mab(18)
    assert mab == sorted(mab)
    with pytest.raises(ValueError):
        enumerate_mab(1)


def test_mab_generators_agree():
    for max_len in range(2, 17):
        assert enumerate_mab(max_len) == enumerate_mab_from_squares(max_len)


def test_enumerate_mab_is_built_in_order():
    # enumerate_mab lists u u v v over the Christoffel-tree walk to max_len // 2,
    # then the reversals, and sorts.  The walk to k yields the nodes of the walk
    # to 200 with |uv| <= k, in the same order, so the strictly increasing order
    # at 200 holds for every max_len <= 400 as well.
    nodes = list(_christoffel_tree(200))
    for k in (1, 2, 3, 10, 31, 64, 127, 199):
        assert list(_christoffel_tree(k)) == [node for node in nodes if len(node[2]) <= k]
    squares = [u + u + v + v for u, v, _ in nodes]
    order = squares + [w[::-1] for w in squares]
    assert all(x < y for x, y in zip(order, order[1:]))
    assert enumerate_mab(400) == order
    order = [w for w in order if len(w) <= 128]
    for max_len in range(2, 129):
        assert enumerate_mab(max_len) == [w for w in order if len(w) <= max_len]


def test_enumerate_mab_matches_the_factorization_loop():
    for max_len in range(2, 81):
        assert enumerate_mab(max_len) == naive_enumerate_mab(max_len)


def test_mab_words_are_minimal_forbidden():
    assert mab_subset_check(16)
    assert mab_subset_check(2)


def test_mab_words_come_from_squares_only():
    for w in enumerate_mab(16):
        assert len(w) % 2 == 0
        assert naive_is_minimal_forbidden(w)
