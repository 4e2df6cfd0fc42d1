from math import gcd
from pathlib import Path

import pytest

from conftest import all_words, euler_phi, lower_christoffel_arithmetic, naive_is_balanced

from balwords.christoffel import (
    CentralPair,
    PowerOfLetter,
    central_decompose,
    central_word,
    christoffel_matrix,
    is_central,
    is_primitive_lower_christoffel,
    lower_christoffel,
    period_inverses,
    palindromic_factorization,
    primitive_lower_christoffel_words,
    standard_factorization,
    upper_christoffel,
)
from balwords.words import is_lyndon, is_palindrome, is_unbordered, reversal

GOLDEN = Path(__file__).parent / "golden"

W74 = "00100100101"


def coprime_pairs(max_sum, min_coord=1):
    for s in range(2 * min_coord, max_sum + 1):
        for a in range(min_coord, s - min_coord + 1):
            if gcd(a, s - a) == 1:
                yield a, s - a


def test_lower_christoffel_known_words():
    assert lower_christoffel(7, 4) == W74
    assert lower_christoffel(1, 0) == "0"
    assert lower_christoffel(0, 1) == "1"
    assert lower_christoffel(4, 2) == "001001"
    assert lower_christoffel(5, 3) == "00100101"
    with pytest.raises(ValueError):
        lower_christoffel(0, 0)


def test_lower_christoffel_of_multiple_is_a_power():
    for a, b in coprime_pairs(12):
        for g in range(2, 4):
            assert lower_christoffel(g * a, g * b) == lower_christoffel(a, b) * g


def test_arithmetic_construction_known_words():
    assert lower_christoffel_arithmetic(7, 4) == W74
    assert lower_christoffel_arithmetic(1, 1) == "01"
    assert lower_christoffel_arithmetic(5, 3) == "00100101"
    with pytest.raises(ValueError):
        lower_christoffel_arithmetic(4, 2)
    with pytest.raises(ValueError):
        lower_christoffel_arithmetic(0, 1)


def test_arithmetic_construction_agrees_with_staircase():
    for a, b in coprime_pairs(60):
        assert lower_christoffel_arithmetic(a, b) == lower_christoffel(a, b)


def test_upper_christoffel_is_reversal():
    assert upper_christoffel(7, 4) == "10100100100"
    assert upper_christoffel(0, 1) == "1"
    assert upper_christoffel(5, 3) == "10100100"


def test_primitive_words_are_balanced_unbordered_lyndon():
    for a, b in coprime_pairs(40):
        w = lower_christoffel(a, b)
        assert naive_is_balanced(w)
        assert is_unbordered(w)
        assert is_lyndon(w)


def test_central_word_known_values():
    assert central_word(7, 4) == "010010010"
    assert central_word(1, 1) == ""
    assert central_word(2, 1) == "0"
    with pytest.raises(ValueError):
        central_word(4, 2)
    with pytest.raises(ValueError):
        central_word(1, 0)


def test_is_central():
    assert is_central("010010")
    assert is_central("010010010")
    assert not is_central("001")
    assert is_central("")
    assert is_central("0")
    assert is_central("000")


def test_central_words_are_palindromes():
    for w in all_words(12):
        if is_central(w):
            assert is_palindrome(w)


def test_central_decompose_known_values():
    assert central_decompose("010010") == CentralPair("010", "0")
    assert central_decompose("000") == PowerOfLetter("0", 3)
    assert central_decompose("010010010") == CentralPair("010010", "0")
    with pytest.raises(ValueError):
        central_decompose("001")


def test_central_decompose_round_trip_exhaustively():
    for w in all_words(14):
        if not is_central(w):
            continue
        parts = central_decompose(w)
        if isinstance(parts, PowerOfLetter):
            assert w == parts.letter * parts.count
            continue
        p, q = parts.p, parts.q
        assert p + "01" + q == w == q + "10" + p
        assert is_central(p) and is_central(q)
        assert gcd(len(p) + 2, len(q) + 2) == 1
        assert len(p) + len(q) + 2 == len(w)


def test_period_inverses_known_values():
    assert period_inverses(7, 4) == (8, 3)
    assert period_inverses(1, 1) == (1, 1)
    assert period_inverses(5, 3) == (5, 3)
    with pytest.raises(ValueError):
        period_inverses(4, 2)


def test_period_inverses_are_inverses_and_sum():
    for a, b in coprime_pairs(30):
        ai, bi = period_inverses(a, b)
        n = a + b
        assert a * ai % n == 1 and b * bi % n == 1
        assert ai + bi == n


def test_palindromic_factorization_known_values():
    assert palindromic_factorization(7, 4).left == "00100100"
    assert palindromic_factorization(7, 4).right == "101"
    assert palindromic_factorization(1, 1).left == "0"
    assert palindromic_factorization(1, 1).right == "1"
    assert palindromic_factorization(2, 1).left == "00"
    assert palindromic_factorization(2, 1).right == "1"


def test_palindromic_factorization_properties():
    for a, b in coprime_pairs(40):
        f = palindromic_factorization(a, b)
        assert f.kind == "palindromic"
        assert f.word == lower_christoffel(a, b)
        assert is_palindrome(f.left) and is_palindrome(f.right)
        assert f.right + f.left == upper_christoffel(a, b)
        assert (len(f.left), len(f.right)) == period_inverses(a, b)


def test_standard_factorization_known_values():
    assert standard_factorization(7, 4).left == "001"
    assert standard_factorization(7, 4).right == "00100101"
    assert standard_factorization(1, 1).left == "0"
    assert standard_factorization(1, 1).right == "1"
    assert standard_factorization(2, 1).left == "0"
    assert standard_factorization(2, 1).right == "01"


def test_standard_factorization_properties():
    for a, b in coprime_pairs(60):
        f = standard_factorization(a, b)
        w = lower_christoffel(a, b)
        assert f.kind == "standard"
        assert f.word == w
        assert is_primitive_lower_christoffel(f.left)
        assert is_primitive_lower_christoffel(f.right)
        assert f.right == min(w[i:] for i in range(1, len(w)))
        # part lengths are again the two inverse periods
        assert sorted((len(f.left), len(f.right))) == sorted(period_inverses(a, b))


def test_standard_factorization_matches_central_split():
    # For interior P 01 Q the parts are 0Q1 and 0P1.
    for a, b in coprime_pairs(30):
        parts = central_decompose(central_word(a, b))
        f = standard_factorization(a, b)
        if isinstance(parts, CentralPair):
            assert f.left == "0" + parts.q + "1"
            assert f.right == "0" + parts.p + "1"


def test_christoffel_matrix_reproduces_known_table():
    expected = (GOLDEN / "gen_matrix_7_4.txt").read_text().split()
    m = christoffel_matrix(7, 4)
    assert list(m.rows) == expected
    assert m.order == 11
    assert m.as_text() == "\n".join(expected)


def test_christoffel_matrix_small_cases():
    assert list(christoffel_matrix(1, 1).rows) == ["01", "10"]
    m = christoffel_matrix(4, 2)
    assert len(m.rows) == 6
    assert len(set(m.rows)) == 3
    with pytest.raises(ValueError):
        christoffel_matrix(0, 2)


def test_christoffel_matrix_rows_are_sorted_conjugates():
    for a in range(1, 8):
        for b in range(1, 8):
            m = christoffel_matrix(a, b)
            w = lower_christoffel(a, b)
            assert m.rows[0] == w
            assert m.rows[-1] == upper_christoffel(a, b)
            assert list(m.rows) == sorted(m.rows)
            assert set(m.rows) == {w[i:] + w[:i] for i in range(len(w))}
            assert (len(set(m.rows)) == a + b) == (gcd(a, b) == 1)


def test_christoffel_matrix_consecutive_rows_single_swap_when_primitive():
    for a, b in coprime_pairs(12):
        rows = christoffel_matrix(a, b).rows
        for r, s in zip(rows, rows[1:]):
            diff = [k for k in range(len(r)) if r[k] != s[k]]
            assert len(diff) == 2 and diff[1] == diff[0] + 1
            assert r[diff[0] : diff[0] + 2] == "01"
            assert s[diff[0] : diff[0] + 2] == "10"


def test_primitive_lower_christoffel_census():
    assert primitive_lower_christoffel_words(1) == ["0", "1"]
    for n in range(2, 31):
        ws = primitive_lower_christoffel_words(n)
        assert ws == sorted(ws)
        assert len(set(ws)) == euler_phi(n)
        for w in ws:
            assert is_primitive_lower_christoffel(w)


def test_reversal_duality():
    for a, b in coprime_pairs(20):
        assert upper_christoffel(a, b) == reversal(lower_christoffel(a, b))
