import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_words,
    has_period,
    is_conjugate_of_reversal,
    is_primitive,
    is_unbordered,
    naive_is_lyndon,
    naive_smallest_period,
    two_palindrome_splits,
)

from balwords.words import (
    Parikh,
    check_word,
    conjugates,
    is_lyndon,
    is_palindrome,
    parikh,
    reversal,
    smallest_period,
)

binary_words = st.text(alphabet="01", max_size=16)
nonempty_words = st.text(alphabet="01", min_size=1, max_size=16)


def test_parikh_counts():
    assert parikh("00100100101") == Parikh(7, 4)
    assert parikh("") == Parikh(0, 0)
    assert parikh("01011") == Parikh(2, 3)


@given(binary_words)
def test_parikh_components_sum_to_length(w):
    pv = parikh(w)
    assert pv.zeros + pv.ones == len(w) == pv.length


def test_check_word_rejects_other_letters():
    assert check_word("0101") == "0101"
    assert check_word("") == ""
    with pytest.raises(ValueError):
        check_word("01a1")


def test_smallest_period_known_values():
    assert smallest_period("010010") == 3
    assert smallest_period("00100100101") == 11
    assert smallest_period("0000") == 1
    with pytest.raises(ValueError):
        smallest_period("")


def test_smallest_period_matches_naive_scan_exhaustively():
    for w in all_words(16, min_len=1):
        assert smallest_period(w) == naive_smallest_period(w)


def test_period_border_duality():
    # p < |w| is a period iff the length |w|-p prefix is a border.
    for w in all_words(10, min_len=1):
        n = len(w)
        for p in range(1, n):
            is_border = w.startswith(w[p:]) and w.endswith(w[p:])
            assert has_period(w, p) == is_border


def test_is_unbordered():
    assert is_unbordered("00100100101")
    assert not is_unbordered("010010")
    assert is_unbordered("0")


def test_conjugates_rotation_order():
    assert conjugates("01") == ["01", "10"]
    assert conjugates("0101") == ["0101", "1010", "0101", "1010"]
    assert len(set(conjugates("00100101"))) == 8


@given(nonempty_words)
def test_conjugates_distinct_iff_primitive(w):
    assert (len(set(conjugates(w))) == len(w)) == is_primitive(w)


def test_is_primitive():
    assert not is_primitive("001001")
    assert is_primitive("00101")
    assert is_primitive("0")


def test_reversal():
    assert reversal("00100100101") == "10100100100"
    assert reversal("010010010") == "010010010"
    assert reversal("") == ""


@given(binary_words)
def test_reversal_is_an_involution(w):
    assert reversal(reversal(w)) == w
    assert is_palindrome(w) == (w == reversal(w))


def test_is_palindrome():
    assert is_palindrome("010010010")
    assert not is_palindrome("001")
    assert is_palindrome("")


def test_two_palindrome_splits_known_values():
    assert 8 in two_palindrome_splits("00100100101")
    assert two_palindrome_splits("01") == [1]
    assert two_palindrome_splits("0011") == [2]
    with pytest.raises(ValueError):
        two_palindrome_splits("")


def test_two_palindrome_splits_iff_conjugate_of_reversal():
    for w in all_words(14, min_len=1):
        assert bool(two_palindrome_splits(w)) == is_conjugate_of_reversal(w)


def test_is_lyndon():
    assert is_lyndon("00100100101")
    assert not is_lyndon("10")
    assert not is_lyndon("0101")


def test_is_lyndon_matches_the_conjugate_minimum_exhaustively():
    for w in all_words(16, min_len=1):
        assert is_lyndon(w) == naive_is_lyndon(w)


def test_is_lyndon_equals_primitive_strict_minimum():
    for w in all_words(14, min_len=1):
        expected = is_primitive(w) and all(
            w < w[i:] + w[:i] for i in range(1, len(w))
        )
        assert is_lyndon(w) == expected
