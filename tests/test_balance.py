import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_words,
    max_balanced_lyndon,
    naive_is_balanced,
    naive_is_prefix_normal,
    naive_unbalance_witness,
    words_with_parikh,
)

from balwords.balance import (
    FactorClass,
    bar_witness,
    enumerate_balanced,
    factor_classes,
    in_digital_bar,
    is_balanced,
    is_bispecial,
    is_circularly_balanced,
    is_left_special,
    is_prefix_normal,
    is_right_special,
    is_strictly_bispecial,
    prefix_normal_witness,
    rotation_witness,
    unbalance_witness,
)
from balwords.christoffel import is_central, is_lower_christoffel, lower_christoffel
from balwords.counting import brute_balanced_words
from balwords.words import Parikh, conjugates, parikh

GOLDEN = Path(__file__).parent / "golden"

binary_words = st.text(alphabet="01", max_size=18)


def test_is_balanced_known_words():
    assert is_balanced("00100101")
    assert not is_balanced("000101")
    assert is_balanced("")
    assert is_balanced("0")
    assert is_balanced("0110")


def test_is_balanced_matches_definition_exhaustively():
    for w in all_words(14):
        assert is_balanced(w) == naive_is_balanced(w)


@given(binary_words)
def test_balance_is_reversal_invariant(w):
    assert is_balanced(w) == is_balanced(w[::-1])


def test_unbalance_witness_known_values():
    found = unbalance_witness("000101")
    assert (found.v, found.pos0, found.pos1) == ("0", 1, 4)
    assert unbalance_witness("00100101") is None
    assert unbalance_witness("0110") is None


def test_unbalance_witness_soundness_exhaustively():
    for w in all_words(14):
        found = unbalance_witness(w)
        assert found == naive_unbalance_witness(w)
        assert (found is None) == is_balanced(w)
        if found is not None:
            assert found.v == found.v[::-1]
            start0, start1 = found.pos0 - 1, found.pos1 - 1
            assert w[start0 : start0 + len(found.v) + 2] == "0" + found.v + "0"
            assert w[start1 : start1 + len(found.v) + 2] == "1" + found.v + "1"


@st.composite
def flipped_christoffel_conjugates(draw):
    """A rotated Christoffel word of up to 200 letters with 0-3 letters flipped."""
    a = draw(st.integers(1, 199))
    b = draw(st.integers(1, 200 - a))
    offset = draw(st.integers(0, a + b - 1))
    word = lower_christoffel(a, b)
    letters = list(word[offset:] + word[:offset])
    for i in draw(st.lists(st.integers(0, a + b - 1), max_size=3)):
        letters[i] = "1" if letters[i] == "0" else "0"
    return "".join(letters)


@given(flipped_christoffel_conjugates())
def test_unbalance_witness_matches_the_all_lengths_search(w):
    assert unbalance_witness(w) == naive_unbalance_witness(w)


def test_unbalance_witness_prefers_the_shortest_palindrome():
    # No 11 factor, so the empty palindrome cannot witness; the next one can.
    w = "0001010"
    assert "11" not in w
    found = unbalance_witness(w)
    assert (found.v, found.pos0, found.pos1) == ("0", 1, 4)


def test_is_circularly_balanced_known_words():
    assert not is_circularly_balanced("00101010")
    assert is_circularly_balanced("00100101")
    assert not is_circularly_balanced("100010")
    with pytest.raises(ValueError):
        is_circularly_balanced("")


def test_rotation_witness_is_the_first_unbalanced_rotation():
    for w in all_words(12, min_len=1):
        found = rotation_witness(w)
        assert is_circularly_balanced(w) == (found is None)
        if found is not None:
            assert found.rotation == w[found.offset :] + w[: found.offset]
            assert not naive_is_balanced(found.rotation)
            assert all(naive_is_balanced(w[i:] + w[:i]) for i in range(found.offset))


def test_circular_balance_means_christoffel_conjugate():
    for w in all_words(14, min_len=1):
        pv = parikh(w)
        expected = w in conjugates(lower_christoffel(pv.zeros, pv.ones))
        assert is_circularly_balanced(w) == expected


def test_factor_classes_small():
    classes = factor_classes("01")
    assert classes[0] == FactorClass(0, Parikh(0, 0))
    assert classes[1] == FactorClass(1, Parikh(1, 0), Parikh(0, 1))
    assert factor_classes("000")[1] == FactorClass(1, Parikh(1, 0))
    with pytest.raises(ValueError):
        factor_classes("000101")


def test_factor_classes_heavy_shape():
    for w in ["00100101", "010010", "0110"]:
        for cls in factor_classes(w):
            if cls.heavy is not None:
                assert cls.heavy.ones == cls.light.ones + 1
                assert cls.heavy.zeros == cls.light.zeros - 1


def test_christoffel_prefixes_light_suffixes_heavy():
    w = "00100100101"
    classes = factor_classes(w)
    for k in range(1, len(w)):
        assert parikh(w[:k]) == classes[k].light
        assert classes[k].heavy is not None
        assert parikh(w[-k:]) == classes[k].heavy


def test_special_factor_predicates():
    assert is_bispecial("0100")
    assert not is_strictly_bispecial("0100")
    assert is_bispecial("010")  # 0 010 1 is a Christoffel word
    assert is_left_special("1")
    assert is_strictly_bispecial("010010010")
    assert is_strictly_bispecial("")
    with pytest.raises(ValueError):
        is_left_special("000101")


def test_bispecial_means_christoffel_interior():
    # Maximal interior of a Christoffel word: lower as 0w1 or upper as 1w0.
    for w in all_words(12):
        if not is_balanced(w):
            continue
        extension_exists = is_lower_christoffel("0" + w + "1") or is_lower_christoffel(
            ("1" + w + "0")[::-1]
        )
        assert is_bispecial(w) == extension_exists
        assert is_strictly_bispecial(w) == is_central(w)


def test_some_bispecial_words_extend_only_to_upper_words():
    assert is_bispecial("01")
    assert not is_lower_christoffel("0011")
    assert is_lower_christoffel("1010"[::-1])


def test_left_right_special_definitions():
    for w in all_words(10):
        if not is_balanced(w):
            continue
        assert is_left_special(w) == (is_balanced("0" + w) and is_balanced("1" + w))
        assert is_right_special(w) == (is_balanced(w + "0") and is_balanced(w + "1"))


def test_is_prefix_normal_known_words():
    assert is_prefix_normal("001100")
    assert not is_prefix_normal("00101001001")
    assert is_prefix_normal("0000")
    assert is_prefix_normal("")


def test_is_prefix_normal_matches_definition_exhaustively():
    for w in all_words(12):
        assert is_prefix_normal(w) == naive_is_prefix_normal(w)


def test_prefix_normal_witness_proves_its_claim():
    for w in all_words(12):
        found = prefix_normal_witness(w)
        assert is_prefix_normal(w) == (found is None)
        if found is not None:
            k, start = len(found.factor), found.position - 1
            assert w[start : start + k] == found.factor
            assert found.prefix == w[:k]
            assert found.factor.count("0") > found.prefix.count("0")


def test_in_digital_bar_known_cases():
    assert in_digital_bar("00100100101")
    assert not in_digital_bar("000011")
    with pytest.raises(ValueError):
        in_digital_bar("000")
    with pytest.raises(ValueError):
        in_digital_bar("11")


def test_bar_witness_is_the_first_prefix_outside_the_bar():
    for w in all_words(12, min_len=2):
        a, b = parikh(w)
        if a == 0 or b == 0:
            continue
        found = bar_witness(w)
        assert in_digital_bar(w) == (found is None)
        n = a + b
        for k in range(1, found.prefix_length if found else n):
            assert math.floor(Fraction(k * b, n)) <= w[:k].count("1") <= math.ceil(Fraction(k * b, n))
        if found is not None:
            k = found.prefix_length
            lo, hi = math.floor(Fraction(k * b, n)), math.ceil(Fraction(k * b, n))
            assert 1 <= k < n and found.height == w[:k].count("1")
            assert found.allowed == [lo, hi]
            assert not lo <= found.height <= hi


def test_balanced_words_stay_in_the_bar():
    for a in range(1, 9):
        for b in range(1, 9):
            for w in enumerate_balanced(a, b):
                assert in_digital_bar(w)


def test_bar_containment_does_not_imply_balance():
    # Some unbalanced path also fits between the two boundary words.
    found = None
    for a in range(1, 9):
        if found:
            break
        for b in range(1, 9):
            for w in words_with_parikh(a, b):
                if not is_balanced(w) and in_digital_bar(w):
                    found = w
                    break
            if found:
                break
    assert found is not None
    assert not is_balanced(found) and in_digital_bar(found)


def test_enumerate_balanced_known_listings():
    expected = (GOLDEN / "enum_balanced_5_3.txt").read_text().split()
    assert enumerate_balanced(5, 3) == expected
    assert enumerate_balanced(1, 0) == ["0"]
    assert enumerate_balanced(0, 3) == ["111"]
    assert enumerate_balanced(4, 2) == [
        "001001",
        "001010",
        "010001",
        "010010",
        "010100",
        "100001",
        "100010",
        "100100",
    ]
    assert enumerate_balanced(0, 0) == [""]
    with pytest.raises(ValueError):
        enumerate_balanced(-1, 2)


def test_enumerate_balanced_matches_filtered_enumeration():
    for a in range(0, 7):
        for b in range(0, 7):
            if a == 0 and b == 0:
                continue
            expected = [w for w in words_with_parikh(a, b) if naive_is_balanced(w)]
            assert enumerate_balanced(a, b) == expected


def test_enumerate_balanced_matches_search_oracle():
    # The oracle searches all words and never consults the term list.
    for n in range(0, 23):
        for a in range(0, n + 1):
            assert enumerate_balanced(a, n - a) == brute_balanced_words(a, n - a)


def test_enumeration_is_sorted_and_starts_at_lower_christoffel():
    for a in range(1, 9):
        for b in range(1, 9):
            ws = enumerate_balanced(a, b)
            assert ws == sorted(ws)
            assert ws[0] == lower_christoffel(a, b)


def test_balance_is_factorial_on_enumerated_words():
    # Prefix and suffix cover all factors by induction over the lengths.
    for n in range(2, 17):
        for a in range(0, n + 1):
            for w in enumerate_balanced(a, n - a):
                assert is_balanced(w[1:])
                assert is_balanced(w[:-1])


def test_max_balanced_lyndon_is_the_christoffel_word():
    assert max_balanced_lyndon(5, 3) == "00100101"
    assert max_balanced_lyndon(1, 1) == "01"
    assert max_balanced_lyndon(7, 4) == "00100100101"
    with pytest.raises(ValueError):
        max_balanced_lyndon(4, 2)


@given(binary_words)
def test_random_factors_of_balanced_words_are_balanced(w):
    if is_balanced(w):
        for i in range(0, len(w), 3):
            for j in range(i, len(w) + 1, 2):
                assert is_balanced(w[i:j])
