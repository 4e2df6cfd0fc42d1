import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FactorClass,
    all_words,
    cc_is_balanced,
    euler_phi,
    factor_classes,
    is_bispecial,
    is_left_special,
    is_lower_christoffel,
    is_right_special,
    is_strictly_bispecial,
    max_balanced_lyndon,
    mechanical_words,
    naive_enumerate_balanced,
    naive_is_balanced,
    naive_is_plc,
    naive_is_prefix_normal,
    naive_prefix_normal_witness,
    naive_rotation_witness,
    naive_unbalance_witness,
    scan_is_balanced,
    slope_is_christoffel_prefix,
    words_with_parikh,
)

from balwords.balance import (
    bar_witness,
    enumerate_balanced,
    in_digital_bar,
    is_balanced,
    is_christoffel_prefix,
    is_circularly_balanced,
    is_prefix_normal,
    prefix_normal_witness,
    rotation_witness,
    unbalance_witness,
)
from balwords.christoffel import is_central, lower_christoffel
from balwords.counting import brute_balanced_words, walk_terms
from balwords.words import Parikh, conjugates, parikh

GOLDEN = Path(__file__).parent / "golden"

binary_words = st.text(alphabet="01", max_size=18)


def test_is_balanced_known_words():
    assert is_balanced("00100101")
    assert not is_balanced("000101")
    assert is_balanced("0110")
    for w in ("", "0", "1", "01", "10", "00000", "1111111"):
        assert is_balanced(w) and scan_is_balanced(w)
    # A non-primitive conjugate of 001001.
    w = lower_christoffel(4, 2)[2:] + lower_christoffel(4, 2)[:2]
    assert w == "100100"
    assert is_balanced(w)
    assert not is_balanced("0010011")  # 00 and 11: the early exit
    # Each branch of the run-length derivation, with 1s isolated, runs
    # k or k+1 and sigma(a) = 1 0^k, sigma(b) = 1 0^(k+1).
    accepted = [
        "11011",  # 11 and no 00: exchanged to 00100, which has one 1
        "1101101",  # exchanged to 0010010, whose end runs are dropped
        "0001000",  # at most one 1 after no exchange
        "0010100",  # k = 1, head and tail 00 = 0^(k+1): forced b's, 101
        "00101",  # a forced head b only: 10
        "10100",  # a forced tail b only: 01
        "01010",  # end runs of 1 <= k are dropped: 0
        "010010101",  # a head run of k = 1 is dropped: 100, where b100 fails
        "100101",  # a run of r_1 - 1 = 1 occurs, so k = 1, not r_1 = 2
        "0010010100",  # k = r_1 - 1 with both ends forced: 1101, exchanged
    ]
    rejected = [
        "1010001",  # an interior run of k + 2 = 3 leaves a 0 in the kinds
        "1001010001",  # three run lengths 2, 1, 3: k = 1 and a 0 left over
        "0001010",  # an end run of k + 2 = 3
        "10101001001",  # derives to 0011, which has 00 and 11
        "00101001010101",  # the forced head b decides: b + abaaa = 101000
        "10101010010100",  # its reversal: the forced tail b decides
    ]
    for w in accepted:
        assert is_balanced(w) and scan_is_balanced(w), w
    for w in rejected:
        assert not is_balanced(w) and not scan_is_balanced(w), w


def test_is_balanced_matches_definition_exhaustively():
    for w in all_words(14):
        assert is_balanced(w) == naive_is_balanced(w)


def test_is_balanced_matches_the_scan_exhaustively():
    for w in all_words(16):
        assert is_balanced(w) == scan_is_balanced(w)


def test_is_balanced_at_scale():
    # 100,000 letters: about log2(n) rounds of the derivation, each a few
    # str passes.
    c = lower_christoffel(61803, 38197)
    w = c[40000:] + c[:40000]
    assert is_balanced(w)
    # Turning a 1 into a 0 makes a run of 0s too long, and no 11 appears,
    # so the 00-and-11 exit does not decide it.
    i = w.index("1", 50000)
    flipped = w[:i] + "0" + w[i + 1 :]
    assert "11" not in flipped
    assert not is_balanced(flipped)
    assert not scan_is_balanced(flipped)


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
def flipped_christoffel_words(draw, max_len):
    """A rotation or a prefix of a Christoffel word of up to max_len letters,
    with 0-3 letters flipped."""
    a = draw(st.integers(0, max_len - 1))
    b = draw(st.integers(1 if a == 0 else 0, max_len - a))
    word = lower_christoffel(a, b)
    n = len(word)
    if draw(st.booleans()):
        offset = draw(st.integers(0, n - 1))
        word = word[offset:] + word[:offset]
    else:
        word = word[: draw(st.integers(1, n))]
    letters = list(word)
    for i in draw(st.lists(st.integers(0, len(word) - 1), max_size=3)):
        letters[i] = "1" if letters[i] == "0" else "0"
    return "".join(letters)


@given(flipped_christoffel_words(200))
def test_unbalance_witness_matches_the_all_lengths_search(w):
    assert unbalance_witness(w) == naive_unbalance_witness(w)


@given(flipped_christoffel_words(300))
def test_is_balanced_matches_the_scan_on_flipped_christoffel_words(w):
    assert is_balanced(w) == scan_is_balanced(w)


@given(mechanical_words())
def test_mechanical_words_are_balanced(drawn):
    w, height = drawn
    assert w.count("1") == height
    assert is_balanced(w)
    assert scan_is_balanced(w)


@given(mechanical_words(5000), st.lists(st.floats(0, 1, exclude_max=True), max_size=2))
def test_is_balanced_matches_the_cc_oracle_on_long_mechanical_words(drawn, flips):
    # Up to 5,000 letters, where the quadratic scan is too slow, each word
    # with 0-2 letters flipped at the drawn fractions of its length.
    letters = list(drawn[0])
    for x in flips if letters else ():
        i = int(x * len(letters))
        letters[i] = "1" if letters[i] == "0" else "0"
    w = "".join(letters)
    assert is_balanced(w) == cc_is_balanced(w)


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


def test_rotation_witness_matches_the_rotation_loop_exhaustively():
    for w in all_words(14, min_len=1):
        assert rotation_witness(w) == naive_rotation_witness(w)


@settings(deadline=None)  # the rotation-loop oracle is cubic: about 0.1 s at 120 letters
@given(flipped_christoffel_words(120))
def test_rotation_witness_matches_the_rotation_loop(w):
    assert rotation_witness(w) == naive_rotation_witness(w)


def test_rotation_witness_rejects_at_scale():
    # Balanced but not circularly balanced: 615 balanced rotations are
    # tried before the first unbalanced one.
    w = lower_christoffel(1000, 1003)[:-613]
    assert len(w) == 1390
    found = rotation_witness(w)
    assert found.offset == 615
    assert found.rotation == w[615:] + w[:615]
    assert not scan_is_balanced(found.rotation)
    # Rotations 0..614 are the factors of length 1390 of w + w[:614], and
    # balance is factorial, so one scan of that word covers them all.
    assert scan_is_balanced(w + w[:614])


def test_circular_balance_at_scale():
    # A non-primitive conjugate of 4096 letters: one C+C search, where
    # scanning its rotations would take hours.
    c = lower_christoffel(1500, 2596)
    assert is_circularly_balanced(c[1000:] + c[:1000])
    flipped = "1" + c[1:]
    assert not is_circularly_balanced(flipped[1000:] + flipped[:1000])


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


def test_christoffel_prefix_and_prefix_normal_witness_match_oracles_exhaustively():
    assert is_christoffel_prefix("")
    for w in all_words(16):
        expected = naive_prefix_normal_witness(w)
        assert prefix_normal_witness(w) == expected
        # naive_is_plc, with the prefix-normal half already computed above.
        assert is_christoffel_prefix(w) == (expected is None and naive_is_balanced(w))


@given(flipped_christoffel_words(300))
def test_christoffel_prefix_and_prefix_normal_witness_match_oracles(w):
    assert is_christoffel_prefix(w) == naive_is_plc(w)
    assert prefix_normal_witness(w) == naive_prefix_normal_witness(w)


@given(
    st.integers(0, 5000),
    st.integers(1, 5000),
    st.floats(0, 1),
    st.lists(st.floats(0, 1, exclude_max=True), max_size=2),
)
def test_is_christoffel_prefix_matches_the_slope_oracle_on_long_prefixes(a, b, cut, flips):
    # A prefix of a Christoffel word of up to 10,000 letters, with 0-2
    # letters flipped at the drawn fractions of its length.
    c = lower_christoffel(a, b)
    letters = list(c[: max(1, int(cut * len(c)))])
    for x in flips:
        i = int(x * len(letters))
        letters[i] = "1" if letters[i] == "0" else "0"
    w = "".join(letters)
    assert is_christoffel_prefix(w) == slope_is_christoffel_prefix(w)


def test_is_christoffel_prefix_at_scale():
    # 100,000 letters of the word of (3*61803+1, 3*38197): two run-length
    # derivations accept it, and each one-letter flip in the middle, 0 to 1
    # or 1 to 0, is rejected, as the slope oracle agrees.
    w = lower_christoffel(3 * 61803 + 1, 3 * 38197)[:100000]
    assert is_christoffel_prefix(w) and slope_is_christoffel_prefix(w)
    for letter in "01":
        i = w.index(letter, 50000)
        flipped = w[:i] + ("1" if letter == "0" else "0") + w[i + 1 :]
        assert not is_christoffel_prefix(flipped)
        assert not slope_is_christoffel_prefix(flipped)


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
            assert found.allowed == (lo, hi)
            assert not lo <= found.height <= hi


def test_every_witness_type_hashes_consistently_with_equality():
    for scan, word, other in [
        (unbalance_witness, "000101", "0011"),
        (rotation_witness, "0011", "000111"),
        (prefix_normal_witness, "1100", "1010"),
        (bar_witness, "000011", "110000"),
    ]:
        found = scan(word)
        again = scan(word)
        assert found is not None and found is not again
        assert found == again and hash(found) == hash(again)
        assert len({found, again, scan(other)}) == 2


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
        total = 0
        for a in range(0, n + 1):
            found = brute_balanced_words(a, n - a)
            assert enumerate_balanced(a, n - a) == found
            total += len(found)
        # Mignosi: 1 + sum over k <= n of (n-k+1) phi(k) balanced words of length n.
        assert total == 1 + sum((n - k + 1) * euler_phi(k) for k in range(1, n + 1))


def test_enumerate_balanced_matches_the_all_offsets_scan():
    for a in range(0, 31):
        for b in range(0, 31):
            assert enumerate_balanced(a, b) == naive_enumerate_balanced(a, b)


def test_every_term_window_has_q_or_q_plus_one_ones():
    # enumerate_balanced takes the windows with b ones from one of the two
    # classes q and q+1, so b must be one of them for every walked term.
    for a in range(1, 120):
        for b in range(1, 120):
            for alpha, beta, _, _, _ in walk_terms(a, b):
                q = (a + b) * beta // (alpha + beta)
                assert b in (q, q + 1)


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
