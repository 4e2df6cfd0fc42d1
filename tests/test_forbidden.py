from pathlib import Path

import pytest

from conftest import all_words, complement, enumerate_mab_from_squares, euler_phi, mab_subset_check

from balwords.forbidden import (
    enumerate_mab,
    enumerate_mf,
    is_minimal_forbidden,
)
from balwords.words import is_lyndon, reversal

GOLDEN = Path(__file__).parent / "golden"


def brute_minimal_forbidden(n: int) -> set[str]:
    return {w for w in all_words(n, min_len=n) if is_minimal_forbidden(w)}


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
    with pytest.raises(ValueError):
        is_minimal_forbidden("")


def test_enumerate_mf_matches_brute_force():
    for n in range(2, 13):
        assert {m.word for m in enumerate_mf(n)} == brute_minimal_forbidden(n)


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


def test_mab_words_are_minimal_forbidden():
    assert mab_subset_check(16)
    assert mab_subset_check(2)


def test_mab_words_come_from_squares_only():
    for w in enumerate_mab(16):
        assert len(w) % 2 == 0
        assert is_minimal_forbidden(w)
