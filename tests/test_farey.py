from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from conftest import (
    all_words,
    euler_phi,
    is_left_special,
    is_primitive,
    is_unbordered,
    naive_farey_sequence,
    naive_plc_root,
    primitive_lower_christoffel_words,
)

from balwords.balance import is_balanced, prefix_normal_witness
from balwords.christoffel import lower_christoffel
from balwords import farey
from balwords.farey import (
    PlcEntry,
    enumerate_plc,
    farey_sequence,
    is_plc,
    plc_farey_bijection,
    plc_root,
)

GOLDEN = Path(__file__).parent / "golden"


def test_is_plc_known_words():
    assert is_plc("00101")
    assert is_plc("11111")
    assert not is_plc("00101001001")
    assert is_plc("0")
    with pytest.raises(ValueError):
        is_plc("")


def test_is_plc_matches_left_special_characterization():
    for w in all_words(14, min_len=1):
        expected = w == "1" * len(w) or (
            w[0] == "0" and is_balanced(w[1:]) and is_left_special(w[1:])
        )
        assert is_plc(w) == expected


def test_is_plc_at_scale():
    # A 10^5-letter prefix: two run-length derivations, where the balance
    # and prefix-normal scans would each be quadratic.
    w = lower_christoffel(61803, 100000)[:100000]
    assert is_plc(w)
    assert prefix_normal_witness(w) is None
    flipped = w[:50000] + ("1" if w[50000] == "0" else "0") + w[50001:]
    assert not is_plc(flipped)


def test_plc_root_known_values():
    assert plc_root("00010") == "0001"
    assert plc_root("00101") == "00101"
    assert plc_root("00000") == "0"
    assert plc_root("11111") == "1"
    with pytest.raises(ValueError):
        plc_root("00101001001")


def test_plc_root_matches_the_prefix_search_exhaustively():
    for n in range(1, 17):
        words = [e.word for e in enumerate_plc(n)]
        assert len(words) == 1 + sum(euler_phi(k) for k in range(1, n + 1))
        for w in words:
            assert plc_root(w) == naive_plc_root(w)
    with pytest.raises(ValueError):
        plc_root("")


def test_plc_root_at_scale():
    # naive_plc_root is quadratic in |v|, so at this length the root is
    # checked by its defining properties.
    w = lower_christoffel(61803, 100000)[:100000]
    root = plc_root(w)
    zeros, ones = root.count("0"), root.count("1")
    assert root == lower_christoffel(zeros, ones) and gcd(zeros, ones) == 1
    assert (root * (len(w) // len(root) + 1)).startswith(w)
    assert len(root) < len(w)
    periodic = (lower_christoffel(377, 610) * 102)[:100000]
    assert plc_root(periodic) == lower_christoffel(377, 610)
    flipped = w[:50000] + ("1" if w[50000] == "0" else "0") + w[50001:]
    with pytest.raises(ValueError):
        plc_root(flipped)


def test_plc_root_well_defined():
    for n in range(1, 25):
        for entry in enumerate_plc(n):
            root = entry.root
            # plc_root cuts the word at its smallest period; the walk never calls it.
            assert root == plc_root(entry.word)
            p, q = entry.fraction.numerator, entry.fraction.denominator
            assert root == lower_christoffel(q - p, p)
            assert entry.word.startswith(root[: len(entry.word)])
            assert (root * (n // len(root) + 1)).startswith(entry.word)
            assert is_primitive(root)
            assert is_unbordered(root)
            assert is_balanced(root)


def test_enumerate_plc_known_listings():
    assert [e.word for e in enumerate_plc(5)] == (GOLDEN / "enum_plc_5.txt").read_text().split()
    assert [e.word for e in enumerate_plc(1)] == ["0", "1"]
    assert [e.word for e in enumerate_plc(2)] == ["00", "01", "11"]
    with pytest.raises(ValueError):
        enumerate_plc(0)


def test_enumerate_plc_matches_prefixes_of_powers():
    for n in range(1, 13):
        expected = set()
        for m in range(1, n + 1):
            for r in primitive_lower_christoffel_words(m):
                expected.add((r * (n // m + 1))[:n])
        got = [e.word for e in enumerate_plc(n)]
        assert got == sorted(expected)


def test_plc_words_are_closed_under_prefixes():
    for entry in enumerate_plc(12):
        for k in range(1, 13):
            assert is_plc(entry.word[:k])


def test_farey_sequence_known_listings():
    f5 = farey_sequence(5)
    assert f5 == [
        Fraction(0, 1),
        Fraction(1, 5),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(4, 5),
        Fraction(1, 1),
    ]
    assert farey_sequence(1) == [Fraction(0, 1), Fraction(1, 1)]
    assert farey_sequence(2) == [Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)]
    with pytest.raises(ValueError):
        farey_sequence(0)


def test_sizes_match_totient_sums():
    total = 1
    for n in range(1, 201):
        total += euler_phi(n)
        assert len(farey_sequence(n)) == total
        assert len(enumerate_plc(n)) == total


def test_farey_sequence_matches_the_sorted_set():
    for n in range(1, 61):
        assert farey_sequence(n) == naive_farey_sequence(n)


def test_bijection_pairs_known_values():
    pairs = plc_farey_bijection(5)
    table = {e.word: f for e, f in pairs}
    assert table["00101"] == Fraction(2, 5)
    assert table["00000"] == Fraction(0, 1)
    assert table["11111"] == Fraction(1, 1)
    assert pairs[4][0].word == "00101" and pairs[4][1] == Fraction(2, 5)


def test_plc_entry_fraction_is_read_off_the_root():
    entry = PlcEntry("00101", "00101")
    assert entry.fraction == Fraction(2, 5)
    assert PlcEntry("00010", "0001").fraction == Fraction(1, 4)
    assert entry == PlcEntry("00101", "00101") and hash(entry) == hash(PlcEntry("00101", "00101"))
    assert entry != PlcEntry("00101", "01")


def test_plc_entry_is_a_named_pair():
    entry = PlcEntry("00010", "0001")
    assert PlcEntry._fields == ("word", "root")
    assert entry == ("00010", "0001") and hash(entry) == hash(("00010", "0001"))
    word, root = entry
    assert (word, root) == (entry.word, entry.root)


def test_bijection_rejects_words_out_of_lexicographic_order(monkeypatch):
    entries = enumerate_plc(5)
    first, second = entries[1], entries[2]
    entries[1] = PlcEntry(second.word, first.root)
    entries[2] = PlcEntry(first.word, second.root)
    monkeypatch.setattr(farey, "enumerate_plc", lambda n: entries)
    with pytest.raises(RuntimeError, match="does not precede"):
        plc_farey_bijection(5)


def test_bijection_rejects_a_root_off_its_farey_fraction(monkeypatch):
    entries = enumerate_plc(5)
    entries[1], entries[2] = entries[2], entries[1]
    monkeypatch.setattr(farey, "enumerate_plc", lambda n: entries)
    with pytest.raises(RuntimeError, match=r"^order mismatch at n=5: 00010 maps to 1/4, expected 1/5$"):
        plc_farey_bijection(5)


def test_bijection_preserves_order():
    for n in range(1, 31):
        pairs = plc_farey_bijection(n)
        fractions = [f for _, f in pairs]
        assert fractions == sorted(fractions)
        assert all(x < y for x, y in zip(fractions, fractions[1:]))
        assert fractions == farey_sequence(n)
