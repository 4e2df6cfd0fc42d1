from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_heavy_factors, brute_period_factors, periodic_window

from balwords.balance import enumerate_balanced
from balwords.christoffel import period_inverses
from balwords.counting import (
    CountTerm,
    brute_count_balanced,
    count_balanced,
    count_balanced_report,
    count_heavy_factors,
    count_heavy_occurrences,
    count_period_factors,
    prefix_height_lower,
    prefix_height_upper,
)
from balwords.words import parikh, smallest_period


def coprime_pairs(max_sum):
    for s in range(2, max_sum + 1):
        for alpha in range(1, s):
            if gcd(alpha, s - alpha) == 1:
                yield alpha, s - alpha


def test_count_period_factors_known_values():
    assert count_period_factors(3, 2, 8) == 5
    assert count_period_factors(4, 3, 8) == 4
    assert count_period_factors(4, 2, 8) == 0
    assert count_period_factors(5, 3, 8) == 2
    assert count_period_factors(2, 1, 8) == 3
    assert count_period_factors(2, 1, 2) == 0


def test_count_heavy_factors_known_values():
    assert count_heavy_factors(2, 1, 8) == 2
    assert count_heavy_factors(3, 2, 8) == 1
    assert count_heavy_factors(4, 3, 8) == 2
    assert count_heavy_factors(5, 2, 8) == 2
    assert count_heavy_factors(5, 3, 8) == 0
    assert count_heavy_factors(4, 2, 8) == 0


def test_prefix_heights():
    assert prefix_height_lower(7, 4, 11) == 4
    assert prefix_height_upper(7, 4, 11) == 4
    assert prefix_height_lower(7, 4, 3) == 1
    assert prefix_height_lower(2, 1, 0) == 0
    assert prefix_height_upper(2, 1, 0) == 0


def test_prefix_heights_match_the_boundary_words():
    from balwords.christoffel import upper_christoffel

    for alpha, beta in coprime_pairs(10):
        low = periodic_window(alpha, beta, 40)
        up = (upper_christoffel(alpha, beta) * 42)[:40]
        for k in range(0, 41):
            assert prefix_height_lower(alpha, beta, k) == low[:k].count("1")
            assert prefix_height_upper(alpha, beta, k) == up[:k].count("1")


def test_count_heavy_occurrences_known_values():
    assert count_heavy_occurrences(2, 1, 8) == 2
    assert count_heavy_occurrences(5, 3, 0) == 0
    assert count_heavy_occurrences(5, 3, 8) == 0
    with pytest.raises(ValueError):
        count_heavy_occurrences(4, 2, 8)


def test_heavy_occurrence_count_matches_sliding_windows():
    for alpha, beta in coprime_pairs(10):
        m = alpha + beta
        for n in range(0, 25):
            expected = count_heavy_occurrences(alpha, beta, n)
            heavy = prefix_height_upper(alpha, beta, n)
            light = prefix_height_lower(alpha, beta, n)
            for offset in range(m):
                window = periodic_window(alpha, beta, m + n - 1, offset)
                occurrences = sum(
                    1
                    for i in range(m)
                    if heavy != light and window[i : i + n].count("1") == heavy
                )
                assert occurrences == expected


def test_brute_period_factors_known_sets():
    assert brute_period_factors(2, 1, 8) == {"00100100", "01001001", "10010010"}
    assert brute_period_factors(1, 1, 3) == {"010", "101"}
    assert len(brute_period_factors(3, 2, 8)) == 5
    assert brute_period_factors(2, 1, 0) == set()


def test_brute_heavy_factors_known_sets():
    assert brute_heavy_factors(2, 1, 8) == {"01001001", "10010010"}
    assert brute_heavy_factors(5, 3, 8) == set()
    assert len(brute_heavy_factors(3, 2, 8)) == 1
    with pytest.raises(ValueError):
        brute_heavy_factors(4, 2, 8)


def test_formulas_match_brute_enumeration_on_a_grid():
    for alpha, beta in coprime_pairs(10):
        for n in range(0, 31):
            period_set = brute_period_factors(alpha, beta, n)
            heavy_set = brute_heavy_factors(alpha, beta, n)
            assert count_period_factors(alpha, beta, n) == len(period_set)
            assert count_heavy_factors(alpha, beta, n) == len(heavy_set)
            assert heavy_set <= period_set


def test_heavy_never_exceeds_period_count():
    for alpha, beta in coprime_pairs(12):
        for n in range(0, 40):
            nn = count_period_factors(alpha, beta, n)
            hh = count_heavy_factors(alpha, beta, n)
            assert 0 <= hh <= nn


def test_count_balanced_known_values():
    assert count_balanced(5, 3) == 12
    assert count_balanced(7, 0) == 1
    assert count_balanced(0, 9) == 1
    assert count_balanced(0, 0) == 1
    assert count_balanced(1, 1) == 2


def test_count_balanced_matches_oracle_small_grid():
    for a in range(0, 11):
        for b in range(0, 11):
            if a + b > 11 or (a == 0 and b == 0):
                continue
            assert count_balanced(a, b) == brute_count_balanced(a, b)


def test_brute_count_balanced_cap():
    assert brute_count_balanced(4, 2) == 8
    assert brute_count_balanced(0, 3) == 1
    assert brute_count_balanced(0, 0) == 1
    with pytest.raises(ValueError):
        brute_count_balanced(15, 15)


def test_report_reproduces_known_expansion():
    report = count_balanced_report(5, 3)
    assert report.total == 12
    expected = {
        (2, 1, "heavy"): (3, 2, 2),
        (5, 2, "heavy"): (4, 2, 2),
        (5, 3, "heavy"): (2, 0, 0),
        (3, 2, "light"): (5, 1, 4),
        (4, 3, "light"): (4, 2, 2),
        (5, 3, "light"): (2, 0, 2),
    }
    seen = {(t.alpha, t.beta, t.kind): (t.n_value, t.h_value, t.contribution) for t in report.terms}
    assert seen == expected
    assert report.as_dict()["terms"][0] == {
        "alpha": 2,
        "beta": 1,
        "kind": "heavy",
        "N": 3,
        "H": 2,
        "contribution": 2,
    }


def test_report_terms_partition_the_enumeration():
    # Bucket each balanced word by the Parikh vector of one period of it
    # and by its height class; the buckets must match the report terms.
    for a in range(1, 9):
        for b in range(1, 9):
            if a + b > 10:
                continue
            n = a + b
            buckets: dict[tuple[int, int, str], int] = {}
            for w in enumerate_balanced(a, b):
                p = smallest_period(w)
                alpha, beta = parikh(w[:p])
                heavy = prefix_height_upper(alpha, beta, n)
                light = prefix_height_lower(alpha, beta, n)
                kind = "heavy" if heavy != light and w.count("1") == heavy else "light"
                key = (alpha, beta, kind)
                buckets[key] = buckets.get(key, 0) + 1
            report = count_balanced_report(a, b)
            assert all(gcd(t.alpha, t.beta) == 1 for t in report.terms)
            nonzero = {
                (t.alpha, t.beta, t.kind): t.contribution
                for t in report.terms
                if t.contribution
            }
            assert buckets == nonzero


def test_inverse_pair_collides_only_for_the_smallest_period():
    for alpha, beta in coprime_pairs(14):
        alpha_inv, beta_inv = period_inverses(alpha, beta)
        if alpha_inv == beta_inv:
            assert alpha + beta <= 2


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 60))
def test_counting_functions_return_exact_integers(alpha, beta, n):
    nn = count_period_factors(alpha, beta, n)
    assert isinstance(nn, int)
    hh = count_heavy_factors(alpha, beta, n)
    assert isinstance(hh, int)
    assert 0 <= hh <= max(nn, alpha + beta)


def test_count_term_is_plain_data():
    t = CountTerm(2, 1, "heavy", 3, 2, 2)
    assert (t.alpha, t.beta, t.kind) == (2, 1, "heavy")


def test_counting_module_has_no_floating_point_arithmetic():
    import ast
    import inspect

    import balwords.counting as module

    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Div), "true division found"
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, float), f"float literal {node.value}"
