"""Histogram enumeration against brute-force word counting."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmdl.typeclasses import (
    compositions,
    log_likelihoods,
    log_multinomial,
    logsumexp,
)


def test_composition_count_matches_stars_and_bars():
    for n, m in [(0, 2), (5, 2), (4, 3), (6, 4)]:
        assert len(list(compositions(n, m))) == math.comb(n + m - 1, m - 1)


def test_compositions_sum_to_n():
    for counts in compositions(7, 3):
        assert sum(counts) == 7 and all(k >= 0 for k in counts)


def test_multinomial_against_brute_force_enumeration():
    n, m = 5, 3
    words = list(itertools.product(range(m), repeat=n))
    for counts in compositions(n, m):
        matching = sum(
            1
            for w in words
            if tuple(w.count(a) for a in range(m)) == tuple(counts)
        )
        assert round(math.exp(log_multinomial(counts))) == matching


@given(st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_multinomial_nonnegative(counts):
    assert log_multinomial(tuple(counts)) >= 0.0


def test_class_log_prob_simple():
    assert log_likelihoods(np.array([[0.5, 0.5]]), np.array([[2, 1]]))[0, 0] == (
        3 * math.log(0.5)
    )


def test_class_log_prob_support_convention():
    probs = np.array([[1.0, 0.0]])
    got = log_likelihoods(probs, np.array([[3, 0], [2, 1]]))[:, 0]
    assert got[0] == 0.0
    assert got[1] == -np.inf


def test_class_masses_sum_to_one():
    probs = np.array([[0.3, 0.2, 0.5]])
    counts = compositions(6, 3)
    total = np.exp(log_multinomial(counts) + log_likelihoods(probs, counts)[:, 0]).sum()
    assert abs(total - 1.0) < 1e-12


def mixture_prob(weights, letter_probs, counts):
    return math.exp(
        logsumexp(np.log(weights) + log_likelihoods(letter_probs, np.array([counts])))[0]
    )


def test_mixture_class_prob_matches_weighted_sum():
    weights = np.array([0.6, 0.4])
    letter_probs = np.array([[0.2, 0.8], [0.9, 0.1]])
    counts = (2, 3)
    expected = 0.6 * 0.2**2 * 0.8**3 + 0.4 * 0.9**2 * 0.1**3
    assert abs(mixture_prob(weights, letter_probs, counts) - expected) < 1e-15


def test_mixture_class_prob_skips_unsupported_components():
    weights = np.array([0.5, 0.5])
    letter_probs = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert abs(mixture_prob(weights, letter_probs, (1, 1)) - 0.5 * 0.25) < 1e-15


def reference_compositions(n, parts):
    """The recursive enumeration the table's row order follows."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in reference_compositions(n - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("n, m", [(0, 1), (0, 3), (1, 1), (5, 2), (4, 3), (6, 4), (3, 6)])
def test_compositions_match_recursive_order(n, m):
    table = compositions(n, m)
    assert table.shape == (math.comb(n + m - 1, m - 1), m)
    assert [tuple(row) for row in table] == list(reference_compositions(n, m))


def test_log_multinomial_rows_match_scalar_lgamma():
    counts = compositions(9, 3)
    expected = [
        math.lgamma(10) - sum(math.lgamma(k + 1) for k in row) for row in counts
    ]
    assert np.allclose(log_multinomial(counts), expected, rtol=0, atol=1e-12)


def test_table_functions_emit_no_warning_on_impossible_classes():
    probs = np.array([[1.0, 0.0], [0.0, 0.0]])
    counts = compositions(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll = log_likelihoods(probs, counts)
        total = logsumexp(ll)
    assert ll[:, 1].tolist() == [-np.inf] * 4
    assert total.tolist() == [-np.inf] * 3 + [0.0]
