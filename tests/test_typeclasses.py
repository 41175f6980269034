"""Histogram enumeration against brute-force word counting."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmdl import typeclasses
from qmdl import SizeCapExceeded
from qmdl.typeclasses import (
    compositions,
    letter_logs,
    log_multinomial,
    logsumexp,
    summed_logs,
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
    assert summed_logs(letter_logs(np.array([[0.5, 0.5]])), np.array([[2, 1]]))[0, 0] == (
        3 * math.log(0.5)
    )


def test_class_log_prob_support_convention():
    probs = np.array([[1.0, 0.0]])
    got = summed_logs(letter_logs(probs), np.array([[3, 0], [2, 1]]))[:, 0]
    assert got[0] == 0.0
    assert got[1] == -np.inf


def test_class_masses_sum_to_one():
    probs = np.array([[0.3, 0.2, 0.5]])
    counts = compositions(6, 3)
    total = np.exp(log_multinomial(counts) + summed_logs(letter_logs(probs), counts)[:, 0]).sum()
    assert abs(total - 1.0) < 1e-12


def mixture_prob(weights, letter_probs, counts):
    return math.exp(
        logsumexp(np.log(weights) + summed_logs(letter_logs(letter_probs), np.array([counts])))[0]
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



def test_one_letter_table_is_one_class_at_any_length(monkeypatch):
    """One letter gives the one class [[n]] of one word: no O(n) enumeration or log k! table."""
    monkeypatch.setattr(typeclasses, "_LOG_FACT", typeclasses._LOG_FACT[:0])
    for n in (0, 1, 10**8, 2**63 - 1):
        table = compositions(n, 1)
        assert table.dtype == np.int64 and table.tolist() == [[n]]
        assert log_multinomial(table).tolist() == [0.0]
    assert typeclasses._LOG_FACT.size == 0


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("n, shown", [(2**63, "9.22337e+18"), (2**64, "1.84467e+19"), (int(1e308), "1e+308")],
                         ids=["2^63", "2^64", "1e308"])
def test_word_length_past_int64_is_a_size_error(parts, n, shown):
    with pytest.raises(SizeCapExceeded) as refused:
        compositions(n, parts)
    if parts == 1:  # the one class [[n]] fits the byte budget: its int64 count refuses n
        assert str(refused.value) == f"word length {shown} exceeds 2^63 - 1, the largest count of a type-class table"
        assert refused.value.setting is None
    else:  # n + 1 or more rows pass the byte budget first, before anything is formed
        assert str(refused.value).startswith("type-class table of shape [" + (f"{shown}, 2]" if parts == 2 else ""))
        assert str(refused.value).endswith("would hold more than 16 cap^2 = 1073741824 bytes at cap 8192")
        assert refused.value.setting == "QMDL_DENSE_CAP"

def test_log_multinomial_rows_match_scalar_lgamma():
    counts = compositions(9, 3)
    expected = [
        math.lgamma(10) - sum(math.lgamma(k + 1) for k in row) for row in counts
    ]
    assert np.allclose(log_multinomial(counts), expected, rtol=0, atol=1e-12)


def stars_and_bars(n, parts):
    """The combinations-iterator table that compositions(n, 2) replaces by a closed form."""
    rows = math.comb(n + parts - 1, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n + parts - 1), parts - 1)),
        dtype=np.int64,
        count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), n + parts - 1)])
    return np.diff(edges, axis=1) - 1


def test_binary_compositions_equal_the_stars_and_bars_table():
    for n in [*range(301), 1000, 4096]:
        got, want = compositions(n, 2), stars_and_bars(n, 2)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want), n


def per_call_log_multinomial(counts):
    """log_multinomial with its lgamma table rebuilt for each call."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.sum(axis=-1)
    top = int(n.max()) if n.size else 0
    log_fact = np.fromiter(map(math.lgamma, range(1, top + 2)), dtype=float, count=top + 1)
    return log_fact[n] - log_fact[counts].sum(axis=-1)


def test_log_multinomial_is_bit_identical_to_a_per_call_table(monkeypatch):
    # start from an empty shared table so that it grows while n is visited out of order
    monkeypatch.setattr(typeclasses, "_LOG_FACT", typeclasses._LOG_FACT[:0])
    sizes = [(n, m) for n in [*range(40), 97, 300, 1000, 4096] for m in (1, 2, 3, 4) if m <= 2 or n <= 97]
    random.Random(5).shuffle(sizes)
    for n, m in sizes:
        counts = compositions(n, m)
        assert np.array_equal(log_multinomial(counts), per_call_log_multinomial(counts)), (n, m)
    assert typeclasses._LOG_FACT.size == 4097
    # counts that are not histograms fail as with a per-call table, however long the shared one
    for bad in ([[-1, 3]], [[5, -2]], [[-3, 1]]):
        for table in (per_call_log_multinomial, log_multinomial):
            with pytest.raises(IndexError):
                table(bad)


def test_shared_log_factorial_table_rejects_writes(monkeypatch):
    monkeypatch.setattr(typeclasses, "_LOG_FACT", typeclasses._LOG_FACT[:0])
    log_multinomial([[3, 4]])
    first = typeclasses._LOG_FACT
    log_multinomial([[600, 400]])
    grown = typeclasses._LOG_FACT
    assert (first.size, grown.size) == (8, 1001)
    for table in (first, grown):
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert np.array_equal(grown[:8], first)


def test_table_functions_emit_no_warning_on_impossible_classes():
    probs = np.array([[1.0, 0.0], [0.0, 0.0]])
    counts = compositions(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll = summed_logs(letter_logs(probs), counts)
        total = logsumexp(ll)
    assert ll[:, 1].tolist() == [-np.inf] * 4
    assert total.tolist() == [-np.inf] * 3 + [0.0]
