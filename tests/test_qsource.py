"""Sources: levels, marginal law, word probabilities, universality checks."""

import itertools
import math

import numpy as np
import pytest

from qmdl import (
    BetaExampleSource,
    InvalidOperator,
    InvalidWord,
    MixtureSource,
    NotRegular,
    SimpleSource,
    SupportMismatch,
    bullet,
    computational_basis,
    cond_density,
    conjugate,
    convex_combine,
    example_state,
    example_uniform_source,
    haar_random_system,
    herm_log,
    outcome_probs,
    predict_step,
    q_project,
    q_restrict,
    strategy_step,
    system_from_unitary,
    tensor_power,
    trace_out_last,
    universality_check,
    word_distribution,
)
from conftest import random_density

CB = computational_basis(2)


def random_mixture(rng, n_comp=3, dim=2, kind="source"):
    weights = rng.dirichlet(np.ones(n_comp))
    if kind == "generalized":
        weights = weights * 0.8
    return MixtureSource(
        [(w, random_density(rng, dim)) for w in weights], kind=kind
    )


# --- construction -----------------------------------------------------------


def test_source_weights_must_sum_to_one():
    with pytest.raises(InvalidOperator):
        MixtureSource([(0.5, np.eye(2) / 2)])


def test_generalized_source_allows_subnormalized():
    src = MixtureSource([(0.5, np.eye(2) / 2)], kind="generalized")
    assert abs(np.trace(src.level(1)) - 0.5) < 1e-12


def test_generalized_source_rejects_mass_above_one():
    with pytest.raises(InvalidOperator):
        MixtureSource([(0.8, np.eye(2) / 2), (0.5, np.eye(2) / 2)], kind="generalized")


# --- levels and the marginal law --------------------------------------------


def test_level_one_is_barycenter(rng):
    src = random_mixture(rng)
    expected = sum(w * s for w, s in src.components)
    assert np.allclose(src.level(1), expected, atol=1e-12)


def test_marginal_law_mixture(rng):
    for _ in range(5):
        src = random_mixture(rng)
        for n in range(1, 5):
            reduced = trace_out_last(src.level(n + 1), 2**n, 2)
            assert np.max(np.abs(reduced - src.level(n))) < 1e-9


def test_marginal_law_simple_source(rng):
    src = SimpleSource(0.7 * random_density(rng, 2))
    for n in range(1, 4):
        reduced = trace_out_last(src.level(n + 1), 2**n, 2)
        assert np.max(np.abs(reduced - src.level(n))) < 1e-10


def test_simple_source_is_a_one_component_generalized_mixture(rng):
    base = 0.7 * random_density(rng, 2)
    src = SimpleSource(base)
    assert isinstance(src, MixtureSource) and src.kind == "generalized"
    unit = base / np.trace(base).real
    assert np.max(np.abs(src.level(3) - np.kron(base, np.kron(unit, unit)))) < 1e-15
    with pytest.raises(InvalidOperator):
        SimpleSource(np.zeros((2, 2)))


def test_conjugation_preserves_marginals_and_words(rng):
    src = random_mixture(rng)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    conj = conjugate(src, u)
    n = 3
    reduced = trace_out_last(conj.level(n + 1), 2**n, 2)
    assert np.max(np.abs(reduced - conj.level(n))) < 1e-9
    rotated = system_from_unitary(u)
    for word in itertools.product(range(2), repeat=3):
        assert abs(src.word_prob(CB, word) - conj.word_prob(rotated, word)) < 1e-10


def test_conjugate_rejects_non_unitary(rng):
    src = random_mixture(rng)
    with pytest.raises(InvalidOperator):
        conjugate(src, np.diag([2.0, 1.0]))


# --- word probabilities -----------------------------------------------------


def test_word_prob_matches_dense_level_oracle(rng):
    src = random_mixture(rng)
    system = haar_random_system(2, rng)
    n = 3
    lvl = src.level(n)
    for word in itertools.product(range(2), repeat=n):
        block = np.eye(1, dtype=complex)
        for i in word:
            block = np.kron(block, np.asarray(system.projectors[i]))
        oracle = np.trace(block @ lvl @ block).real
        assert abs(oracle - src.word_prob(system, word)) < 1e-12


def test_word_probs_sum_to_one(rng):
    src = random_mixture(rng)
    system = haar_random_system(2, rng)
    total = sum(
        src.word_prob(system, w) for w in itertools.product(range(2), repeat=4)
    )
    assert abs(total - 1.0) < 1e-10


def test_empty_word_probability_is_level_zero_trace(rng):
    src = random_mixture(rng)
    assert abs(src.word_prob(CB, ()) - 1.0) < 1e-12
    gen = MixtureSource([(0.5, np.eye(2) / 2)], kind="generalized")
    assert abs(gen.word_prob(CB, ()) - 0.5) < 1e-12


def test_beta_source_closed_form():
    src = BetaExampleSource()
    # spot value: n = 5, k = 2 zeros
    assert abs(src.word_prob(CB, (0, 0, 1, 1, 1)) - 1 / 60) < 1e-15
    for n in range(13):
        for k in range(n + 1):
            word = (0,) * k + (1,) * (n - k)
            expected = 1.0 / ((n + 1) * math.comb(n, k))
            assert abs(src.word_prob(CB, word) - expected) < 1e-12


@pytest.mark.parametrize("word", [(0, 7), (0, -1), (2,)])
def test_word_prob_rejects_out_of_range_outcomes(rng, word):
    sources = [
        BetaExampleSource(),
        random_mixture(rng),
        SimpleSource(example_state(0.3)),
    ]
    for src in sources:
        with pytest.raises(InvalidWord):
            src.word_prob(CB, word)
    with pytest.raises(InvalidWord):
        predict_step(BetaExampleSource(), CB, word)


def test_beta_source_uses_quadrature_off_the_computational_basis(rng):
    system = haar_random_system(2, rng)
    assert CB.computational and not system.computational
    word = (0, 1, 1)
    expected = example_uniform_source(0.0, 64).word_prob(system, word)
    assert BetaExampleSource(fallback_nodes=64).word_prob(system, word) == expected


def test_quadrature_matches_beta_closed_form():
    quad = example_uniform_source(0.0, 2048)
    beta = BetaExampleSource()
    for n, k in [(1, 0), (4, 2), (10, 3), (20, 20)]:
        word = (0,) * k + (1,) * (n - k)
        assert abs(quad.word_prob(CB, word) - beta.word_prob(CB, word)) < 1e-9


def test_word_distribution_total_mass(rng):
    src = random_mixture(rng)
    counts, log_mult, log_p = word_distribution(src, CB, 5)
    assert [tuple(row) for row in counts] == [(k, 5 - k) for k in range(6)]
    total = np.exp(log_mult + log_p).sum()
    assert abs(total - 1.0) < 1e-10


def test_laplace_rule_from_beta_source():
    src = BetaExampleSource()
    for n, k in [(0, 0), (3, 2), (10, 0), (12, 12)]:
        word = (0,) * k + (1,) * (n - k)
        probs = predict_step(src, CB, word)
        assert abs(probs[0] - (k + 1) / (n + 2)) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12


# --- strategies, conditionals, sandwiches -----------------------------------


def test_bullet_sandwich_identities(rng):
    rho1 = random_density(rng, 2)
    s2 = random_density(rng, 2)
    # identity on the first factor leaves the operator alone
    t = np.kron(random_density(rng, 2), s2)
    assert np.allclose(bullet(np.eye(2), t, 2), t, atol=1e-12)
    # sandwiching I (x) s2 around rho1 gives the product state rho1 (x) s2
    assert np.allclose(
        bullet(rho1, np.kron(np.eye(2, dtype=complex), s2), 2),
        np.kron(rho1, s2),
        atol=1e-10,
    )


def test_bullet_reconstructs_level(rng):
    # for a full-rank source, sandwiching level(n) around the strategy step
    # reproduces level(n+1)
    src = random_mixture(rng)
    for n in range(1, 3):
        step = strategy_step(src, n)
        rebuilt = bullet(src.level(n), step, 2)
        assert np.max(np.abs(rebuilt - src.level(n + 1))) < 1e-8


def test_strategy_step_requires_regular_source():
    pure = MixtureSource([(1.0, np.diag([1.0, 0.0]))])
    with pytest.raises(NotRegular):
        strategy_step(pure, 1)


def test_cond_density_of_product_state(rng):
    s1, s2 = random_density(rng, 2), random_density(rng, 2)
    out = cond_density(np.kron(s1, s2), s1, (2, 2))
    assert np.allclose(out, s2, atol=1e-9)


def test_cond_density_support_mismatch():
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    sigma = np.diag([0.0, 1.0])
    with pytest.raises(SupportMismatch):
        cond_density(rho, sigma, (2, 2))


def test_q_restrict_preserves_minimal_word_probs(rng):
    src = random_mixture(rng)
    system = haar_random_system(2, rng)
    pinched = q_restrict(src, system)
    for word in itertools.product(range(2), repeat=3):
        assert abs(
            src.word_prob(system, word) - pinched.word_prob(system, word)
        ) < 1e-10
    lvl = pinched.level(1)
    assert np.allclose(lvl, q_project(src.level(1), system), atol=1e-10)


# --- universality -----------------------------------------------------------


def three_component_source(c=0.0):
    thetas = (0.2, 0.5, 0.8)
    weights = (0.5, 0.25, 0.25)
    return (
        MixtureSource([(w, example_state(t, c)) for w, t in zip(weights, thetas)]),
        [example_state(t, c) for t in thetas],
    )


def test_matrix_universality_holds_from_weight_bound():
    src, model = three_component_source()
    report = universality_check(src, model, 0.5, range(1, 9), "matrix")
    assert report.passed
    # smallest code weight 1/4: guaranteed from n = ceil(-log2(1/4) / eps) = 4
    assert report.n0 is not None and report.n0 <= 4
    for n, margin in report.per_level:
        if n >= 4:
            assert margin >= -1e-10


def test_matrix_universality_fails_for_uncovered_member():
    src = MixtureSource([(1.0, example_state(0.2))])
    report = universality_check(
        src, [example_state(0.9)], 0.1, range(1, 6), "matrix"
    )
    assert not report.passed and report.n0 is None


def test_matrix_implies_expected_and_q_restricted():
    src, model = three_component_source()
    matrix = universality_check(src, model, 0.5, range(4, 8), "matrix")
    assert matrix.passed
    for mode, system in [
        ("expected", None),
        ("q-restricted", CB),
        ("q-expected", CB),
    ]:
        weaker = universality_check(src, model, 0.5, range(4, 8), mode, system)
        assert weaker.passed, mode
        assert weaker.n0 <= matrix.n0


@pytest.mark.parametrize("mode", ["matrix", "expected"])
def test_universality_margins_equal_the_per_member_formula(mode):
    """The level is built once per n; each margin is the same float as when
    every member rebuilt it."""
    src, model = three_component_source(1.0)
    report = universality_check(src, model, 0.5, range(1, 6), mode)
    for n, margin in report.per_level:
        margins = []
        for member in model:
            rho_n = tensor_power(member, n)
            if mode == "matrix":
                gap = src.level(n) - 2.0 ** (-n * 0.5) * rho_n
                margins.append(float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0]))
            else:
                s = np.trace(rho_n @ (herm_log(rho_n) - herm_log(src.level(n)))).real
                margins.append(n * 0.5 - s)
        assert margin == float(min(margins))


def test_outcome_probs_equal_the_per_pair_trace(rng):
    for d in [*range(2, 17), 48]:  # d = 48 splits the states into blocks
        system = haar_random_system(d, rng) if d % 2 else computational_basis(d)
        states = [random_density(rng, d) for _ in range(5)]
        loop = np.array([[np.trace(q @ rho).real for q in system] for rho in states])
        assert np.array_equal(outcome_probs(states, system), loop)


def test_letter_probs_are_cached_per_system(rng):
    src = MixtureSource([(0.5, example_state(0.2, 0.5)), (0.5, example_state(0.8, 0.5))])
    probs = src.letter_probs(CB)
    assert src.letter_probs(CB) is probs
    # an equal-valued second system is a second key
    other = computational_basis(2)
    assert src.letter_probs(other) is not probs
    assert np.array_equal(src.letter_probs(other), probs)
    assert len(src._letter_cache) == 2
    haar = haar_random_system(2, rng)
    assert np.array_equal(src.letter_probs(haar), outcome_probs(src.states, haar))


def test_q_restricted_universality_needs_system():
    src, model = three_component_source()
    with pytest.raises(ValueError):
        universality_check(src, model, 0.5, range(2, 4), "q-restricted")


def test_convex_combination_of_passing_sources_passes(rng):
    model = [random_density(rng, 2)]
    eps, ns = 1.0, range(2, 6)
    sources = []
    for _ in range(2):
        other = random_density(rng, 2)
        sources.append(MixtureSource([(0.4, model[0]), (0.6, other)]))
    for src in sources:
        assert universality_check(src, model, eps, ns, "matrix").passed
    combo = convex_combine(sources, [0.5, 0.5])
    assert universality_check(combo, model, eps, ns, "matrix").passed


def test_convex_combine_validates_weights(rng):
    src = random_mixture(rng)
    with pytest.raises(InvalidOperator):
        convex_combine([src, src], [0.7, 0.7])
