"""Sources: levels, marginal law, word probabilities, universality checks."""

import itertools
import math

import numpy as np
import pytest

from qmdl import (
    BetaExampleSource,
    DimensionMismatch,
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
    outcome_prob,
    outcome_probs,
    partial_trace,
    predict_step,
    q_project,
    q_restrict,
    rel_entropy,
    strategy_step,
    system_from_unitary,
    tensor_power,
    universality_check,
    word_distribution,
)
from qmdl import qsource
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
            reduced = partial_trace(src.level(n + 1), [2**n, 2], 1)
            assert np.max(np.abs(reduced - src.level(n))) < 1e-9


def test_marginal_law_simple_source(rng):
    src = SimpleSource(0.7 * random_density(rng, 2))
    for n in range(1, 4):
        reduced = partial_trace(src.level(n + 1), [2**n, 2], 1)
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
    reduced = partial_trace(conj.level(n + 1), [2**n, 2], 1)
    assert np.max(np.abs(reduced - conj.level(n))) < 1e-9
    rotated = system_from_unitary(u)
    for word in itertools.product(range(2), repeat=3):
        assert abs(outcome_prob(src, CB, word) - outcome_prob(conj, rotated, word)) < 1e-10


def test_conjugate_rejects_non_unitary(rng):
    src = random_mixture(rng)
    with pytest.raises(InvalidOperator):
        conjugate(src, np.diag([2.0, 1.0]))


def test_conjugate_needs_a_mixture():
    with pytest.raises(InvalidOperator, match="conjugate needs a MixtureSource, got BetaExampleSource"):
        conjugate(BetaExampleSource(), np.eye(2))


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
        assert abs(oracle - outcome_prob(src, system, word)) < 1e-12


def test_word_probs_sum_to_one(rng):
    src = random_mixture(rng)
    system = haar_random_system(2, rng)
    total = sum(
        outcome_prob(src, system, w) for w in itertools.product(range(2), repeat=4)
    )
    assert abs(total - 1.0) < 1e-10


def test_empty_word_probability_is_level_zero_trace(rng):
    src = random_mixture(rng)
    assert abs(outcome_prob(src, CB, ()) - 1.0) < 1e-12
    gen = MixtureSource([(0.5, np.eye(2) / 2)], kind="generalized")
    assert abs(outcome_prob(gen, CB, ()) - 0.5) < 1e-12


def test_beta_source_closed_form():
    src = BetaExampleSource()
    # spot value: n = 5, k = 2 zeros
    assert abs(outcome_prob(src, CB, (0, 0, 1, 1, 1)) - 1 / 60) < 1e-15
    for n in range(13):
        for k in range(n + 1):
            word = (0,) * k + (1,) * (n - k)
            expected = 1.0 / ((n + 1) * math.comb(n, k))
            assert abs(outcome_prob(src, CB, word) - expected) < 1e-12


@pytest.mark.parametrize("word", [(0, 7), (0, -1), (2,)])
def test_word_prob_rejects_out_of_range_outcomes(rng, word):
    sources = [
        BetaExampleSource(),
        random_mixture(rng),
        SimpleSource(example_state(0.3)),
    ]
    for src in sources:
        with pytest.raises(InvalidWord):
            outcome_prob(src, CB, word)
    with pytest.raises(InvalidWord):
        predict_step(BetaExampleSource(), CB, word)


def test_beta_source_uses_quadrature_off_the_computational_basis(rng):
    system = haar_random_system(2, rng)
    assert CB.computational and not system.computational
    word = (0, 1, 1)
    expected = outcome_prob(example_uniform_source(0.0, 64), system, word)
    assert outcome_prob(BetaExampleSource(fallback_nodes=64), system, word) == expected


def test_beta_source_rejects_a_system_on_another_dimension():
    system = computational_basis(3)
    assert system.computational
    with pytest.raises(DimensionMismatch):
        outcome_prob(BetaExampleSource(), system, (0, 2, 2))
    with pytest.raises(DimensionMismatch):
        predict_step(BetaExampleSource(), system, (0, 2))


def test_quadrature_matches_beta_closed_form():
    quad = example_uniform_source(0.0, 2048)
    beta = BetaExampleSource()
    for n, k in [(1, 0), (4, 2), (10, 3), (20, 20)]:
        word = (0,) * k + (1,) * (n - k)
        assert abs(outcome_prob(quad, CB, word) - outcome_prob(beta, CB, word)) < 1e-9


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
            outcome_prob(src, system, word) - outcome_prob(pinched, system, word)
        ) < 1e-10
    lvl = pinched.level(1)
    assert np.allclose(lvl, q_project(src.level(1), system), atol=1e-10)


def test_q_restrict_needs_a_mixture():
    with pytest.raises(InvalidOperator, match="q_restrict needs a MixtureSource, got BetaExampleSource"):
        q_restrict(BetaExampleSource(), CB)


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


@pytest.mark.parametrize(
    "support, member",
    [
        (np.diag([1.0, 0.0]), example_state(0.5)),  # qubit: Schur-Weyl blocks
        (np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3),  # qutrit: dense levels
    ],
    ids=["qubit", "qutrit"],
)
def test_expected_universality_fails_a_member_off_the_source_support(support, member):
    """A member with mass outside every level's support has infinite relative
    entropy to it, so its expected margin is -inf at every n."""
    src = MixtureSource([(1.0, support)])
    report = universality_check(src, [member], 0.05, range(1, 4), "expected")
    assert report.per_level == ((1, -np.inf), (2, -np.inf), (3, -np.inf))
    assert report.n0 is None and not report.passed


def test_expected_and_q_expected_agree_off_the_source_support():
    src = MixtureSource([(1.0, np.diag([1.0, 0.0]))])
    for mode in ("expected", "q-expected"):
        report = universality_check(src, [example_state(0.5)], 0.05, range(1, 4), mode, CB)
        assert [margin for _, margin in report.per_level] == [-np.inf] * 3, mode
        assert report.n0 is None and not report.passed, mode


def test_expected_leak_is_summed_over_the_schur_weyl_blocks():
    """diag(1 - b, b)^(x)8 puts about 8b outside the support of |0><0|^(x)8, and
    at most 1e-9 in any one Schur-Weyl block when b = 2e-10. The block path
    holds the multiplicity-weighted sum to 1e-9, as the dense level does."""
    src = MixtureSource([(1.0, np.diag([1.0, 0.0]))])

    def block_and_dense(b):
        member = np.diag([1.0 - b, b])
        report = universality_check(src, [member], 0.05, [8], "expected")
        dense = 8 * 0.05 - rel_entropy(tensor_power(member, 8), src.level(8)).value
        return report, dense

    report, dense = block_and_dense(2e-10)
    assert report.per_level == ((8, -np.inf),) and dense == -np.inf
    assert report.n0 is None and not report.passed
    report, dense = block_and_dense(2e-11)  # 1.6e-10 in total
    ((_, margin),) = report.per_level
    assert math.isfinite(margin) and abs(margin - dense) <= 1e-12


@pytest.mark.parametrize("mode", ["matrix", "expected", "q-restricted", "q-expected"])
def test_universality_rejects_members_on_another_dimension(mode):
    src = MixtureSource([(1.0, np.eye(2) / 2)])
    with pytest.raises(DimensionMismatch, match="dimension 3"):
        universality_check(src, [np.eye(3) / 3], 0.05, range(1, 4), mode, CB)


@pytest.mark.parametrize("mode", ["q-restricted", "q-expected"])
def test_q_universality_rejects_a_system_on_another_dimension(mode):
    src = MixtureSource([(1.0, np.eye(2) / 2)])
    with pytest.raises(DimensionMismatch, match="system acts on dimension 3, source on 2"):
        universality_check(src, [example_state(0.3)], 0.05, range(1, 4), mode, computational_basis(3))


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
def test_universality_margins_equal_the_per_member_formula(mode, rng):
    """On dense levels (a qutrit source) the level is built once per n; each
    margin is the same float as when every member rebuilt it."""
    src = random_mixture(rng, dim=3)
    model = src.states
    report = universality_check(src, model, 0.5, range(1, 6), mode)
    for n, margin in report.per_level:
        margins = []
        for member in model:
            rho_n = tensor_power(member, n)
            if mode == "matrix":
                gap = src.level(n) - 2.0 ** (-n * 0.5) * rho_n
                margins.append(float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0]))
            else:
                margins.append(n * 0.5 - rel_entropy(rho_n, src.level(n)).value)
        assert margin == float(min(margins))


def _dense_margins(components, model, n, eps, mode):
    """Matrix or expected margin of each member on the dense 2^n x 2^n level."""
    lvl = sum(w * tensor_power(rho, n) for w, rho in components)
    margins = []
    for member in model:
        power = tensor_power(member, n)
        if mode == "matrix":
            gap = lvl - 2.0 ** (-n * eps) * power
            margins.append(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
        else:
            margins.append(n * eps - np.trace(power @ (herm_log(power) - herm_log(lvl))).real)
    return min(margins)


def _full_rank_qubit(rng):
    """A random qubit state with eigenvalues in [0.2, 0.8].

    The bound keeps a level's smallest eigenvalue far above the round-off of
    its entries at n <= 10. Near it the expected margin is ill-conditioned on
    either path: with eigenvalues down to 0.014 the level at n = 7 has
    smallest eigenvalue 1e-8, and dense and block margins sit 1e-12 and 4e-12
    from a 40-digit value.
    """
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    lam = rng.uniform(0.2, 0.5)
    return u @ np.diag([lam, 1.0 - lam]) @ u.conj().T


def _qubit_cases():
    for c in (0.0, 0.3, 1.0):
        src, model = three_component_source(c)
        yield f"acceptance-6-c{c}", src, src.components, model, 0.5
    src, _ = three_component_source(0.3)
    yield "rank-deficient-member", src, src.components, [np.diag([1.0, 0.0]), example_state(0.5, 0.3)], 0.5
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        src = MixtureSource([(w, _full_rank_qubit(rng)) for w in rng.dirichlet(np.ones(3))])
        model = [src.states[0], _full_rank_qubit(rng)]
        yield f"random-{seed}", src, src.components, model, 0.3
    for c in (0.0, 1.0):
        src = BetaExampleSource(c, fallback_nodes=64)
        yield f"beta-c{c}", src, example_uniform_source(c, 64).components, [example_state(0.3, c)], 0.5


@pytest.mark.parametrize("mode, top", [("matrix", 10), ("expected", 8)])
def test_qubit_block_margins_match_the_dense_oracle(mode, top):
    for name, src, components, model, eps in _qubit_cases():
        report = universality_check(src, model, eps, range(1, top + 1), mode)
        oracle = [_dense_margins(components, model, n, eps, mode) for n in range(1, top + 1)]
        assert [n for n, _ in report.per_level] == list(range(1, top + 1))
        for (n, margin), ref in zip(report.per_level, oracle):
            assert abs(margin - ref) <= 1e-12, (name, n, margin, ref)
        n0 = next((n for n in range(1, top + 1) if min(oracle[n - 1 :]) >= -1e-9), None)
        assert (report.n0, report.passed) == (n0, n0 is not None), name


def _loop_reference(blocks, n, eps):
    """The matrix margins of `qsource._margins` with one eigvalsh per member and block."""
    scale = 2.0 ** (-n * eps)
    smallest = math.inf
    for _, lvl, powers in blocks:
        eigs = []
        for power in powers:
            gap = lvl - scale * power
            gap += gap.conj().T
            gap /= 2
            eigs.append(np.linalg.eigvalsh(gap)[0])
        smallest = np.minimum(smallest, eigs)
    return smallest


def test_block_matrix_margins_are_bit_identical_to_the_member_loop():
    """One eigvalsh per Schur-Weyl block over the [members, b, b] stack of gaps
    gives every member's margin, and so n0 and pass, bit for bit as the loop."""
    ns = range(1, 11)
    for name, src, _, model, eps in _qubit_cases():
        mix = src._quadrature() if isinstance(src, BetaExampleSource) else src
        levels = qsource._sym_blocks(np.stack(mix.states), mix.weights[None], ns)
        powers = qsource._sym_blocks(np.stack(model), np.eye(len(model)), ns)
        reference = []
        for n in ns:
            mults = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
            lvls = [lvl[0] for lvl in levels[n]]
            batched = qsource._margins(zip(mults, lvls, ([p] for p in powers[n])), n, eps, "matrix")
            loop = _loop_reference(zip(mults, lvls, powers[n]), n, eps)
            assert batched.tobytes() == np.asarray(loop).tobytes(), (name, n)
            reference.append((n, float(min(loop))))
        report = universality_check(src, model, eps, ns, "matrix")
        assert report.per_level == tuple(reference), name
        n0 = next((n for n, _ in reference if min(m for k, m in reference if k >= n) >= qsource._MARGIN_FLOOR), None)
        assert (report.n0, report.passed) == (n0, n0 is not None), name


def test_gauss_legendre_table_is_built_once_per_node_count(monkeypatch, rng):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(nodes):
        calls.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    qsource._gauss_legendre.cache_clear()
    system = haar_random_system(2, rng)
    first, second = (BetaExampleSource(fallback_nodes=64) for _ in range(2))
    assert outcome_prob(first, system, (0, 1)) == outcome_prob(second, system, (0, 1))
    assert calls == [64]
    x, w = qsource._gauss_legendre(64)
    assert not x.flags.writeable and not w.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip((x, w), leggauss(64)))


def test_outcome_probs_equal_the_per_pair_trace(rng):
    for d in [*range(2, 17), 48]:  # d = 48 splits the states into blocks
        system = haar_random_system(d, rng) if d % 2 else computational_basis(d)
        states = [random_density(rng, d) for _ in range(5)]
        loop = np.array([[np.trace(q @ rho).real for q in system] for rho in states])
        assert np.array_equal(outcome_probs(states, system), loop)


def test_letter_probs_are_cached_per_system(rng):
    """One table per (source, system), read by log_prob."""
    src = MixtureSource([(0.5, example_state(0.2, 0.5)), (0.5, example_state(0.8, 0.5))])
    src.log_prob(CB, np.array([[1, 2]]))
    probs = src.letter_probs(CB)
    src.log_prob(CB, np.array([[2, 1]]))
    assert src.letter_probs(CB) is probs
    # an equal-valued second system is a second key
    other = computational_basis(2)
    src.log_prob(other, np.array([[1, 2]]))
    assert src.letter_probs(other) is not probs
    assert src.letter_probs(other).tobytes() == probs.tobytes()
    assert src.letter_probs(CB) is probs
    haar = haar_random_system(2, rng)
    src.log_prob(haar, np.array([[1, 2]]))
    assert src.letter_probs(haar).tobytes() == outcome_probs(src.states, haar).tobytes()


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
    for weights in ([0.7, 0.7], [math.nan, math.nan], [1.0, math.nan], [-0.5, 1.5]):
        with pytest.raises(InvalidOperator, match="weights must be nonnegative and sum to 1"):
            convex_combine([src, src], weights)


def test_convex_combine_needs_a_mixture(rng):
    sources = [BetaExampleSource(), random_mixture(rng)]
    with pytest.raises(InvalidOperator, match="convex_combine needs a MixtureSource, got BetaExampleSource"):
        convex_combine(sources, [0.5, 0.5])
