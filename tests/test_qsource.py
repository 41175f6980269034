"""Sources: levels, marginal law, word probabilities, universality checks."""

import itertools
import math
import operator
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qmdl import (
    TOL,
    BetaExampleSource,
    DimensionMismatch,
    GeneralizedModel,
    InvalidOperator,
    InvalidWord,
    MixtureSource,
    NotRegular,
    ParamModel,
    ProjSystem,
    SupportMismatch,
    bullet,
    computational_basis,
    cond_density,
    conjugate,
    convex_combine,
    eigh,
    example_state,
    example_uniform_source,
    haar_random_system,
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
from qmdl import opcore, qsource
from qmdl.models import example_states
from qmdl.serial import system_from_json, system_to_json
from qmdl.typeclasses import compositions, letter_logs, logsumexp, summed_logs
from conftest import counted_view, random_density

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


def test_source_components_must_be_semi_densities():
    """check_semi_density's tests, with the index of the first failing component."""
    skew, negative = np.array([[0.5, 0.3], [0.0, 0.5]]), np.array([[0.5, 2.0], [2.0, 0.5]])
    for kind in ("source", "generalized"):
        with pytest.raises(InvalidOperator, match=r"^component 1: not PSD: min eigenvalue -1\.500e\+00$"):
            MixtureSource([(0.5, np.eye(2) / 2), (0.5, negative)], kind=kind)
        with pytest.raises(InvalidOperator, match=r"^component 0: not Hermitian: max deviation 3\.000e-01 > 1\.0e-10$"):
            MixtureSource([(0.5, skew), (0.5, negative)], kind=kind)
    # a generalized component of trace 2: its levels' traces would grow as 2^(n-2)
    with pytest.raises(InvalidOperator, match=r"^component 0: trace \(2\+0j\) exceeds semi-density bound$"):
        MixtureSource([(0.25, np.eye(2))], kind="generalized")


def test_generalized_source_allows_subnormalized(rng):
    src = MixtureSource([(0.5, np.eye(2) / 2)], kind="generalized")
    assert abs(np.trace(src.level(1)) - 0.5) < 1e-12
    # one component (Tr b, b / Tr b): level n is b (x) (b / Tr b)^(x)(n-1)
    base = 0.7 * random_density(rng, 2)
    unit = base / np.trace(base).real
    src = MixtureSource([(np.trace(base).real, unit)], kind="generalized")
    assert np.max(np.abs(src.level(3) - np.kron(base, np.kron(unit, unit)))) < 1e-15


def test_generalized_source_rejects_mass_above_one():
    with pytest.raises(InvalidOperator):
        MixtureSource([(0.8, np.eye(2) / 2), (0.5, np.eye(2) / 2)], kind="generalized")
    # nor a component of zero weight, such as (Tr b, b / Tr b) for b = 0
    with pytest.raises(InvalidOperator, match="weights must be positive"):
        MixtureSource([(0.0, np.eye(2) / 2)], kind="generalized")


# --- levels and the marginal law --------------------------------------------


def test_level_one_is_barycenter(rng):
    src = random_mixture(rng)
    expected = sum(w * s for w, s in zip(src.weights, src.states))
    assert np.allclose(src.level(1), expected, atol=1e-12)


def test_marginal_law_mixture(rng):
    sources = [random_mixture(rng) for _ in range(5)]
    base = 0.7 * random_density(rng, 2)
    sources.append(MixtureSource([(np.trace(base).real, base / np.trace(base).real)], kind="generalized"))
    for src in sources:
        for n in range(1, 5):
            reduced = partial_trace(src.level(n + 1), [2**n, 2], 1)
            assert np.max(np.abs(reduced - src.level(n))) < 1e-9


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
    with pytest.raises(InvalidOperator, match="conjugate needs a MixtureSource, got ParamModel"):
        conjugate(ParamModel.example(), np.eye(2))


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
    assert isinstance(src, MixtureSource)
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
        MixtureSource([(1.0, example_state(0.3))], kind="generalized"),
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
    # every output but the closed form is the quadrature family's, bit for bit
    counts = compositions(5, 2)
    for c in (0.0, 0.3):
        beta, quad = BetaExampleSource(c, fallback_nodes=64), example_uniform_source(c, 64)
        assert beta.log_prob(system, counts).tobytes() == quad.log_prob(system, counts).tobytes()
        assert beta.predict(system, counts[2]).tobytes() == quad.predict(system, counts[2]).tobytes()
        assert beta.level(3).tobytes() == quad.level(3).tobytes()
        for mode in ("matrix", "expected"):
            report = universality_check(beta, [example_state(0.3, c)], 0.5, range(1, 7), mode)
            assert report == universality_check(quad, [example_state(0.3, c)], 0.5, range(1, 7), mode)


def test_mixture_operations_read_the_beta_source_as_its_quadrature_family(rng):
    beta, quad = BetaExampleSource(0.3, fallback_nodes=64), example_uniform_source(0.3, 64)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    system, other = haar_random_system(2, rng), random_mixture(rng)
    for op in (
        lambda src: conjugate(src, u),
        lambda src: q_restrict(src, system),
        lambda src: convex_combine([src, other], [0.25, 0.75]),
    ):
        got, expected = op(beta), op(quad)
        assert type(got) is MixtureSource and got.kind == expected.kind
        assert got.weights.tobytes() == expected.weights.tobytes()
        assert got.states.tobytes() == expected.states.tobytes()


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


@pytest.mark.parametrize("declared", ["computational", "haar", "rank-2 matrices"])
def test_q_restrict_pinches_each_component_with_q_project(rng, declared):
    if declared == "computational":
        system = CB
    else:
        system = haar_random_system(8, rng)
        if declared == "rank-2 matrices":
            system = ProjSystem([system.stack[i] + system.stack[i + 4] for i in range(4)])
    src = random_mixture(rng, n_comp=3, dim=system.dim, kind="generalized")
    pinched = q_restrict(src, system)
    assert pinched.kind == "generalized" and pinched.weights.tobytes() == src.weights.tobytes()
    for rho, got in zip(src.states, pinched.states):
        assert got.tobytes() == q_project(rho, system).tobytes()
    with pytest.raises(DimensionMismatch, match=r"^operator dim 2 vs system dim 3$"):
        q_restrict(random_mixture(rng), computational_basis(3))


def test_q_restrict_forms_no_per_projector_products(rng):
    """Eight components under 64 rank-1 projectors at d = 64: an [8, 64, 64, 64]
    product would take 33.5 MB."""
    system = haar_random_system(64, rng)
    src = random_mixture(rng, n_comp=8, dim=64)
    tracemalloc.start()
    try:
        q_restrict(src, system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_q_restrict_needs_a_mixture():
    with pytest.raises(InvalidOperator, match="q_restrict needs a MixtureSource, got GeneralizedModel"):
        q_restrict(GeneralizedModel([(0.5, example_state(0.3))]), CB)


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


def _dense_margins(family, model, n, eps, mode):
    """Matrix or expected margin of each member on the family's dense 2^n x 2^n level."""
    lvl = sum(w * tensor_power(rho, n) for w, rho in zip(family.weights, family.states))
    margins = []
    for member in model:
        power = tensor_power(member, n)
        if mode == "matrix":
            gap = lvl - 2.0 ** (-n * eps) * power
            margins.append(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
        else:
            margins.append(n * eps - np.trace(power @ (_log2(power) - _log2(lvl))).real)
    return min(margins)


def _log2(t):
    """Base-2 spectral logarithm on the support: eigenvalues at or below TOL.support map to 0."""
    w, v = eigh(t)
    fw = np.zeros_like(w)
    keep = w > TOL.support
    fw[keep] = np.log(w[keep]) / np.log(2.0)
    return (v * fw) @ v.conj().T


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
        yield f"acceptance-6-c{c}", src, src, model, 0.5
    src, _ = three_component_source(0.3)
    yield "rank-deficient-member", src, src, [np.diag([1.0, 0.0]), example_state(0.5, 0.3)], 0.5
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        src = MixtureSource([(w, _full_rank_qubit(rng)) for w in rng.dirichlet(np.ones(3))])
        model = [src.states[0], _full_rank_qubit(rng)]
        yield f"random-{seed}", src, src, model, 0.3
    for c in (0.0, 1.0):
        src = BetaExampleSource(c, fallback_nodes=64)
        yield f"beta-c{c}", src, example_uniform_source(c, 64), [example_state(0.3, c)], 0.5


@pytest.mark.parametrize("mode, top", [("matrix", 10), ("expected", 8)])
def test_qubit_block_margins_match_the_dense_oracle(mode, top):
    for name, src, family, model, eps in _qubit_cases():
        report = universality_check(src, model, eps, range(1, top + 1), mode)
        oracle = [_dense_margins(family, model, n, eps, mode) for n in range(1, top + 1)]
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
        levels = qsource._sym_blocks(np.stack(src.states), src.weights[None], ns)
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


def _expected_loop_reference(blocks, n, eps):
    """The expected margins of `qsource._margins` with one eigen-solve per member and block."""
    nats, leak = 0.0, 0.0
    for mult, lvl, powers in blocks:
        w, v = eigh(lvl)
        value, off = np.array([opcore._rel_entropy_nats(p, opcore._eigvalsh(p, check=True), w, v) for p in powers]).T
        nats, leak = nats + mult * value, leak + mult * off
    return np.where(leak > opcore._LEAK_TOL, -np.inf, n * eps - nats / math.log(2.0))


def test_block_expected_margins_solve_each_member_stack_once(monkeypatch):
    """Expected mode solves each block's [members, b, b] stack in one eigvalsh: a 3-member
    check at n = 1..10 makes 35 eigh and 35 eigvalsh calls, and every margin is the loop's."""
    ns = range(1, 11)
    for name, src, _, model, eps in _qubit_cases():
        levels = qsource._sym_blocks(np.stack(src.states), src.weights[None], ns)
        powers = qsource._sym_blocks(np.stack(model), np.eye(len(model)), ns)
        for n in ns:
            mults = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
            lvls = [lvl[0] for lvl in levels[n]]
            batched = qsource._margins(zip(mults, lvls, ([p] for p in powers[n])), n, eps, "expected")
            loop = _expected_loop_reference(zip(mults, lvls, powers[n]), n, eps)
            assert batched.tobytes() == loop.tobytes(), (name, n)
    src, model = three_component_source(1.0)
    calls = Counter()

    def counting(key):
        solve = getattr(np.linalg, key)
        return lambda *a, **k: calls.update([key]) or solve(*a, **k)

    for key in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, key, counting(key))
    universality_check(src, model, 0.5, ns, "expected")
    assert calls == {"eigh": 35, "eigvalsh": 35}


def test_gauss_legendre_table_is_built_once_per_node_count(monkeypatch, rng):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(nodes):
        calls.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    qsource._gauss_legendre.cache_clear()
    # the closed form reads no family: building the source, its CB outputs and a pickle need no table
    beta = BetaExampleSource()
    beta.log_prob(CB, compositions(4, 2))
    beta.predict(CB, np.array([1, 3]))
    pickle.loads(pickle.dumps(beta))
    assert calls == []
    system = haar_random_system(2, rng)
    first, second = (BetaExampleSource(fallback_nodes=64) for _ in range(2))
    assert outcome_prob(first, system, (0, 1)) == outcome_prob(second, system, (0, 1))
    assert calls == [64]
    x, w = qsource._gauss_legendre(64)
    assert not x.flags.writeable and not w.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip((x, w), leggauss(64)))


def _per_pair_trace(states, system) -> np.ndarray:
    return np.array([[np.trace(q @ rho).real for q in system] for rho in states])


def test_outcome_probs_equal_the_per_pair_trace(rng):
    """Bit for bit on the computational basis, signed zeros and denormals included,
    with fewer and with more states than outcomes."""
    for d in range(1, 9):
        system = computational_basis(d)
        for n in (1, d + 3):
            states = [random_density(rng, d) for _ in range(n)]
            assert outcome_probs(states, system).tobytes() == _per_pair_trace(states, system).tobytes()
    entries = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-300, -1.0, 1.0, 2.5])
    for _ in range(400):
        d, n = rng.integers(1, 9, size=2)
        states = rng.choice(entries, (n, d, d)) + 1j * rng.choice(entries, (n, d, d))
        system = computational_basis(int(d))
        assert outcome_probs(states, system).tobytes() == _per_pair_trace(states, system).tobytes()


def _exact(x: np.ndarray) -> tuple[list[int], int]:
    """The real and imaginary parts of x as exact integer multiples of 2^-k, and k."""
    ratios = list(map(float.as_integer_ratio, np.stack([x.real, x.imag]).ravel().tolist()))
    k = max(b.bit_length() for _, b in ratios) - 1  # every denominator is a power of 2
    return [a << (k + 1 - b.bit_length()) for a, b in ratios], k


def _exact_traces(states, system) -> list[list[Fraction]]:
    """Re Tr(q rho) = sum_jk Re q_jk Re rho_kj - Im q_jk Im rho_kj, in exact arithmetic."""
    qs = [_exact(q.conj()) for q in system.stack]  # Re conj(q) = Re q, Im conj(q) = -Im q
    rhos = [_exact(rho.T) for rho in states]
    return [[Fraction(sum(map(operator.mul, q, r)), 2 ** (k + l)) for q, k in qs] for r, l in rhos]


def _declared(rng, d: int, ranks) -> ProjSystem:
    """A system read from JSON whose projectors sum the columns of a Haar unitary in groups of the given ranks."""
    groups = np.split(haar_random_system(d, rng)._vectors, np.cumsum(ranks)[:-1])
    return system_from_json(system_to_json(ProjSystem([v.T @ v.conj() for v in groups])))


def test_outcome_probs_off_the_computational_basis_are_within_round_off_of_the_exact_trace(rng):
    """Haar and JSON-declared systems, d up to 48: within 4 d eps max|rho| of the exact trace."""
    cases = [(haar_random_system(d, rng), n) for d, n in ((2, 1), (2, 40), (3, 5), (5, 2), (8, 9), (16, 3), (48, 2))]
    cases += [(_declared(rng, 48, [1] * 48), 1), (_declared(rng, 6, [2, 1, 3]), 4), (_declared(rng, 48, [24, 24]), 3)]
    for system, n in cases:
        d = system.dim
        states = [random_density(rng, d) for _ in range(n)]
        got = outcome_probs(states, system)
        assert got.shape == (n, len(system))
        for rho, row, exact in zip(states, got, _exact_traces(states, system)):
            tol = Fraction(4 * d * np.finfo(float).eps * np.abs(rho).max())
            assert all(abs(Fraction(p) - e) <= tol for p, e in zip(row, exact))


def test_outcome_probs_take_one_matrix_product(rng):
    """One matmul for any number of states; no per-projector product and no trace."""
    for d, n in ((2, 1), (2, 1001), (5, 3), (5, 64)):
        system = haar_random_system(d, rng)
        states = np.array([random_density(rng, d) for _ in range(n)])
        want = outcome_probs(states, system)
        calls = Counter()
        object.__setattr__(system, "stack", counted_view(system.stack, calls))
        assert np.array_equal(outcome_probs(states, system), want)
        assert calls == {"matmul": 1, "add": 1}  # the product and its + 0.0


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


def test_log_prob_logs_the_letter_table_once_across_class_blocks(monkeypatch, rng):
    """4,096 components at n = 1000: 1,001 classes in four blocks of 256, one log table."""
    thetas = np.linspace(0.0, 1.0, 4096)
    src = MixtureSource(zip(np.full(4096, 1 / 4096), example_states(thetas, 0.3)))
    system = haar_random_system(2, rng)
    counts = compositions(1000, 2)
    calls = []
    monkeypatch.setattr(qsource, "letter_logs", lambda probs: calls.append(1) or letter_logs(probs))
    blocked = src.log_prob(system, counts)
    assert len(calls) == 1
    probs, log_w = src.letter_probs(system), np.log(src.weights)
    rows = [logsumexp(log_w + summed_logs(letter_logs(probs), row)) for row in counts]
    assert blocked.tobytes() == np.array(rows).tobytes()


def test_cached_log_table_serves_log_prob_and_predict(monkeypatch, rng):
    """A 4,096-node source logs its letter table once per system for log_prob and predict,
    and both stay the floats of the uncached rule."""
    thetas = np.linspace(0.0, 1.0, 4096)
    src = MixtureSource(zip(np.full(4096, 1 / 4096), example_states(thetas, 0.3)))
    system = haar_random_system(2, rng)
    counts = compositions(300, 2)
    calls = []
    monkeypatch.setattr(qsource, "letter_logs", lambda probs: calls.append(1) or letter_logs(probs))
    probs, log_w = src.letter_probs(system), np.log(src.weights)
    log_post = log_w + summed_logs(letter_logs(probs), counts[17])
    predicted = np.exp(log_post - logsumexp(log_post)) @ np.clip(probs, 0.0, None)
    expected = logsumexp(log_w + summed_logs(letter_logs(probs), counts))
    for _ in range(2):
        assert src.log_prob(system, counts).tobytes() == expected.tobytes()
        assert src.predict(system, counts[17]).tobytes() == predicted.tobytes()
    assert len(calls) == 1


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
    sources = [ParamModel.example(), random_mixture(rng)]
    with pytest.raises(InvalidOperator, match="convex_combine needs a MixtureSource, got ParamModel"):
        convex_combine(sources, [0.5, 0.5])
