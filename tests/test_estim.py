"""Estimators: grid MLE, two-part selection, alpha scaling, word-trace sums."""

import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdl import (
    AllZeroLikelihood,
    DimensionMismatch,
    GeneralizedModel,
    InvalidOperator,
    InvalidWord,
    MixtureSource,
    NonMinimalSystem,
    ParamModel,
    ProjSystem,
    alpha_scale,
    computational_basis,
    example_state,
    example_uniform_source,
    haar_random_system,
    mle,
    outcome_probs,
    two_part,
)
from qmdl import BetaExampleSource, predict_step
from qmdl import qsource
from qmdl import estim
from qmdl.estim import _member_scores, _select, _trace_sum, _two_part_scores, two_part_classes
from qmdl.typeclasses import compositions, letter_logs, summed_logs
from conftest import brute_force_lambda_sum, random_density

CB = computational_basis(2)


# --- MLE --------------------------------------------------------------------


def test_mle_closed_form_on_compatible_grid():
    for n in (4, 10, 25):
        model = ParamModel.example(grid=np.arange(n + 1) / n)
        for k in range(n + 1):
            word = (0,) * k + (1,) * (n - k)
            result = mle(model, CB, word)
            assert result.theta_hat == k / n


def test_mle_off_grid_picks_nearest_maximizer():
    model = ParamModel.example(grid=np.array([0.0, 0.5, 1.0]))
    result = mle(model, CB, (0, 0, 1))  # k/n = 2/3, closest grid max at 0.5
    assert result.theta_hat == 0.5


def test_mle_tie_breaks_to_lowest_index():
    model = ParamModel.explicit([example_state(0.5), example_state(0.5)])
    result = mle(model, CB, (0, 1))
    assert result.tie_path.chosen == 0 and result.tie_path.maxima == 2


def test_mle_all_zero_likelihood():
    model = ParamModel.explicit([np.diag([0.0, 1.0])])
    with pytest.raises(AllZeroLikelihood):
        mle(model, CB, (0,))


def test_mle_requires_minimal_system():
    model = ParamModel.example(grid=np.array([0.5]))
    with pytest.raises(NonMinimalSystem):
        mle(model, ProjSystem([np.eye(2)]), (0,))


def test_mle_rejects_empty_word():
    with pytest.raises(ValueError):
        mle(ParamModel.example(grid=np.array([0.5])), CB, ())


@pytest.mark.parametrize("word", [(0, 2, 1), (0, -1)])
def test_estimators_reject_out_of_range_outcomes(word):
    with pytest.raises(InvalidWord):
        mle(ParamModel.example(grid=np.array([0.5])), CB, word)
    with pytest.raises(InvalidWord):
        two_part(GeneralizedModel([(0.5, example_state(0.5))]), CB, word)


# --- two-part ---------------------------------------------------------------


def test_two_part_score_weighting_beats_likelihood():
    """Members 0.5*rho(0.2) and 0.25*rho(0.8); word with one zero among four.

    Scores 0.5^4 * 0.2 * 0.8^3 vs 0.25^4 * 0.8 * 0.2^3: the heavier code
    weight wins even though the raw likelihoods favor neither decisively.
    """
    model = GeneralizedModel([(0.5, example_state(0.2)), (0.25, example_state(0.8))])
    word = (0, 1, 1, 1)
    score0 = 0.5**4 * 0.2 * 0.8**3
    score1 = 0.25**4 * 0.8 * 0.2**3
    assert score0 > score1
    result = two_part(model, CB, word)
    assert result.tie_path.chosen == 0
    assert np.allclose(result.state, example_state(0.2))
    assert result.lam == pytest.approx(0.5)


def test_two_part_identical_states_pick_heavier_weight():
    rho = example_state(0.3)
    model = GeneralizedModel([(0.25, rho), (0.5, rho)])
    result = two_part(model, CB, (0, 1, 0))
    assert result.tie_path.chosen == 1
    assert result.lam == pytest.approx(0.5)


def test_two_part_singleton():
    model = GeneralizedModel([(0.6, example_state(0.4))])
    result = two_part(model, CB, (0, 1))
    assert result.lam == pytest.approx(0.6)
    assert np.allclose(result.state, example_state(0.4))


def test_two_part_all_zero_likelihood():
    model = GeneralizedModel([(0.5, np.diag([1.0, 0.0]))])
    with pytest.raises(AllZeroLikelihood):
        two_part(model, CB, (1,))


def test_two_part_exact_tie_uses_trace_then_index():
    # same scores, same stored traces -> lowest index
    rho = example_state(0.5)
    model = GeneralizedModel([(0.25, rho), (0.25, rho)])
    result = two_part(model, CB, (0, 1))
    assert result.tie_path.maxima == 2
    assert result.tie_path.trace_ties == 2
    assert result.tie_path.chosen == 0


# --- scoring kernel against the per-member scalar loop -----------------------


def reference_loglik(probs, counts):
    total = 0.0
    for p, k in zip(probs, counts):
        if k == 0:
            continue
        if p <= 0.0:
            return -np.inf
        total += k * math.log(p)
    return total


def reference_scores(members, system, counts):
    """Per-member scalar scores: n log w + log-likelihood (w = None: no weight)."""
    n = int(counts.sum())
    scores = []
    for w, rho in members:
        probs = np.array([np.trace(q @ rho).real for q in system])
        ll = reference_loglik(probs, counts)
        if w is None or ll == -np.inf:
            scores.append(ll)
        else:
            scores.append(n * math.log(w) + ll)
    return scores


def reference_tie_path(model, scores):
    best = max(scores)
    winners = [i for i, s in enumerate(scores) if s == best]
    traces = model.stored_traces[winners]
    trace_winners = [i for i, t in zip(winners, traces) if t == traces.max()]
    return (len(winners), len(trace_winners), trace_winners[0])


# exact zeros, negative round-off and subnormal letters (no floor: 1e-310 scores k log 1e-310)
LETTER_PROB = st.one_of(
    st.sampled_from([0.0, -1e-17, -0.0, 1e-310, 1e-300, 1.0]),
    st.floats(1e-12, 1.0),
)


@st.composite
def scoring_cases(draw):
    m = draw(st.sampled_from([2, 3, 5, 9]))
    rows = draw(st.lists(st.lists(LETTER_PROB, min_size=m, max_size=m), min_size=1, max_size=6))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(rows), max_size=len(rows)))
    counts = draw(st.lists(st.integers(0, 40), min_size=m, max_size=m))
    return m, rows, [w / len(rows) for w in raw], np.array(counts)


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_kernel_scores_equal_scalar_loop(case):
    m, rows, weights, counts = case
    # the kernel itself, on one histogram [m] and on a batch [C, m]
    table = np.array(rows)
    assert summed_logs(letter_logs(table), counts).tolist() == [reference_loglik(row, counts) for row in rows]
    batch = np.stack([counts, counts[::-1], np.zeros_like(counts)])
    got = summed_logs(letter_logs(table), batch).tolist()
    assert got == [[reference_loglik(row, c) for row in rows] for c in batch]
    system = computational_basis(m)
    states = [np.diag(np.array(row, dtype=complex)) for row in rows]
    two = GeneralizedModel(list(zip(weights, states)))
    got = _two_part_scores(two, system, counts)
    assert got.tolist() == reference_scores(zip(two.weights, two.states), system, counts)
    grid = ParamModel(tuple(states))
    got = _member_scores(grid, system, counts)
    assert got.tolist() == reference_scores([(None, s) for s in states], system, counts)
    # models score and never emit: a weight is read one way per type
    for model in (two, grid):
        assert not any(hasattr(model, name) for name in ("level", "log_prob", "predict"))
    # every member listed twice: each winner ties with its copy
    doubled = GeneralizedModel([(w / 2, s) for w, s in zip(two.weights, two.states)] * 2)
    scores = reference_scores(zip(doubled.weights, doubled.states), system, counts)
    if max(scores) > -np.inf:
        tie = _select(doubled, _two_part_scores(doubled, system, counts))
        assert (tie.maxima, tie.trace_ties, tie.chosen) == reference_tie_path(doubled, scores)
        assert tie.maxima >= 2


def test_score_table_is_cached_per_system(rng):
    """two_part reads one letter table per (model, system)."""
    model = GeneralizedModel([(0.5, example_state(0.2)), (0.25, example_state(0.8))])
    two_part(model, CB, (0, 1))
    table = model.letter_probs(CB)
    two_part(model, CB, (1, 1))
    assert model.letter_probs(CB) is table
    # an equal-valued second system is a second key
    other = computational_basis(2)
    two_part(model, other, (0,))
    assert model.letter_probs(other) is not table
    assert model.letter_probs(other).tobytes() == table.tobytes()
    assert model.letter_probs(CB) is table
    haar = haar_random_system(2, rng)
    two_part(model, haar, (0, 1, 1))
    assert model.letter_probs(haar).tobytes() == outcome_probs(model.states, haar).tobytes()


def _uncached_scores(model, system, counts):
    """n log w + summed_logs(letter_logs(letter table), counts), every log taken anew."""
    log_w = np.array([math.log(w) for w in model.weights.tolist()])
    n = np.sum(counts, axis=-1)[..., None]
    return summed_logs(letter_logs(model.letter_probs(system)), counts) + n * log_w


def test_cached_log_tables_score_as_the_uncached_rule(monkeypatch, rng):
    """On the 1001-point grid, and on a model over it with unequal code weights, the scores
    read the cached letter_logs table and log weights: built once, the same floats."""
    grid = ParamModel.example()
    weights = rng.dirichlet(np.ones(len(grid))) * 0.9
    coded = GeneralizedModel(zip(weights, grid.states))
    counts = compositions(1000, 2)
    calls = []
    monkeypatch.setattr(qsource, "letter_logs", lambda probs: calls.append(1) or letter_logs(probs))
    for model in (grid, coded):
        calls.clear()
        for _ in range(2):
            for batch in (counts, counts[317], counts[:0]):
                # bytes also tell -0.0 from 0.0
                assert _member_scores(model, CB, batch).tobytes() == _uncached_scores(model, CB, batch).tobytes()
        assert len(calls) == 1
        assert model.log_letter_probs(CB) is model.log_letter_probs(CB)
        assert model.log_weights is model.log_weights


def test_a_family_pickles_without_its_tables_and_drops_them_with_their_system(rng):
    """Tables are weakly keyed by their system: a pickled family builds its own, and a
    dropped system takes its tables along."""
    model = GeneralizedModel([(0.5, example_state(0.2)), (0.25, random_density(rng, 2))])
    system = haar_random_system(2, rng)
    counts = np.array([3, 4])
    scores = _member_scores(model, system, counts)
    assert (len(model._tables), len(model._logs)) == (1, 1)
    twin = pickle.loads(pickle.dumps(model))
    assert (len(twin._tables), len(twin._logs)) == (0, 0)
    assert _member_scores(twin, CB, counts).tobytes() == _member_scores(model, CB, counts).tobytes()
    assert _member_scores(model, system, counts).tobytes() == scores.tobytes()
    del system
    gc.collect()
    assert (len(model._tables), len(model._logs)) == (1, 1)  # CB's tables alone
    beta = BetaExampleSource(0.5, 64)
    beta.log_prob(haar_random_system(2, rng), np.array([[1, 2]]))
    twin = pickle.loads(pickle.dumps(beta))
    other = haar_random_system(2, rng)
    assert twin.log_prob(other, counts[None]).tobytes() == beta.log_prob(other, counts[None]).tobytes()


def test_explicit_model_checks_its_members_as_one_stack(monkeypatch):
    """One check_semi_density call; the first failing member is named as check_density orders
    its tests: square and finite, Hermitian, PSD, trace <= 1, then unit trace."""
    good, half = example_state(0.3), np.diag([0.5, 0.0])
    not_psd, not_herm = np.array([[1.5, 0.0], [0.0, -0.5]]), np.array([[0.5, 0.3], [0.0, 0.5]])
    calls = []
    check = estim.check_semi_density
    monkeypatch.setattr(estim, "check_semi_density", lambda t: calls.append(len(t)) or check(t))
    assert ParamModel.explicit([good, good, good]).states.tobytes() == np.stack([good] * 3).tobytes()
    assert calls == [3]
    cases = [
        ([good, not_psd], r"^component 1: not PSD: min eigenvalue -5\.000e-01$"),
        ([good, half, not_psd], r"^component 1: trace \(0\.5\+0j\) != 1$"),
        ([good, not_psd, half], r"^component 1: not PSD: min eigenvalue -5\.000e-01$"),
        ([not_herm, good], r"^component 0: not Hermitian: max deviation 3\.000e-01 > 1\.0e-10$"),
        ([good, 2 * good], r"^component 1: trace \(2\+0j\) exceeds semi-density bound$"),
    ]
    for states, message in cases:
        with pytest.raises(InvalidOperator, match=message):
            ParamModel.explicit(states)


@pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
@pytest.mark.parametrize(
    "grid", [None, np.array([0.0, 1.0]), np.array([1.0, 0.3, 0.0, -0.0, 1e-300, 1 - 2**-53, 0.5])]
)
def test_example_family_is_bit_equal_to_example_state(c, grid):
    model = ParamModel.example(c, grid)
    nodes = np.linspace(0.0, 1.0, 1001) if grid is None else grid
    assert np.array_equal(model.thetas, nodes)
    assert len(model.states) == len(nodes)
    for state, theta in zip(model.states, nodes):
        # bytes also tell -0.0 from 0.0
        assert state.tobytes() == example_state(theta, c).tobytes()


@pytest.mark.parametrize(
    "c,grid",
    [(0.5, [0.2, 1.5, -0.1]), (0.5, [float("nan")]), (1.2, [0.2, 0.4]), (-0.1, [2.0]), (1.2, [0.2, 1.5])],
)
def test_example_family_raises_what_example_state_raises(c, grid):
    with pytest.raises(ValueError) as expected:
        [example_state(t, c) for t in np.asarray(grid)]
    with pytest.raises(ValueError) as err:
        ParamModel.example(c, grid)
    assert str(err.value) == str(expected.value)


def test_generalized_model_kraft_guard():
    with pytest.raises(InvalidOperator):
        GeneralizedModel([(0.7, example_state(0.2)), (0.7, example_state(0.8))])


def _one_at_a_time(members, weight_ok, bad_weight, empty, mixed):
    """The first error of checking members one at a time, in order, as (type, message); None if none."""
    for w, rho in members:
        if not weight_ok(w):
            return InvalidOperator, bad_weight.format(w=w)
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            return InvalidOperator, f"expected a square matrix, got shape {rho.shape}"
        if not np.all(np.isfinite(rho)):
            return InvalidOperator, "operator entries must be finite"
    if not members:
        return empty
    if len({np.shape(rho) for _, rho in members}) != 1:
        return mixed
    return None


def _error(build, members):
    """(type, message) of the library error that build(members) raises, or None."""
    try:
        build(members)
    except (InvalidOperator, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return None


MODEL_END = (InvalidOperator, "a generalized model needs at least one member, all on one space")
GRID_END = (InvalidOperator, "a model needs at least one state, all on one space")
POSITIVE = "mixture weights must be positive"
MIXTURE_END = (InvalidOperator, "a mixture needs at least one component")
MIXED_SPACES = (DimensionMismatch, "mixture components live on different spaces")
# constructor, weight rule and message, errors for no member and for mixed spaces,
# and the errors a family of valid members may still raise as a whole
FAMILIES = {
    "generalized-model": (
        GeneralizedModel, lambda w: 0.0 < w <= 1.0, "code weight {w} outside (0, 1]", MODEL_END, MODEL_END,
        [(InvalidOperator, "code weights violate the Kraft-style mass bound")],
    ),
    "source": (
        MixtureSource, lambda w: w > 0.0, POSITIVE, MIXTURE_END, MIXED_SPACES,
        [(InvalidOperator, "source weights must sum to 1"), (InvalidOperator, "source components must have unit trace")],
    ),
    "generalized-source": (
        lambda members: MixtureSource(members, kind="generalized"), lambda w: w > 0.0, POSITIVE, MIXTURE_END,
        MIXED_SPACES, [(InvalidOperator, "generalized source has level-1 trace > 1")],
    ),
    "grid": (lambda members: ParamModel([rho for _, rho in members]), lambda w: True, "", GRID_END, GRID_END, []),
}


def _faulty(rng, fault):
    """A member with one fault: a bad weight, a bad shape or a non-finite entry."""
    rho = example_state(float(rng.uniform()))
    if fault == "weight":
        return float(rng.choice([0.0, -0.5, 1.5, np.nan])), rho
    if fault == "shape":
        return 0.1, [rho[0], np.eye(3)[:2], np.zeros((2, 2, 2))][int(rng.integers(3))]
    rho = rho.copy()
    rho[int(rng.integers(2)), int(rng.integers(2))] = [np.nan, np.inf, complex(0, np.inf)][int(rng.integers(3))]
    return 0.1, rho


def test_generalized_model_raises_the_first_members_error(rng):
    """Every family constructor validates its stack at once and raises the error
    that a member-by-member check raises first."""
    for _ in range(300):
        size = int(rng.integers(1, 6))
        # weights 1/size: a family of valid members passes every whole-family check
        members = [(1.0 / size, example_state(float(t))) for t in rng.uniform(size=size)]
        for fault in rng.choice(["weight", "shape", "finite", "space"], size=int(rng.integers(1, 3))):
            i = int(rng.integers(len(members)))
            members[i] = (1.0 / size, np.eye(3) / 3) if fault == "space" else _faulty(rng, fault)
        for name, (build, weight_ok, bad_weight, empty, mixed, whole) in FAMILIES.items():
            expected = _one_at_a_time(members, weight_ok, bad_weight, empty, mixed)
            got = _error(build, members)
            assert got == expected or (expected is None and got in whole), (name, members, got)
    # a NaN weight fails every weight rule, alone or after a valid member
    nan_weights = [[(math.nan, example_state(0.3))], [(0.5, example_state(0.3)), (math.nan, example_state(0.6))]]
    for name, (build, weight_ok, bad_weight, empty, mixed, _) in FAMILIES.items():
        assert _error(build, []) == empty, name
        for members in nan_weights:
            assert _error(build, members) == _one_at_a_time(members, weight_ok, bad_weight, empty, mixed), name


def test_generalized_model_stored_traces_are_the_per_member_products(rng):
    for d in (1, 2, 3, 8, 17):
        for size in (1, 2, 199):
            weights = rng.uniform(0.001, 1.0 / size, size)
            states = [random_density(rng, d) * rng.uniform(0.5, 1.0) for _ in range(size)]
            model = GeneralizedModel(list(zip(weights, states)))
            expected = np.array([float(w) * np.trace(s).real for w, s in zip(weights, states)])
            assert model.stored_traces.tobytes() == expected.tobytes(), (d, size)


# --- alpha scaling ----------------------------------------------------------


def test_alpha_scale_unit_trace_unchanged():
    model = GeneralizedModel([(1.0, example_state(0.3))])
    scaled = alpha_scale(model, 2.0)
    assert scaled.stored_traces[0] == pytest.approx(1.0)
    assert np.allclose(scaled.states[0], model.states[0])


def test_alpha_scale_half_trace_halves_element():
    model = GeneralizedModel([(0.5, example_state(0.3))])
    scaled = alpha_scale(model, 2.0)
    # stored element 0.5*rho scaled by its trace 0.5 -> stored trace 0.25
    assert scaled.stored_traces[0] == pytest.approx(0.25)


def test_alpha_scale_requires_alpha_above_one():
    model = GeneralizedModel([(0.5, example_state(0.3))])
    with pytest.raises(ValueError):
        alpha_scale(model, 1.0)


# --- lambda_sum -------------------------------------------------------------


def bound_lambda_sum(model, n, select_model=None):
    """bound_run's lambda_sum: _trace_sum of model's stored traces over the two_part_classes
    table of select_model (default model), whose winners pick the traces."""
    _, log_mult, chosen = two_part_classes(select_model or model, CB, n)
    return _trace_sum(model.stored_traces, n, log_mult, chosen)


def test_lambda_sum_matches_brute_force_word_enumeration():
    model = GeneralizedModel([(0.5, example_state(0.2)), (0.25, example_state(0.8))])
    assert bound_lambda_sum(model, 4) == pytest.approx(
        brute_force_lambda_sum(model, 4), abs=1e-12
    )


def test_lambda_sum_singleton_constant_winner():
    lam0 = 0.6
    model = GeneralizedModel([(lam0, example_state(0.5))])
    # every one of the 2^n words is won by the only member, whose level-n
    # trace is lam0^n
    for n in (1, 2, 5):
        assert bound_lambda_sum(model, n) == pytest.approx(2**n * lam0**n, abs=1e-12)


def test_lambda_sum_empty_level():
    model = GeneralizedModel([(0.6, example_state(0.5))])
    # the empty word is the one class, won by the only member: trace^0 = 1
    assert bound_lambda_sum(model, 0) == brute_force_lambda_sum(model, 0) == 1.0


def test_lambda_sum_with_scaled_selection():
    model = GeneralizedModel([(0.5, example_state(0.2)), (0.25, example_state(0.8))])
    scaled = alpha_scale(model, 2.0)
    value = bound_lambda_sum(scaled, 4, select_model=model)
    assert value == pytest.approx(
        brute_force_lambda_sum(scaled, 4, select_model=model), abs=1e-12
    )
    assert value <= 1.0


# --- prediction -------------------------------------------------------------


def test_beta_predict_closed_form_at_large_n():
    # the ratio of word probabilities overflowed math.comb to float here
    probs = predict_step(BetaExampleSource(), CB, (0,) * 1000 + (1,) * 1000)
    assert probs.tolist() == [0.5, 0.5]


def test_quadrature_predict_finite_at_n1100():
    # linear-space word probabilities underflowed to 0 here (ZeroDivisionError)
    quad = example_uniform_source(0.0, 2048)
    k, n = 400, 1100
    probs = predict_step(quad, CB, (0,) * k + (1,) * (n - k))
    assert np.all(np.isfinite(probs))
    assert probs[0] == pytest.approx((k + 1) / (n + 2), abs=1e-6)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_raises_only_on_probability_zero_words():
    only_0 = MixtureSource([(1.0, np.diag([1.0, 0.0]))])
    assert predict_step(only_0, CB, (0,) * 5000).tolist() == [1.0, 0.0]
    with pytest.raises(AllZeroLikelihood, match="conditioning word has probability 0"):
        predict_step(only_0, CB, (0, 1))


def test_lambda_sum_finite_at_n1100():
    # exp(log multinomial) overflowed here
    model = GeneralizedModel([(0.5, example_state(0.3)), (0.25, example_state(0.7))])
    value = bound_lambda_sum(model, 1100)
    assert math.isfinite(value) and 0.0 < value <= 1.0


def random_letter_model(rng, members, m):
    """Diagonal members with exact zeros and duplicated rows, as in two-part ties."""
    rows = rng.dirichlet(np.ones(m), size=members)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[members // 2] = rows[0]
    weights = rng.uniform(0.2, 1.0, members)
    weights = weights / weights.sum()
    weights[members // 2] = weights[0]
    weights = weights / (weights.sum() + 1e-9)
    return GeneralizedModel([(w, np.diag(r).astype(complex)) for w, r in zip(weights, rows)])


def test_batched_scores_equal_per_class_loop():
    rng = np.random.default_rng(20)
    for trial in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(0, 61 if m == 2 else 13))
        model = random_letter_model(rng, int(rng.integers(2, 7)), m)
        system = computational_basis(m)
        counts = compositions(n, m)
        batch = _two_part_scores(model, system, counts)
        loop = np.array([_member_scores(model, system, row) for row in counts])
        assert np.array_equal(batch, loop)
        chosen = _select(model, batch).chosen
        for row, idx in zip(loop, chosen):
            tie = _select(model, row)
            assert tie.chosen == idx
            if idx >= 0:
                assert row[idx] == row.max()
