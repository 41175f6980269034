"""Divergences: closed forms, support conventions, classical/quantum agreement."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdl import (
    TOL,
    DivergenceValue,
    InvalidOperator,
    MixtureSource,
    as_operator,
    computational_basis,
    distinguishability_mass,
    eigh,
    example_state,
    hellinger_sq,
    hellinger_sq_classical,
    kl_classical,
    outcome_prob,
    rel_entropy,
    renyi,
    word_divergences,
)
from conftest import random_density

CB = computational_basis(2)
LN2 = math.log(2.0)


def test_divergence_value_base_conversion():
    dv = DivergenceValue(1.0, "bits")
    assert dv.in_nats() == pytest.approx(LN2)
    assert DivergenceValue(LN2, "nats").in_bits() == pytest.approx(1.0)


def test_rel_entropy_zero_iff_equal(rng):
    rho = random_density(rng, 3)
    assert rel_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-10)


def test_rel_entropy_diagonal_matches_classical_kl():
    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    quantum = rel_entropy(np.diag(p), np.diag(q), base="bits").value
    assert quantum == pytest.approx(kl_classical(p, q, base="bits"), abs=1e-12)


def test_rel_entropy_infinite_on_support_violation():
    rho = np.eye(2) / 2
    sigma = np.diag([1.0, 0.0])
    assert rel_entropy(rho, sigma).value == np.inf


def test_rel_entropy_nats_vs_bits(rng):
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    bits = rel_entropy(r1, r2, base="bits").value
    nats = rel_entropy(r1, r2, base="nats").value
    assert nats == pytest.approx(bits * LN2, abs=1e-10)


def test_rel_entropy_nonnegative(rng):
    for _ in range(20):
        r1, r2 = random_density(rng, 3), random_density(rng, 3)
        assert rel_entropy(r1, r2).value >= -1e-10


def _rel_entropy_reference(r1, r2, base="bits"):
    """The body `rel_entropy` had before it moved into the shared kernel."""
    r1, r2 = as_operator(r1), as_operator(r2)
    scale = {"bits": LN2, "nats": 1.0}[base]
    w1, v1 = eigh(r1)
    w2, v2 = eigh(r2)
    # mass of r1 on the kernel of r2
    kernel = v2[:, w2 <= TOL.support]
    if kernel.shape[1]:
        leak = np.trace(kernel.conj().T @ r1 @ kernel).real
        if leak > 1e-9:
            return np.inf
    pos1 = w1 > TOL.support
    term1 = float(np.sum(w1[pos1] * np.log(w1[pos1])))
    pos2 = w2 > TOL.support
    overlap = v2[:, pos2].conj().T @ r1 @ v2[:, pos2]
    term2 = float(np.real(np.diag(overlap)) @ np.log(w2[pos2]))
    return (term1 - term2) / scale


def _spectral(rng, eigenvalues):
    """The Hermitian matrix with these eigenvalues in a random unitary basis."""
    d = len(eigenvalues)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def _unit(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def _rel_entropy_pairs(rng, d):
    """(kind, r1, r2) pairs: full rank, rank deficient, leaking, and eigenvalues at +-TOL.support."""
    keep = max(1, d // 2)
    low = np.r_[rng.uniform(0.1, 1.0, keep), np.zeros(d - keep)]
    edge = np.array([TOL.support, -TOL.support, np.nextafter(TOL.support, 1.0), np.nextafter(TOL.support, 0.0)])
    at_edge = np.r_[edge[: d - 1], np.ones(d - len(edge[: d - 1]))]
    pairs = [
        ("full", random_density(rng, d), random_density(rng, d)),
        ("deficient", np.diag(_unit(low)), np.diag(_unit(rng.uniform(0.1, 1.0, d)))),
        ("deficient", _spectral(rng, _unit(low)), random_density(rng, d)),
        ("edge", np.diag(at_edge / at_edge.sum()), np.diag(_unit(rng.uniform(0.1, 1.0, d)))),
        ("edge", np.diag(_unit(rng.uniform(0.1, 1.0, d))), np.diag(at_edge / at_edge.sum())),
        ("edge", _spectral(rng, at_edge / at_edge.sum()), _spectral(rng, at_edge[::-1] / at_edge.sum())),
    ]
    if d > 1:
        # r2's kernel is where r1 sits, and the other way round
        pairs.append(("leak", random_density(rng, d), _spectral(rng, _unit(low))))
        pairs.append(("leak", np.diag(_unit(low[::-1])), np.diag(_unit(low))))
        # a rank-deficient r1 inside the support of a rank-deficient r2
        support = np.diag(_unit(np.r_[rng.uniform(0.1, 1.0, keep), np.zeros(d - keep)]))
        pairs.append(("deficient", np.diag(_unit(low)), support))
    else:
        pairs.append(("leak", np.ones((1, 1)), np.zeros((1, 1))))
    return pairs


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_rel_entropy_is_bit_identical_to_the_reference(d, rng):
    for kind, r1, r2 in _rel_entropy_pairs(rng, d):
        for base in ("bits", "nats"):
            value = rel_entropy(r1, r2, base).value
            assert value == _rel_entropy_reference(r1, r2, base), (kind, base)
            if kind != "edge":
                assert math.isinf(value) == (kind == "leak"), (kind, base)


def test_rel_entropy_validates_r1_then_r2_before_the_leak_test():
    leaky = np.array([[0.5, 0.1], [0.0, 0.5]])  # not Hermitian; half its mass is off diag(1, 0)
    message = "not Hermitian: max deviation 1.000e-01 > 1.0e-10"
    with pytest.raises(InvalidOperator, match=message):
        _rel_entropy_reference(leaky, np.diag([1.0, 0.0]))
    with pytest.raises(InvalidOperator, match=message):
        rel_entropy(leaky, np.diag([1.0, 0.0]))
    # both invalid: r1 is named, as before
    with pytest.raises(InvalidOperator, match=message):
        rel_entropy(leaky, np.array([[1.0, 0.2], [0.0, 0.0]]))


def test_hellinger_sq_diagonal_matches_classical():
    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    quantum = hellinger_sq(np.diag(p), np.diag(q)).value
    assert quantum == pytest.approx(hellinger_sq_classical(p, q), abs=1e-12)


def test_hellinger_sq_range(rng):
    r1, r2 = random_density(rng, 3), random_density(rng, 3)
    value = hellinger_sq(r1, r2).value
    assert 0.0 <= value <= 2.0 + 1e-10


def test_hellinger_sq_orthogonal_states_maximal():
    assert hellinger_sq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).value == pytest.approx(2.0)


def test_renyi_order_must_be_interior():
    rho = np.eye(2) / 2
    for lam in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            renyi(lam, rho, rho)


def test_renyi_diagonal_matches_classical():
    p, q = np.array([0.2, 0.8]), np.array([0.5, 0.5])
    quantum = renyi(0.5, np.diag(p), np.diag(q)).value
    # order 1/2 in nats: -(1 / (1 - 1/2)) ln sum_a p_a^(1/2) q_a^(1/2)
    assert quantum == pytest.approx(-2.0 * np.log(np.sum(np.sqrt(p * q))), abs=1e-12)


def test_renyi_infinite_on_disjoint_support():
    assert renyi(0.5, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).value == np.inf


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
)
def test_hellinger_below_half_renyi_on_commuting_pairs(a, b):
    """He^2 <= d_{1/2}: 2(1 - A) <= -2 ln A for Bhattacharyya affinity A."""
    p = np.array([a, 1 - a])
    q = np.array([b, 1 - b])
    he2 = hellinger_sq_classical(p, q)
    d_half = -2.0 * np.log(np.sum(np.sqrt(p * q)))
    assert he2 <= d_half + 1e-12


def test_word_divergences_match_brute_force():
    src_a = MixtureSource([(1.0, example_state(0.3))])
    src_b = MixtureSource([(1.0, example_state(0.6))])
    n = 4
    words = list(itertools.product(range(2), repeat=n))
    pa = np.array([outcome_prob(src_a, CB, w) for w in words])
    pb = np.array([outcome_prob(src_b, CB, w) for w in words])
    s = word_divergences(src_a, src_b, CB, n, kind="S")
    assert s.value == pytest.approx(kl_classical(pa, pb, "bits"), abs=1e-10)
    he2 = word_divergences(src_a, src_b, CB, n, kind="he2")
    assert he2.value == pytest.approx(hellinger_sq_classical(pa, pb), abs=1e-10)
    ren = word_divergences(src_a, src_b, CB, n, kind="renyi", lam=0.5)
    assert ren.value == pytest.approx(-2.0 * np.log(np.sum(np.sqrt(pa * pb))), abs=1e-10)


def test_word_divergence_additivity_for_iid_sources():
    src_a = MixtureSource([(1.0, example_state(0.3))])
    src_b = MixtureSource([(1.0, example_state(0.6))])
    per_letter = word_divergences(src_a, src_b, CB, 1, kind="renyi", lam=0.5).value
    level_6 = word_divergences(src_a, src_b, CB, 6, kind="renyi", lam=0.5).value
    assert level_6 == pytest.approx(6 * per_letter, abs=1e-10)


def test_word_divergences_unknown_kind():
    src = MixtureSource([(1.0, example_state(0.3))])
    with pytest.raises(ValueError):
        word_divergences(src, src, CB, 2, kind="nope")


# --- log-space word divergences at large n ------------------------------------


@pytest.mark.parametrize("n", [1100, 3000])
def test_word_relative_entropy_is_additive_at_large_n(n):
    # linear-space class probabilities underflow here: S came out inf at
    # n=1100 and 0.0 at n=3000
    src_a = MixtureSource([(1.0, example_state(0.3))])
    src_b = MixtureSource([(1.0, example_state(0.7))])
    per_letter = 0.3 * math.log2(0.3 / 0.7) + 0.7 * math.log2(0.7 / 0.3)
    s = word_divergences(src_a, src_b, CB, n, kind="S")
    assert s.base == "bits"
    assert s.value == pytest.approx(n * per_letter, rel=1e-9)


def test_word_hellinger_and_renyi_closed_forms_at_large_n():
    p, q = np.array([0.3, 0.7]), np.array([0.45, 0.55])
    src_a = MixtureSource([(1.0, example_state(0.3))])
    src_b = MixtureSource([(1.0, example_state(0.45))])
    n, lam = 3000, 0.3
    he2 = word_divergences(src_a, src_b, CB, n, kind="he2").value
    assert he2 == pytest.approx(2.0 - 2.0 * float(np.sum(np.sqrt(p * q))) ** n, rel=1e-9)
    ren = word_divergences(src_a, src_b, CB, n, kind="renyi", lam=lam).value
    affinity = float(np.sum(p**lam * q ** (1 - lam)))
    assert ren == pytest.approx(-n * math.log(affinity) / (1 - lam), rel=1e-9)


def test_word_divergences_support_conventions():
    only_0 = MixtureSource([(1.0, np.diag([1.0, 0.0]))])
    only_1 = MixtureSource([(1.0, np.diag([0.0, 1.0]))])
    assert word_divergences(only_0, only_1, CB, 5, kind="S").value == np.inf
    assert word_divergences(only_0, only_1, CB, 5, kind="renyi").value == np.inf
    assert word_divergences(only_0, only_1, CB, 5, kind="he2").value == pytest.approx(2.0)
    mixed = MixtureSource([(1.0, example_state(0.4))])
    # only_0 emits only the all-zeros word, which mixed gives 0.4^5
    s = word_divergences(only_0, mixed, CB, 5, kind="S").value
    assert s == pytest.approx(-5 * math.log2(0.4), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_word_divergences_and_mass_match_mpmath(n):
    """50-digit sums over type classes k: C(n, k) words of probability p^k (1-p)^(n-k)."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    theta_a, theta_b, lam = 0.3, 0.7, 0.4
    src_a = MixtureSource([(1.0, example_state(theta_a))])
    src_b = MixtureSource([(1.0, example_state(theta_b))])
    classes = []
    for k in range(n + 1):
        p = mp.mpf(theta_a) ** k * (1 - mp.mpf(theta_a)) ** (n - k)
        q = mp.mpf(theta_b) ** k * (1 - mp.mpf(theta_b)) ** (n - k)
        classes.append((mp.binomial(n, k), p, q))
    oracle = {
        "S": mp.fsum(c * p * mp.log(p / q) for c, p, q in classes) / mp.log(2),
        "he2": mp.fsum(c * (mp.sqrt(p) - mp.sqrt(q)) ** 2 for c, p, q in classes),
        "renyi": -mp.log(mp.fsum(c * p**lam * q ** (1 - lam) for c, p, q in classes)) / (1 - lam),
    }
    for kind, expected in oracle.items():
        value = word_divergences(src_a, src_b, CB, n, kind=kind, lam=lam).value
        assert value == pytest.approx(float(expected), rel=1e-12), kind
    # no class has a likelihood ratio (7/3)^(2k-n) equal to 1.5 or 3
    for delta in (1.5, 3.0):
        expected = mp.fsum(c * p for c, p, q in classes if q / p > delta)
        mass = distinguishability_mass(src_a, src_b, CB, n, delta)
        assert mass == pytest.approx(float(expected), rel=1e-12, abs=0.0), delta
