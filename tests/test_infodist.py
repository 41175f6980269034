"""Divergences: closed forms, support conventions, classical/quantum agreement."""

import collections
import functools
import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmdl import (
    TOL,
    InvalidOperator,
    MixtureSource,
    as_operator,
    computational_basis,
    distinguishability_mass,
    eigh,
    example_state,
    hellinger_sq,
    hellinger_sq_classical,
    herm_sqrt,
    kl_classical,
    outcome_prob,
    rel_entropy,
    renyi,
    word_divergences,
)
from qmdl import infodist, opcore
from conftest import random_density

CB = computational_basis(2)
LN2 = math.log(2.0)


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
def test_rel_entropy_matches_the_two_eigh_reference(d, rng):
    """r1's spectrum comes from eigvalsh, whose eigenvalues differ from eigh's in
    the last bits, so the values agree to round-off: within 1e-12 relative, with
    an absolute floor of 1e-15 for values at zero. Finite and +inf agree exactly."""
    for kind, r1, r2 in _rel_entropy_pairs(rng, d):
        for base in ("bits", "nats"):
            value, reference = rel_entropy(r1, r2, base).value, _rel_entropy_reference(r1, r2, base)
            assert math.isinf(value) == math.isinf(reference), (kind, base)
            if not math.isinf(reference):
                assert abs(value - reference) <= 1e-12 * abs(reference) + 1e-15, (kind, base)
            if kind != "edge":
                assert math.isinf(value) == (kind == "leak"), (kind, base)


def _direct_reference(r1, r2):
    """He^2 as ||sqrt(r1) - sqrt(r2)||_F^2 from the two reconstructed square roots."""
    return float(np.sum(np.abs(herm_sqrt(r1) - herm_sqrt(r2)) ** 2))


def _hermitian(r):
    """(r + r^H) / 2: an exactly Hermitian float matrix, so the library and the oracle read one operator."""
    r = np.asarray(r, dtype=complex)
    return (r + r.conj().T) / 2


def _mp_divergences(r1, r2, lam):
    """S in nats, the Renyi divergence of order lam in nats and He^2, at 50 digits.

    Spectra from mp.eighe, with the library's conventions: eigenvalues at or
    below TOL.support count as 0, S is +inf when r1's mass on the rest of r2's
    eigenvectors exceeds 1e-9, the Renyi divergence is +inf when the affinity
    is at most TOL.support, and He^2 is the direct ||sqrt(r1) - sqrt(r2)||_F^2.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    d, cut = len(r1), mp.mpf(TOL.support)
    m1, m2 = mp.matrix(r1.tolist()), mp.matrix(r2.tolist())
    (e1, q1), (e2, q2) = mp.eighe(m1), mp.eighe(m2)

    def spectral(e, q, f):
        return q * mp.diag([f(e[i]) if e[i] > cut else mp.zero for i in range(d)]) * q.H

    mass = [mp.re((q2[:, j].H * m1 * q2[:, j])[0, 0]) for j in range(d)]
    if mp.fsum(mass[j] for j in range(d) if e2[j] <= cut) > 1e-9:
        s = mp.inf
    else:
        s = mp.fsum(e1[i] * mp.log(e1[i]) for i in range(d) if e1[i] > cut)
        s -= mp.fsum(mass[j] * mp.log(e2[j]) for j in range(d) if e2[j] > cut)
    product = spectral(e1, q1, lambda x: x**lam) * spectral(e2, q2, lambda x: x ** (1 - lam))
    affinity = mp.re(mp.fsum(product[i, i] for i in range(d)))
    ren = mp.inf if affinity <= cut else -mp.log(affinity) / (1 - lam)
    root_gap = spectral(e1, q1, mp.sqrt) - spectral(e2, q2, mp.sqrt)
    he2 = mp.fsum(abs(root_gap[i, j]) ** 2 for i in range(d) for j in range(d))
    return float(s), float(ren), float(he2)


def _oracle_pairs(rng, d):
    """(kind, r1, r2): full rank, rank deficient and edge spectra at dimension d >= 2."""
    low = _unit(np.r_[rng.uniform(0.1, 1.0, d - 1), 0.0])
    # eigenvalues at, just below, just above and minus TOL.support; the last entry makes the trace 1
    near = np.r_[TOL.support, np.nextafter(TOL.support, 0.0), np.nextafter(TOL.support, 1.0), -TOL.support, 0.1]
    edge = np.r_[near[: d - 1], 1.0 - near[: d - 1].sum()]
    pairs = [
        ("full", random_density(rng, d), random_density(rng, d)),
        ("deficient", _spectral(rng, low), random_density(rng, d)),
        ("deficient", random_density(rng, d), _spectral(rng, low)),  # S is +inf
        ("deficient", _spectral(rng, low), _spectral(rng, low[::-1])),
        # a diagonal matrix's eigenvalues are its entries, in floats and at 50 digits alike
        ("edge", np.diag(edge), random_density(rng, d)),
        ("edge", random_density(rng, d), np.diag(edge)),
        ("edge", np.diag(edge), np.diag(edge[::-1])),
        ("disjoint", np.diag(np.r_[1.0, np.zeros(d - 1)]), np.diag(np.r_[0.0, 1.0, np.zeros(d - 2)])),
    ]
    return [(kind, _hermitian(r1), _hermitian(r2)) for kind, r1, r2 in pairs]


def _close(value, expected):
    """Equal infinities, or within 1e-12 relative with an absolute floor of 1e-14."""
    if math.isinf(expected):
        return value == expected
    return abs(value - expected) <= 1e-12 * abs(expected) + 1e-14


@pytest.mark.parametrize("d", [2, 3, 6])
def test_operator_divergences_match_a_50_digit_oracle(d, rng):
    lam = 0.37
    for kind, r1, r2 in _oracle_pairs(rng, d):
        s, ren, he2 = _mp_divergences(r1, r2, lam)
        assert _close(rel_entropy(r1, r2, "nats").value, s), (kind, "S")
        assert _close(renyi(lam, r1, r2).value, ren), (kind, "renyi")
        assert _close(hellinger_sq(r1, r2).value, he2), (kind, "he2")


@pytest.mark.parametrize("d", [2, 3, 6])
def test_near_equal_pairs_against_a_50_digit_oracle(d, rng):
    """r2 = (1 - delta) r1 + delta h: He^2 is of order delta^2, and its error
    relative to the oracle is at most twice that of the direct form (or 1e-12).
    S and the Renyi divergence keep the 1e-14 absolute floor of `_close`."""
    lam = 0.37
    for trial in range(4):
        r1, h = _hermitian(random_density(rng, d)), random_density(rng, d)
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            r2 = _hermitian((1 - delta) * r1 + delta * h)
            s, ren, he2 = _mp_divergences(r1, r2, lam)
            error = abs(hellinger_sq(r1, r2).value - he2) / he2
            direct = abs(_direct_reference(r1, r2) - he2) / he2
            assert error <= max(2 * direct, 1e-12), (trial, delta, error, direct)
            assert _close(rel_entropy(r1, r2, "nats").value, s), (trial, delta)
            assert _close(renyi(lam, r1, r2).value, ren), (trial, delta)


def test_operator_divergences_read_the_hermitian_part(rng):
    """An input within TOL.herm of Hermitian is read as (r + r^H) / 2, as eigh reads it."""
    r1, r2 = random_density(rng, 4), random_density(rng, 4)
    skew = 1e-11j * _hermitian(rng.standard_normal((4, 4)))  # i times a Hermitian matrix is anti-Hermitian
    for divergence in (rel_entropy, hellinger_sq, lambda a, b: renyi(0.4, a, b)):
        value = divergence(r1 + skew, r2 - skew).value
        assert value == pytest.approx(divergence(_hermitian(r1), _hermitian(r2)).value, rel=1e-13, abs=0.0)


def test_operator_divergences_ask_lapack_only_for_what_they_read(monkeypatch, rng):
    """rel_entropy: one eigh and one eigvalsh. renyi, hellinger_sq: two eigh, no reconstruction.
    Each validates each operator once. At 128 wide the solves come from two threads."""
    calls, lock = collections.Counter(), threading.Lock()

    def counted(name, fn):
        def run(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)
        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for module in (opcore, infodist):
        for name in ("herm_sqrt", "as_operator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(opcore, "_cpus", lambda: 2)
    for d in (5, 128):
        r1, r2 = random_density(rng, d), random_density(rng, d)
        for run, expected in [
            (lambda: rel_entropy(r1, r2), {"eigh": 1, "eigvalsh": 1, "as_operator": 2}),
            (lambda: renyi(0.4, r1, r2), {"eigh": 2, "as_operator": 2}),
            (lambda: hellinger_sq(r1, r2), {"eigh": 2, "as_operator": 2}),
        ]:
            calls.clear()
            run()
            assert calls == collections.Counter(expected)


DIVERGENCES = [rel_entropy, functools.partial(renyi, 0.4), hellinger_sq]


@pytest.mark.parametrize("d", [64, 128, 256])
def test_operator_divergences_are_bit_identical_on_one_cpu_and_two(monkeypatch, rng, d):
    """From 64 wide a second thread solves r2 while the caller solves r1; every value is the
    in-order path's, bit for bit, and no thread outlives a call."""
    r1, r2 = random_density(rng, d), random_density(rng, d)
    solvers = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, solve=solve: solvers.append(threading.get_ident()) or solve(*a))
    threads = threading.active_count()
    values = {}
    for cpus in (2, 1):
        monkeypatch.setattr(opcore, "_cpus", lambda: cpus)
        solvers.clear()
        values[cpus] = [f(r1, r2).value.hex() for f in DIVERGENCES]
        assert threading.active_count() == threads
        off_main = sorted(ident != threading.get_ident() for ident in solvers)
        assert off_main == sorted([False, cpus == 2] * len(DIVERGENCES))
    assert values[2] == values[1]


def test_two_malformed_wide_operators_raise_r1s_error(monkeypatch):
    """As at 2 x 2: with both operators not Hermitian, r1 is named on either path, and the
    second thread is joined before the error leaves."""
    r1, r2 = np.eye(128) / 128, np.eye(128) / 128
    r1[0, 1], r2[0, 1] = 0.1, 0.2
    threads = threading.active_count()
    for cpus in (2, 1):
        monkeypatch.setattr(opcore, "_cpus", lambda: cpus)
        for f in DIVERGENCES:
            with pytest.raises(InvalidOperator, match="not Hermitian: max deviation 1.000e-01 > 1.0e-10"):
                f(r1, r2)
            assert threading.active_count() == threads


def test_divergences_check_both_shapes_before_either_spectrum():
    """Shape and finiteness of r1 and r2 come before either's Hermiticity, alike in all three:
    a 2 x 3 r2 is named before a non-Hermitian r1."""
    for f in DIVERGENCES:
        with pytest.raises(InvalidOperator, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            f(np.array([[0.5, 0.1], [0.0, 0.5]]), np.zeros((2, 3)))


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


def _scalar_kl(p, q, base):
    """The per-entry loop: p log(p/q) with math.log, skipped at p <= 0, +inf at q <= 0."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        if qi <= 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total / (LN2 if base == "bits" else 1.0)


def _scalar_he2(p, q):
    """(sqrt p - sqrt q)^2 per entry, negatives read as 0, added in index order from 0.0."""
    total = 0.0
    for pi, qi in zip(np.clip(p, 0, None), np.clip(q, 0, None)):
        total += (np.sqrt(pi) - np.sqrt(qi)) ** 2
    return float(total)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_batched_classical_divergences_equal_the_scalar_ones(rng, m):
    """Rows [K, m] give each row's scalar value bit for bit, zeros on either side included;
    one pair of laws gives a float. At m = 2 He^2 is also the float np.sum gives."""
    p = rng.dirichlet(np.ones(m))
    rows = rng.dirichlet(np.ones(m), size=12)
    rows[3, 0] = rows[4, -1] = 0.0  # q = 0 where p > 0: +inf
    rows[5] = p
    rows[6, 1:] = 0.0
    rows[6, 0] = 1.0
    rows[7, 0] = -0.0
    for truth in (p, np.where(np.arange(m) == 1, 0.0, p / p[np.arange(m) != 1].sum())):
        for base in ("bits", "nats"):
            batch = kl_classical(truth, rows, base)
            assert batch.shape == (len(rows),)
            singles = [kl_classical(truth, q, base) for q in rows]
            assert all(type(v) is float for v in singles)
            scalar = [_scalar_kl(truth, q, base) for q in rows]
            assert batch.tobytes() == np.array(singles).tobytes() == np.array(scalar).tobytes()
        he2 = hellinger_sq_classical(truth, rows)
        singles = [hellinger_sq_classical(truth, q) for q in rows]
        scalar = [_scalar_he2(truth, q) for q in rows]
        assert he2.tobytes() == np.array(singles).tobytes() == np.array(scalar).tobytes()
        if m == 2:
            root = np.sqrt(np.clip(truth, 0, None))
            assert he2.tolist() == [float(np.sum((root - np.sqrt(np.clip(q, 0, None))) ** 2)) for q in rows]
    assert np.isinf(kl_classical(p, rows)[[3, 4]]).all()
    # rows on the left too: [K, m] against [K, m] and against one law
    assert kl_classical(rows[5:], rows[5:]).tolist() == [0.0] * (len(rows) - 5)
    assert kl_classical(rows, p).tobytes() == np.array([_scalar_kl(q, p, "bits") for q in rows]).tobytes()
