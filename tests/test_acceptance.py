"""End-to-end acceptance gate.

Each test covers one numbered criterion, checks it at the stated tolerance,
and prints a single PASS/FAIL line on the terminal (bypassing capture) so a
full run reads as a checklist. Stated runtime budgets are asserted too.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qmdl import (
    BetaExampleSource,
    BoundConfig,
    ConsistencyConfig,
    GeneralizedModel,
    MarkovConfig,
    MixtureSource,
    ParamModel,
    ProjSystem,
    RedundancyConfig,
    bound_run,
    classify,
    computational_basis,
    consistency_run,
    convex_combine,
    distinguishability_mass,
    example_state,
    example_uniform_source,
    haar_random_system,
    markov_run,
    mle,
    op_norm,
    outcome_prob,
    partial_trace,
    predict_step,
    q_project,
    redundancy_run,
    rel_entropy,
    tensor_power,
    trace_inner_norm,
    universality_check,
)
from conftest import csv_text, random_density, random_hermitian

CB = computational_basis(2)
LN2 = math.log(2.0)


@pytest.fixture
def report(capsys):
    start = time.monotonic()

    def _report(num, name, ok, detail="", budget=None):
        elapsed = time.monotonic() - start
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        line += f"  ({elapsed:.2f}s)"
        with capsys.disabled():
            print(line)
        assert ok, f"criterion {num} ({name}) failed: {detail}"
        if budget is not None:
            assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"

    return _report


def test_criterion_01_laplace_rule(report):
    beta = BetaExampleSource()
    quad = example_uniform_source(0.0, 2048)
    worst_closed = worst_quad = 0.0
    for n in range(21):
        for k in range(n + 1):
            word = (0,) * k + (1,) * (n - k)
            target = (k + 1) / (n + 2)
            worst_closed = max(worst_closed, abs(predict_step(beta, CB, word)[0] - target))
            worst_quad = max(worst_quad, abs(predict_step(quad, CB, word)[0] - target))
    ok = worst_closed <= 1e-12 and worst_quad <= 1e-6
    report(1, "laplace-rule", ok, f"closed {worst_closed:.1e}, quadrature {worst_quad:.1e}", budget=5)


def test_criterion_02_mixture_marginal(report):
    beta = BetaExampleSource()
    worst = 0.0
    for n in range(13):
        for k in range(n + 1):
            word = (0,) * k + (1,) * (n - k)
            expected = 1.0 / ((n + 1) * math.comb(n, k))
            worst = max(worst, abs(outcome_prob(beta, CB, word) - expected))
    spot = abs(outcome_prob(beta, CB, (0, 0, 1, 1, 1)) - 1 / 60)
    ok = worst <= 1e-12 and spot <= 1e-15
    report(2, "mixture-marginal", ok, f"worst {worst:.1e}, n=5 k=2 spot {spot:.1e}")


def test_criterion_03_mle_closed_form(report):
    exact = True
    for n in range(1, 101):
        model = ParamModel.example(grid=np.arange(n + 1) / n)
        ks = range(n + 1) if n <= 25 else {0, 1, n // 2, n - 1, n}
        for k in ks:
            word = (0,) * k + (1,) * (n - k)
            if mle(model, CB, word).theta_hat != k / n:
                exact = False
    report(3, "mle-closed-form", exact, "theta_hat == k/n on denominator grids, n <= 100")


def test_criterion_04_q_projection_suite(report):
    rng = np.random.default_rng(41)
    failures = 0
    dims = [2, 4, 8]
    for trial in range(1000):
        dim = dims[trial % 3]
        fine = haar_random_system(dim, rng)
        labels = rng.integers(0, max(2, dim // 2), size=dim)
        members = {}
        for lab, p in zip(labels, fine.projectors):
            members[lab] = members.get(lab, np.zeros((dim, dim), dtype=complex)) + p
        coarse = ProjSystem(list(members.values()))
        t = random_hermitian(rng, dim)
        s = random_hermitian(rng, dim)
        tq = q_project(t, coarse)
        ok = abs(np.trace(tq) - np.trace(t)) <= 1e-9
        ok &= op_norm(tq) <= op_norm(t) + 1e-10
        ok &= trace_inner_norm(tq) <= trace_inner_norm(t) + 1e-10
        ok &= np.max(np.abs(q_project(tq, coarse) - tq)) <= 1e-10
        # refinement collapse: fine refines coarse, T_fine = (T_coarse)_fine
        t_fine = q_project(t, fine)
        ok &= np.max(np.abs(q_project(tq, fine) - t_fine)) <= 1e-9
        # (S T)_P = S_P T_P whenever T is already P-pinched
        ok &= np.max(np.abs(q_project(s @ tq, coarse) - q_project(s, coarse) @ tq)) <= 1e-9
        # pinched operators multiply inside the pinched algebra
        sq = q_project(s, coarse)
        ok &= np.max(np.abs(q_project(tq @ sq, coarse) - tq @ sq)) <= 1e-9
        # minimal systems pinch into a commutative algebra
        t_min, s_min = q_project(t, fine), q_project(s, fine)
        ok &= np.max(np.abs(t_min @ s_min - s_min @ t_min)) <= 1e-9
        if not ok:
            failures += 1
    report(4, "q-projection-suite", failures == 0, f"{failures} failures / 1000 trials", budget=30)


def test_criterion_05_pauli_classification(report):
    z = classify(np.diag([1.0, -1.0]).astype(complex), CB)
    x = classify(np.array([[0, 1], [1, 0]], dtype=complex), CB)
    y = classify(np.array([[0, -1j], [1j, 0]]), CB)
    ok = (
        z.tag == "classical"
        and z.nu <= 1e-12
        and x.tag == y.tag == "maximally-nonclassical"
        and abs(x.nu - 1) <= 1e-12
        and abs(y.nu - 1) <= 1e-12
    )
    report(5, "pauli-classification", ok, f"nu(Z)={z.nu:.1e}, nu(X)={x.nu}, nu(Y)={y.nu}")


def three_component_source():
    thetas = (0.2, 0.5, 0.8)
    weights = (0.5, 0.25, 0.25)
    model = [example_state(t, 1.0) for t in thetas]
    return MixtureSource(list(zip(weights, model))), model


def test_criterion_06_universality(report):
    eps = 0.5
    src, model = three_component_source()
    matrix = universality_check(src, model, eps, range(1, 9), "matrix")
    ok = matrix.passed and matrix.n0 is not None and matrix.n0 <= 4
    worst_margin = min(m for n, m in matrix.per_level if n >= 4)
    ok &= worst_margin >= -1e-10
    # matrix-sense domination implies the expected (relative-entropy) sense
    worst_surplus = -np.inf
    for n, _ in matrix.per_level:
        if n < matrix.n0:
            continue
        lvl = src.level(n)
        for member in model:
            s_bits = rel_entropy(tensor_power(member, n), lvl, base="bits").value
            worst_surplus = max(worst_surplus, s_bits - n * eps)
    ok &= worst_surplus <= 1e-7
    report(
        6,
        "universality",
        ok,
        f"n0={matrix.n0}, min margin {worst_margin:.1e}, S - n*eps <= {worst_surplus:.1e}",
        budget=60,
    )


def test_criterion_07_convex_universality(report):
    rng = np.random.default_rng(7)
    eps, ns = 1.0, range(2, 6)
    failures = 0
    for _ in range(20):
        member = random_density(rng, 2)
        model = [member]
        pair = []
        for _ in range(2):
            other = random_density(rng, 2)
            pair.append(MixtureSource([(0.4, member), (0.6, other)]))
        both_pass = all(
            universality_check(s, model, eps, ns, "matrix").passed for s in pair
        )
        combo_pass = universality_check(
            convex_combine(pair, [0.5, 0.5]), model, eps, ns, "matrix"
        ).passed
        if not (both_pass and combo_pass):
            failures += 1
    report(7, "convex-universality", failures == 0, f"{failures} failures / 20 instantiations")


def test_criterion_08_source_laws(report):
    rng = np.random.default_rng(8)
    worst_marginal = worst_conj = 0.0
    for _ in range(10):
        n_comp = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(n_comp))
        src = MixtureSource([(w, random_density(rng, 2)) for w in weights])
        for n in range(1, 5):
            residual = np.max(
                np.abs(partial_trace(src.level(n + 1), [2**n, 2], 1) - src.level(n))
            )
            worst_marginal = max(worst_marginal, residual)
        u, _ = np.linalg.qr(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )
        from qmdl import conjugate, system_from_unitary

        conj = conjugate(src, u)
        residual = np.max(np.abs(partial_trace(conj.level(4), [8, 2], 1) - conj.level(3)))
        worst_marginal = max(worst_marginal, residual)
        rotated = system_from_unitary(u)
        for word in itertools.product(range(2), repeat=3):
            worst_conj = max(
                worst_conj,
                abs(outcome_prob(src, CB, word) - outcome_prob(conj, rotated, word)),
            )
    ok = worst_marginal <= 1e-9 and worst_conj <= 1e-10
    report(8, "source-laws", ok, f"marginal {worst_marginal:.1e}, conjugation {worst_conj:.1e}")


def test_criterion_09_expected_divergence_bound(report):
    result = bound_run(
        BoundConfig.from_dict(
            {
                "theta_star": 0.3,
                "model_thetas": [0.3, 0.7],
                "code_weights": [0.5, 0.25],
                "alphas": [2.0, 4.0],
                "n_schedule": list(range(2, 13)),
            }
        )
    )
    ok = result.status == "pass"
    worst = -np.inf
    for alpha in (2.0, 4.0):
        for n in range(2, 13):
            (gate,) = result.metric_values(f"lambda_sum[alpha={alpha:g}]", n)
            (lhs,) = result.metric_values(f"lhs_renyi[alpha={alpha:g}]", n)
            (rhs,) = result.metric_values(f"rhs[alpha={alpha:g}]", n)
            ok &= gate <= 1 + 1e-9
            ok &= lhs <= rhs + 1e-7
            worst = max(worst, lhs - rhs)
            if alpha == 2.0:
                (he2,) = result.metric_values("lhs_he2[alpha=2]", n)
                ok &= he2 <= rhs * LN2 + 1e-7
    report(9, "expected-divergence-bound", ok, f"max lhs - rhs = {worst:.3f} bits", budget=60)


def test_criterion_10_redundancy_growth(report):
    schedule = [2, 4, 8, 16, 32, 64, 128]
    result = redundancy_run(
        RedundancyConfig.from_dict({"theta_star": 0.5, "n_schedule": schedule})
    )
    values = {n: result.metric_values("S", n)[0] for n in schedule}
    gaps = {2 * n: values[2 * n] - values[n] for n in (16, 32, 64)}
    ratios = [values[n] / math.log2(n) for n in schedule[-3:]]
    ok = result.status == "pass"
    ok &= all(g <= 0.75 for g in gaps.values())
    ok &= max(ratios) <= 1.25 * min(ratios)
    report(
        10,
        "redundancy-growth",
        ok,
        f"max gap {max(gaps.values()):.3f} bits, tail S/log2(n) in [{min(ratios):.3f}, {max(ratios):.3f}]",
        budget=10,
    )


def test_criterion_11_distinguishability(report):
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    masses = [
        distinguishability_mass(ref, comp, CB, n, 1.0) for n in (4, 8, 16, 32)
    ]
    ok = all(a > b for a, b in zip(masses, masses[1:]))
    # coding bound for semi-density competitors at every tested (n, delta)
    for weight in (1.0, 0.5, 0.25):
        semi = MixtureSource([(weight, example_state(0.7))], kind="generalized")
        for n in (4, 8, 16):
            for delta in (0.5, 1.0, 2.0, 4.0):
                mass = distinguishability_mass(ref, semi, CB, n, delta)
                ok &= mass <= 1 / delta + 1e-9
    report(
        11,
        "distinguishability",
        ok,
        "masses " + " > ".join(f"{m:.3f}" for m in masses) + ", all <= 1/delta",
    )


def test_criterion_12_consistency_decay(report):
    config = {
        "theta_star": 0.3,
        "model_thetas": [round(0.05 * i, 2) for i in range(21)],
        "estimator": "two-part",
        "n_schedule": [25, 100, 400],
        "replicas": 200,
        "seed": 20260825,
    }
    first = consistency_run(ConsistencyConfig.from_dict(config))
    second = consistency_run(ConsistencyConfig.from_dict(config))
    identical = csv_text(first) == csv_text(second)
    med_25 = float(np.median(first.metric_values("he2", 25)))
    med_400 = float(np.median(first.metric_values("he2", 400)))
    ok = identical and med_400 <= med_25
    report(
        12,
        "consistency-decay",
        ok,
        f"median He2 {med_25:.4f} @ n=25 -> {med_400:.4f} @ n=400, rerun identical={identical}",
        budget=120,
    )
