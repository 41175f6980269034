"""Experiment harness: sampling, exceedance masses, runners, reproducibility."""

import math
import warnings

import numpy as np
import pytest

from qmdl import (
    BoundConfig,
    ConfigError,
    ConsistencyConfig,
    GeneralizedModel,
    MarkovConfig,
    MixtureSource,
    RedundancyConfig,
    alpha_scale,
    bound_run,
    computational_basis,
    consistency_run,
    distinguishability_mass,
    example_state,
    example_uniform_source,
    lambda_sum,
    markov_check,
    markov_run,
    predict_next,
    redundancy_run,
    sample_words,
    universality_check,
    word_divergences,
)
from qmdl.xplab import redundancy_per_n

CB = computational_basis(2)


# --- sampling ---------------------------------------------------------------


def test_sample_words_deterministic_distribution():
    words = sample_words(np.diag([1.0, 0.0]), CB, 6, 3, seed=1)
    for word in words:
        assert np.all(word == 0)


def test_sample_words_reproducible():
    a = sample_words(example_state(0.4), CB, 20, 5, seed=99)
    b = sample_words(example_state(0.4), CB, 20, 5, seed=99)
    for wa, wb in zip(a, b):
        assert np.array_equal(wa, wb)


def test_sample_words_distinct_replica_streams():
    words = sample_words(example_state(0.5), CB, 50, 2, seed=3)
    assert not np.array_equal(words[0], words[1])


def test_sample_words_empirical_frequency():
    # binomial concentration: 4 sigma at n = 10^4 is ~0.018 < 0.02
    (word,) = sample_words(example_state(0.3), CB, 10_000, 1, seed=11)
    freq = np.mean(word == 0)
    assert abs(freq - 0.3) < 0.02


# --- distinguishability -----------------------------------------------------


def test_mass_zero_when_competitor_equals_reference():
    src = MixtureSource([(1.0, example_state(0.4))])
    rel = distinguishability_mass(src, src, CB, 5, delta=2.0)
    assert rel.mass == pytest.approx(0.0)


def test_mass_one_when_ratio_always_exceeds():
    src = MixtureSource([(1.0, example_state(0.4))])
    rel = distinguishability_mass(src, src, CB, 5, delta=0.5)
    assert rel.mass == pytest.approx(1.0)


def test_mass_nonincreasing_in_delta():
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    masses = [
        distinguishability_mass(ref, comp, CB, 8, d).mass
        for d in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))


def test_mass_decreases_along_n_for_separated_states():
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    masses = [distinguishability_mass(ref, comp, CB, n, 1.0).mass for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_markov_check_semi_density_competitor():
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(0.5, example_state(0.7))], kind="generalized")
    assert markov_check(ref, comp, CB, 8, delta=4.0)
    rel = distinguishability_mass(ref, comp, CB, 8, delta=4.0)
    assert rel.mass <= 0.25 + 1e-9


def test_markov_check_large_delta_same_source():
    src = MixtureSource([(1.0, example_state(0.4))])
    rel = distinguishability_mass(src, src, CB, 6, delta=1e6)
    assert rel.mass == pytest.approx(0.0)
    assert markov_check(src, src, CB, 6, delta=1e6)


def test_distinguishability_rejects_nonpositive_delta():
    src = MixtureSource([(1.0, example_state(0.4))])
    with pytest.raises(ValueError):
        distinguishability_mass(src, src, CB, 4, 0.0)


# --- consistency runner -----------------------------------------------------


def small_consistency_config(**overrides):
    base = {
        "theta_star": 0.3,
        "model_thetas": [0.1, 0.3, 0.5, 0.7, 0.9],
        "n_schedule": [5, 10],
        "replicas": 4,
        "seed": 42,
    }
    base.update(overrides)
    return ConsistencyConfig.from_dict(base)


def test_consistency_singleton_model_zero_divergence():
    cfg = small_consistency_config(model_thetas=[0.3])
    result = consistency_run(cfg)
    for value in result.metric_values("he2"):
        assert value == pytest.approx(0.0, abs=1e-12)
    for value in result.metric_values("S"):
        assert value == pytest.approx(0.0, abs=1e-12)


def test_consistency_csv_reproducible():
    a = consistency_run(small_consistency_config())
    b = consistency_run(small_consistency_config())
    assert a.csv_lines() == b.csv_lines()


def test_consistency_csv_schema():
    result = consistency_run(small_consistency_config())
    lines = result.csv_lines()
    assert lines[0] == "experiment,n,replica,metric,value,base,seed"
    assert lines[1].startswith("consistency,5,0,")
    assert all(line.endswith(",42") for line in lines[1:])


def test_consistency_laplace_estimator():
    cfg = small_consistency_config(estimator="laplace")
    result = consistency_run(cfg)
    assert result.metadata["estimator"] == "laplace"
    assert all(v < np.inf for v in result.metric_values("S"))


def test_consistency_competitor_masses_emitted():
    cfg = small_consistency_config(competitor_thetas=[0.8], deltas=[1.0])
    result = consistency_run(cfg)
    masses = result.metric_values("mass[theta=0.8,delta=1]")
    assert len(masses) == 2 and all(0 <= m <= 1 + 1e-9 for m in masses)


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"replicas": 0}, "config.replicas"),
        ({"estimator": "map"}, "config.estimator"),
        ({"n_schedule": [5, 5]}, "config.n_schedule"),
        ({"deltas": [-1.0]}, "config.deltas"),
        ({"code_weights": [1.0]}, "config.code_weights"),
    ],
)
def test_consistency_config_errors_carry_field_paths(patch, field):
    base = {
        "theta_star": 0.3,
        "model_thetas": [0.1, 0.3],
        "n_schedule": [5, 10],
        "replicas": 4,
        "seed": 42,
    }
    base.update(patch)
    with pytest.raises(ConfigError) as err:
        ConsistencyConfig.from_dict(base)
    assert err.value.field == field


def test_consistency_missing_field():
    with pytest.raises(ConfigError) as err:
        ConsistencyConfig.from_dict(
            {"model_thetas": [0.5], "n_schedule": [4], "replicas": 1, "seed": 0}
        )
    assert "theta_star" in err.value.field


# --- bound runner -----------------------------------------------------------


def test_bound_singleton_model_lhs_zero():
    # code weight 1/2 keeps the word-trace sum below 1 (0.25^n per word)
    result = bound_run(
        BoundConfig.from_dict(
            {
                "theta_star": 0.3,
                "model_thetas": [0.3],
                "code_weights": [0.5],
                "alphas": [2.0],
                "n_schedule": [2, 4],
            }
        )
    )
    assert result.status == "pass"
    for value in result.metric_values("lhs_renyi[alpha=2]"):
        assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta_star", [0.0, 0.3, 1.0])
def test_bound_full_weight_singleton_is_inconclusive(theta_star):
    # with code weight 1 every word contributes trace 1, so the hypothesis
    # sum <= 1 fails and the run reports inconclusive rather than pass/fail;
    # at theta_star 0 or 1 the truth emits one class, but the sum still runs
    # over every class the member emits
    result = bound_run(
        BoundConfig.from_dict(
            {
                "theta_star": theta_star,
                "model_thetas": [0.5],
                "code_weights": [1.0],
                "alphas": [2.0],
                "n_schedule": [4],
            }
        )
    )
    model = GeneralizedModel([(1.0, example_state(0.5))])
    expected = lambda_sum(alpha_scale(model, 2.0), CB, 4, select_model=model)
    assert result.metric_values("lambda_sum[alpha=2]") == [expected]
    assert expected == pytest.approx(16.0)
    assert result.status == "inconclusive"


def test_bound_two_member_inequality_with_slack():
    result = bound_run(
        BoundConfig.from_dict(
            {
                "theta_star": 0.3,
                "model_thetas": [0.3, 0.7],
                "code_weights": [0.5, 0.25],
                "alphas": [2.0],
                "n_schedule": list(range(2, 9)),
            }
        )
    )
    assert result.status == "pass"
    assert result.metadata["worst_slack_bits"] > 0
    for n in range(2, 9):
        (lhs,) = result.metric_values("lhs_renyi[alpha=2]", n)
        (rhs,) = result.metric_values("rhs[alpha=2]", n)
        (gate,) = result.metric_values("lambda_sum[alpha=2]", n)
        assert gate <= 1 + 1e-9
        assert lhs <= rhs + 1e-7


def test_bound_config_rejects_alpha_at_one():
    with pytest.raises(ConfigError) as err:
        BoundConfig.from_dict(
            {
                "theta_star": 0.3,
                "model_thetas": [0.3],
                "code_weights": [1.0],
                "alphas": [1.0],
                "n_schedule": [2],
            }
        )
    assert err.value.field == "config.alphas"


# --- redundancy runner ------------------------------------------------------


def test_redundancy_level_one_nonnegative():
    result = redundancy_run(
        RedundancyConfig.from_dict({"theta_star": 0.5, "n_schedule": [1]})
    )
    (s,) = result.metric_values("S", 1)
    assert s >= 0.0


def test_redundancy_boundary_theta_stays_bounded():
    result = redundancy_run(
        RedundancyConfig.from_dict({"theta_star": 0.0, "n_schedule": [2, 8, 32, 128]})
    )
    values = result.metric_values("S")
    assert all(np.isfinite(values))
    # the all-second-outcome word has mixture mass 1/(n+1): S = log2(n+1)
    for n, s in zip([2, 8, 32, 128], values):
        assert s == pytest.approx(np.log2(n + 1), abs=1e-10)


def test_redundancy_log_growth_checks():
    result = redundancy_run(
        RedundancyConfig.from_dict(
            {"theta_star": 0.5, "n_schedule": [2, 4, 8, 16, 32, 64, 128]}
        )
    )
    assert result.status == "pass"
    gaps = result.metric_values("S_gap")
    assert gaps and all(g <= 0.75 for g in gaps)


# --- markov runner ----------------------------------------------------------


def test_markov_run_bound_holds():
    result = markov_run(
        MarkovConfig.from_dict(
            {
                "theta_ref": 0.3,
                "theta_comp": 0.7,
                "comp_weight": 0.5,
                "deltas": [1.0, 4.0],
                "n_schedule": [4, 8],
            }
        )
    )
    assert result.status == "pass"
    for delta in (1.0, 4.0):
        for mass, bound in zip(
            result.metric_values(f"mass[delta={delta:g}]"),
            result.metric_values(f"bound[delta={delta:g}]"),
        ):
            assert mass <= bound + 1e-9


def test_markov_config_weight_range():
    with pytest.raises(ConfigError):
        MarkovConfig.from_dict(
            {
                "theta_ref": 0.3,
                "theta_comp": 0.7,
                "comp_weight": 1.5,
                "deltas": [1.0],
                "n_schedule": [4],
            }
        )


# --- result plumbing --------------------------------------------------------


def test_run_result_json_mirror():
    result = consistency_run(small_consistency_config())
    payload = result.to_json()
    assert payload["experiment"] == "consistency"
    assert payload["seed"] == 42
    assert len(payload["rows"]) == len(result.rows)
    assert "config_hash" in payload["metadata"]


def test_write_csv_round_trip(tmp_path):
    result = consistency_run(small_consistency_config())
    path = tmp_path / "run.csv"
    result.write_csv(path)
    assert path.read_text().splitlines() == result.csv_lines()


# --- log-space enumeration at large n ------------------------------------------


def binomial_log_pmf(n, theta):
    return [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(theta) + (n - k) * math.log(1 - theta)
        for k in range(n + 1)
    ]


def test_distinguishability_mass_underflow_free_at_n1100():
    # outcome 0 has probability theta; the ratio (7/3)^(2k - n) exceeds 2 iff
    # k > 550, so the mass is P(Binomial(1100, 0.3) > 550)
    n = 1100
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    log_pmf = binomial_log_pmf(n, 0.3)
    tail = math.fsum(math.exp(v) for v in log_pmf[551:])
    assert tail == pytest.approx(4.04e-44, rel=1e-3)
    assert distinguishability_mass(ref, comp, CB, n, 2.0).mass == pytest.approx(tail, rel=1e-9)
    # at delta 1 the class k = 550 has ratio 1 up to round-off and may fall either side
    mass = distinguishability_mass(ref, comp, CB, n, 1.0).mass
    upper = tail + math.exp(log_pmf[550])
    assert tail * (1 - 1e-9) <= mass <= upper * (1 + 1e-9)


def test_bound_run_finite_at_large_n():
    result = bound_run(
        BoundConfig.from_dict(
            {
                "theta_star": 0.3,
                "model_thetas": [0.3, 0.7],
                "code_weights": [0.5, 0.25],
                "alphas": [2.0],
                "n_schedule": [1100, 10000],
            }
        )
    )
    assert result.status == "pass"
    values = [value for *_, value, _ in result.rows]
    assert values and all(math.isfinite(v) for v in values)
    (rhs,) = result.metric_values("rhs[alpha=2]", 1100)
    (lhs,) = result.metric_values("lhs_renyi[alpha=2]", 1100)
    assert 0.0 <= lhs <= rhs


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5])
def test_redundancy_matches_exact_sum_and_clarke_barron(theta):
    for n in (10**4, 10**5):
        s = redundancy_per_n(theta, n)
        # S = log2(n + 1) - H(Binomial(n, theta)) in bits
        log_pmf = binomial_log_pmf(n, theta)
        entropy = -math.fsum(math.exp(v) * v for v in log_pmf) / math.log(2.0)
        assert s == pytest.approx(math.log2(n + 1) - entropy, rel=1e-9)
        # Clarke & Barron: 1/2 log2(n / 2 pi e) + 1/2 log2(1 / (theta (1 - theta)))
        # up to an O(1/n) remainder, 1.4e-4 to 2.3e-4 bits at n = 10^4 here
        asym = 0.5 * math.log2(n / (2 * math.pi * math.e)) + 0.5 * math.log2(
            1 / (theta * (1 - theta))
        )
        assert abs(s - asym) < 3.0 / n


def test_exact_consumers_emit_no_numpy_warning_at_n3000():
    n = 3000
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    only_0 = MixtureSource([(0.5, np.diag([1.0, 0.0]))], kind="generalized")
    quad = example_uniform_source(0.0, 256)
    model = GeneralizedModel([(0.5, example_state(0.3)), (0.25, example_state(0.7))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((ref, comp), (ref, only_0), (only_0, ref), (quad, ref)):
            for kind in ("S", "he2", "renyi"):
                word_divergences(a, b, CB, n, kind=kind)
            distinguishability_mass(a, b, CB, n, 1.0)
        predict_next(quad, CB, (0,) * 900 + (1,) * 2100)
        lambda_sum(model, CB, n)
        redundancy_per_n(0.3, n)
        bound_run(BoundConfig.from_dict({
            "theta_star": 0.3, "model_thetas": [0.0, 0.3, 0.7], "code_weights": [0.25, 0.5, 0.25],
            "alphas": [2.0], "n_schedule": [n],
        }))
        markov_run(MarkovConfig.from_dict({
            "theta_ref": 0.3, "theta_comp": 0.7, "deltas": [0.5, 2.0], "n_schedule": [n],
        }))
        for mode in ("q-restricted", "q-expected"):
            universality_check(ref, [example_state(0.3), np.diag([1.0, 0.0])], 0.1, [n], mode, CB)
            universality_check(only_0, [example_state(0.3)], 0.1, [n], mode, CB)
