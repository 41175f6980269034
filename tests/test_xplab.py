"""Experiment harness: sampling, exceedance masses, runners, reproducibility."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from qmdl import (
    AllZeroLikelihood,
    BetaExampleSource,
    BoundConfig,
    ConfigError,
    ConsistencyConfig,
    GeneralizedModel,
    MarkovConfig,
    MixtureSource,
    ProjSystem,
    RedundancyConfig,
    alpha_scale,
    bound_run,
    computational_basis,
    consistency_run,
    distinguishability_mass,
    example_state,
    example_uniform_source,
    haar_random_system,
    hellinger_sq_classical,
    kl_classical,
    markov_run,
    outcome_probs,
    predict_step,
    redundancy_run,
    two_part,
    universality_check,
    word_divergences,
)
from qmdl.cli import main
from qmdl.errors import SizeCapExceeded
from qmdl.estim import _trace_sum, two_part_classes
from qmdl.xplab import (
    _BLOCK_BYTES,
    RunResult,
    _config_hash,
    _exceedance_mass,
    _likelihood_ratios,
    _philox_keys,
    _replica_counts,
    _replica_uniforms,
)
from conftest import brute_force_lambda_sum, random_density

CB = computational_basis(2)


def choice_words(true_state, system, n, replicas, seed):
    """The documented sampling scheme as numpy states it: Generator.choice on the
    Philox stream of SeedSequence([seed, r, n]) for each replica r."""
    probs = np.clip(outcome_probs([true_state], system)[0], 0.0, None)
    probs = probs / probs.sum()
    for r in range(replicas):
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed, r, n])))
        yield rng.choice(len(probs), size=n, p=probs)


# --- sampling ---------------------------------------------------------------


def test_replica_counts_deterministic_distribution():
    counts = _replica_counts(np.diag([1.0, 0.0]), CB, 6, 3, seed=1)
    assert counts.tolist() == [[6, 0]] * 3


def test_replica_counts_reproducible():
    a = _replica_counts(example_state(0.4), CB, 20, 5, seed=99)
    b = _replica_counts(example_state(0.4), CB, 20, 5, seed=99)
    assert np.array_equal(a, b)


def test_replica_uniforms_distinct_replica_streams():
    # the generator refills one buffer per block: copy each before the next; both replicas
    # fall in one block at n = 50 and in one-row blocks past the buffer's bytes
    for n in [50, _BLOCK_BYTES // 8 + 1]:
        first, second = np.concatenate([block.copy() for block in _replica_uniforms(3, n, 2)])
        assert not np.array_equal(first, second)


def test_replica_uniforms_blocks_hold_the_replica_streams():
    # 8 rows fill the buffer's bytes: two full blocks, then 3 rows
    n = _BLOCK_BYTES // (8 * 8)
    blocks = [block.copy() for block in _replica_uniforms(2**40 + 1, n, 19)]
    assert [block.shape for block in blocks] == [(8, n), (8, n), (3, n)]
    expected = [np.random.Generator(np.random.Philox(np.random.SeedSequence([2**40 + 1, r, n]))).random(n)
                for r in range(19)]
    assert np.array_equal(np.concatenate(blocks), expected)


@pytest.mark.parametrize("n", [2**60, 2**63, 10**308])
def test_replica_counts_refuse_word_lengths_before_any_buffer(n):
    # from 2^60 a [1, n] float64 buffer is 2^63 bytes, which numpy refuses with a ValueError
    # and an int64 tally with an OverflowError: the size error comes first
    with pytest.raises(SizeCapExceeded, match=r"^row of uniforms of shape \[\S+\] in 8-byte entries would hold more"):
        _replica_counts(example_state(0.3), CB, n, 3, seed=1)


def test_replica_counts_empirical_frequency():
    # binomial concentration: 4 sigma at n = 10^4 is ~0.018 < 0.02
    ((zeros, ones),) = _replica_counts(example_state(0.3), CB, 10_000, 1, seed=11)
    assert zeros + ones == 10_000
    assert abs(zeros / 10_000 - 0.3) < 0.02


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 - 1, 2**70 + 3])
@pytest.mark.parametrize("n", [1, 25, 1600, 2**33 + 1])
def test_philox_keys_equal_numpy_seed_sequences(seed, n):
    # seeds and word lengths of one to three 32-bit words: the entropy fills the
    # four-word pool, or overflows it and is mixed in afterwards
    expected = [np.random.SeedSequence([seed, r, n]).generate_state(2, np.uint64) for r in range(300)]
    keys = _philox_keys(seed, 300, n)
    assert keys.dtype == np.uint64 and np.array_equal(keys, expected)


@pytest.mark.parametrize("case", [
    # a zero-probability letter first, inside and last
    [0.0, 0.5, 0.3, 0.2], [0.5, 0.0, 0.3, 0.2], [0.6, 0.4, 0.0], [0.37, 0.63],
    # Haar systems of m outcomes on a random state
    3, 4, 5,
])
def test_sampler_equals_generator_choice(case):
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        system, rho = haar_random_system(case, rng), random_density(rng, case)
    else:
        system, rho = computational_basis(len(case)), np.diag(case).astype(complex)
    m = len(system)
    # blocks of 8 rows holding 19 replicas (8 + 8 + 3), and one-row blocks past the buffer's bytes
    blocks = [(5, _BLOCK_BYTES // (8 * 8), 19), (11, _BLOCK_BYTES // 8 + 1, 3)]
    for seed, n, replicas in [(7, 1, 5), (2**32 + 9, 57, 40), (2**70 + 3, 400, 12), *blocks]:
        expected = list(choice_words(rho, system, n, replicas, seed))
        counts = _replica_counts(rho, system, n, replicas, seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [np.bincount(e, minlength=m) for e in expected])


# --- distinguishability -----------------------------------------------------


def test_mass_zero_when_competitor_equals_reference():
    src = MixtureSource([(1.0, example_state(0.4))])
    mass = distinguishability_mass(src, src, CB, 5, delta=2.0)
    assert mass == pytest.approx(0.0)


def test_mass_one_when_ratio_always_exceeds():
    src = MixtureSource([(1.0, example_state(0.4))])
    mass = distinguishability_mass(src, src, CB, 5, delta=0.5)
    assert mass == pytest.approx(1.0)


def test_mass_nonincreasing_in_delta():
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    masses = [
        distinguishability_mass(ref, comp, CB, 8, d)
        for d in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))


def test_mass_decreases_along_n_for_separated_states():
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(1.0, example_state(0.7))])
    masses = [distinguishability_mass(ref, comp, CB, n, 1.0) for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_markov_check_semi_density_competitor():
    ref = MixtureSource([(1.0, example_state(0.3))])
    comp = MixtureSource([(0.5, example_state(0.7))], kind="generalized")
    mass = distinguishability_mass(ref, comp, CB, 8, delta=4.0)
    assert mass <= 0.25 + 1e-9


def test_markov_check_large_delta_same_source():
    src = MixtureSource([(1.0, example_state(0.4))])
    mass = distinguishability_mass(src, src, CB, 6, delta=1e6)
    assert mass == pytest.approx(0.0)
    assert mass <= 1.0 / 1e6 + 1e-9


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


def _loop_reference(config):
    """consistency_run as it was before replicas were scored as one count batch:
    one two_part call and one He^2 / S pair per replica's word, drawn by
    Generator.choice (choice_words), not by the library's sampler."""
    system = computational_basis(2)
    truth = example_state(config.theta_star, config.c)
    truth_probs = outcome_probs([truth], system)[0]
    model = GeneralizedModel(
        [(w, example_state(t, config.c)) for w, t in zip(config.code_weights, config.model_thetas)]
    )
    result = RunResult("consistency", config.seed)
    result.metadata = {"config_hash": _config_hash(config.__dict__), "estimator": config.estimator}
    ref_src = MixtureSource([(1.0, truth)])
    for n in config.n_schedule:
        for r, word in enumerate(choice_words(truth, system, n, config.replicas, config.seed)):
            if config.estimator == "two-part":
                est = two_part(model, system, word).state
                est_probs = outcome_probs([est], system)[0]
            else:
                k = int(np.sum(word == 0))
                p1 = (k + 1) / (n + 2)
                est_probs = np.array([p1, 1.0 - p1])
            result.add(n, r, "he2", hellinger_sq_classical(truth_probs, est_probs), "nats")
            result.add(n, r, "S", kl_classical(truth_probs, est_probs, "bits"), "bits")
        for theta in config.competitor_thetas:
            comp_src = MixtureSource([(1.0, example_state(theta, config.c))])
            ratios = _likelihood_ratios(ref_src, comp_src, system, n)
            for delta in config.deltas:
                mass = _exceedance_mass(*ratios, delta)
                result.add(n, "exact", f"mass[theta={theta:g},delta={delta:g}]", mass)
    return result


def _fuzz_consistency_config(rng, i):
    grid = [round(0.005 * j, 3) for j in range(1, 200)]
    if i % 4 == 0:
        thetas = grid
    elif i % 4 == 2:
        # dyadic mirror pairs t, 1 - t: at k = n / 2 their scores tie exactly, the
        # states differ, and the tie goes to the lower index
        t = (rng.integers(1, 8, int(rng.integers(1, 4))) / 16).tolist()
        thetas = t + [1.0 - x for x in t]
    else:
        thetas = rng.uniform(0.0, 1.0, int(rng.integers(1, 9))).round(int(rng.integers(1, 4))).tolist()
        if i % 4 == 1:  # duplicated members
            thetas = thetas + thetas[: int(rng.integers(1, len(thetas) + 1))]
    data = {
        "theta_star": [0.0, 1.0, float(rng.uniform())][i % 3],
        "c": [0.0, 0.5, 1.0][(i // 3) % 3],
        "model_thetas": thetas,
        "estimator": "laplace" if i % 5 == 4 else "two-part",
        "n_schedule": sorted(rng.choice([1, 2, 5, 13, 40, 120], size=int(rng.integers(1, 4)), replace=False).tolist()),
        "replicas": int(rng.integers(1, 25)),
        "seed": int(rng.integers(0, 2**31)),
    }
    if i % 4 == 2:  # even words with k = n / 2 and a truth that tells the mirror states apart
        data.update(theta_star=float(rng.uniform(0.3, 0.7)), n_schedule=[2, 4, 40])
    if i % 3 == 1:  # unequal code weights within the Kraft bound
        raw = rng.uniform(0.05, 1.0, len(thetas))
        data["code_weights"] = (raw / raw.sum() * rng.uniform(0.3, 1.0)).tolist()
    if i % 3 == 2:
        data["competitor_thetas"] = rng.uniform(0.0, 1.0, 2).round(2).tolist()
        data["deltas"] = [0.5, 1.0, 4.0]
    return ConsistencyConfig.from_dict(data)


def test_consistency_batch_csv_equals_the_per_replica_loop():
    rng = np.random.default_rng(2026)
    for i in range(48):
        config = _fuzz_consistency_config(rng, i)
        assert consistency_run(config).csv_lines() == _loop_reference(config).csv_lines(), config


_GRID = [round(0.005 * i, 3) for i in range(1, 200)]

# sha256 of each config's CSV as computed before the sampler drew from uniforms
# (one SeedSequence, Philox and Generator.choice per replica)
GOLDEN_CSV = [
    ({"theta_star": 0.37, "model_thetas": _GRID, "n_schedule": [25, 100, 400, 1600], "replicas": 60, "seed": 7},
     "4b9afe9c535a817b915324730307eda44a810ced7c189ff57f13a50d3669dd67"),
    ({"theta_star": 0.81, "c": 0.5, "model_thetas": [0.5], "estimator": "laplace", "n_schedule": [1, 13, 250],
      "replicas": 40, "seed": 2**40 + 5},
     "71a687a6eac5fd38221e89d5a4f4868ca72d315ee68f12b53901115f7d333cdd"),
    ({"theta_star": 0.3, "model_thetas": [0.1, 0.3, 0.5, 0.7, 0.9], "code_weights": [0.4, 0.2, 0.1, 0.1, 0.1],
      "n_schedule": [5, 40, 200], "replicas": 25, "seed": 2**64 + 17, "competitor_thetas": [0.55, 0.8],
      "deltas": [0.5, 1.0, 4.0]},
     "f4d0b81652efd7d6fe76d9c2bbd154b536ec5e8d55225de409b5f51c90b8ef4b"),
]


@pytest.mark.parametrize("data,digest", GOLDEN_CSV, ids=["two-part", "laplace", "competitors"])
def test_consistency_csv_matches_its_pinned_digest(tmp_path, data, digest):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["consistency", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 0
    assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == digest


def test_consistency_replicas_fit_one_entropy_word(tmp_path):
    data = {"theta_star": 0.3, "model_thetas": [0.3], "n_schedule": [5], "replicas": 2**32, "seed": 1}
    assert ConsistencyConfig.from_dict(data).replicas == 2**32
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(data, replicas=2**32 + 1)))
    assert main(["consistency", "--config", str(path)]) == 4


# ROADMAP item 14: on the default basis example_state(theta, c) has the law (theta, 1 - theta) for
# every c, so c changes no output; the change that makes c live lists this test
C_INVARIANT = {
    "consistency": {"theta_star": 0.3, "model_thetas": [0.1, 0.3, 0.7], "code_weights": [0.25, 0.5, 0.25],
                    "n_schedule": [5, 40], "replicas": 6, "seed": 3, "competitor_thetas": [0.7], "deltas": [2.0]},
    "bound": {"theta_star": 0.3, "model_thetas": [0.3, 0.7], "code_weights": [0.5, 0.25], "alphas": [2.0, 4.0],
              "n_schedule": [4, 16]},
    "markov": {"theta_ref": 0.3, "theta_comp": 0.7, "comp_weight": 0.5, "deltas": [1.5, 3.0], "n_schedule": [8, 32]},
}


@pytest.mark.parametrize("command", C_INVARIANT)
def test_c_changes_no_csv_on_the_default_basis(tmp_path, command):
    csvs = set()
    for c in (0.0, 0.5, 1.0):
        path = tmp_path / f"{c}.json"
        path.write_text(json.dumps(dict(C_INVARIANT[command], c=c)))
        assert main([command, "--config", str(path), "--out", str(tmp_path / f"{c}.csv")]) == 0
        csvs.add((tmp_path / f"{c}.csv").read_bytes())
    assert len(csvs) == 1


def test_consistency_word_no_member_explains_raises(tmp_path):
    # members emit only outcome 0 or only outcome 1; a fair truth soon draws a word with both
    data = {"theta_star": 0.5, "model_thetas": [0.0, 1.0], "n_schedule": [1, 6], "replicas": 4, "seed": 5}
    config = ConsistencyConfig.from_dict(data)
    for run in (_loop_reference, consistency_run):
        with pytest.raises(AllZeroLikelihood, match="every member assigns probability 0"):
            run(config)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["consistency", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"replicas": 0}, "config.replicas"),
        ({"estimator": "map"}, "config.estimator"),
        ({"n_schedule": [5, 5]}, "config.n_schedule"),
        ({"deltas": [-1.0]}, "config.deltas"),
        ({"code_weights": [1.0]}, "config.code_weights"),
        ({"replicas": 2**32 + 1}, "config.replicas"),
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
    (row,) = result.metric_values("lambda_sum[alpha=2]")
    assert row == pytest.approx(brute_force_lambda_sum(alpha_scale(model, 2.0), 4, select_model=model), abs=1e-12)
    assert row == pytest.approx(16.0)
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


BOUND_CONFIGS = {
    "readme": {"theta_star": 0.3, "model_thetas": [0.3, 0.7], "code_weights": [0.5, 0.25],
               "alphas": [2.0, 4.0], "n_schedule": list(range(2, 13))},
    "unequal-weights": {"theta_star": 0.3, "model_thetas": [0.1, 0.3, 0.5, 0.7, 0.9],
                        "code_weights": [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32], "alphas": [2.0],
                        "n_schedule": [1, 2, 5, 25, 100, 400, 1000, 1080]},
}


@pytest.mark.parametrize("name", sorted(BOUND_CONFIGS))
def test_he2_row_stays_below_the_renyi_row(name):
    """2(1 - BC^n) <= -2 ln BC^n: lhs_he2 (nats) <= ln 2 * lhs_renyi[alpha=2] (bits) at every n,
    so a He^2 gate against rhs could never fail a run that the Renyi gate passes."""
    config = BOUND_CONFIGS[name]
    result = bound_run(BoundConfig.from_dict(config))
    for n in config["n_schedule"]:
        (he2,) = result.metric_values("lhs_he2[alpha=2]", n)
        (renyi,) = result.metric_values("lhs_renyi[alpha=2]", n)
        assert 0.0 <= he2 <= math.log(2.0) * renyi * (1 + 1e-12), (n, he2, renyi)


def test_bound_rhs_is_infinite_when_no_member_explains_a_truth_class():
    # the one member (theta 0) emits only the all-ones word; the truth (theta
    # 0.3) emits every class, so the winner envelope is 0 on classes of mass
    # 1 - 0.7^20 and the relative entropy from the truth to it is +inf
    result = bound_run(
        BoundConfig.from_dict(
            {
                "theta_star": 0.3,
                "model_thetas": [0.0],
                "code_weights": [0.5],
                "alphas": [2.0],
                "n_schedule": [20],
            }
        )
    )
    assert result.metric_values("rhs[alpha=2]") == [math.inf]
    assert result.status == "pass"
    # the left side and the gate still sum over the one explained class
    (lhs,) = result.metric_values("lhs_renyi[alpha=2]")
    assert lhs == pytest.approx(-20 * math.log2(0.7) * 0.7**20, rel=1e-12)
    assert result.metric_values("lambda_sum[alpha=2]") == [pytest.approx(0.25**20, rel=1e-12)]


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


def _per_n_reference(config):
    """redundancy_run with the sources and the basis rebuilt for each n."""
    result = RunResult("redundancy", config.seed)
    result.metadata = {"config_hash": _config_hash(config.__dict__)}
    values = {}
    for n in config.n_schedule:
        truth = MixtureSource([(1.0, example_state(config.theta_star))])
        s = word_divergences(truth, BetaExampleSource(), computational_basis(2), n).value
        values[n] = s
        result.add(n, "exact", "S", s, "bits")
        if n > 1:
            result.add(n, "exact", "S_over_log2n", s / math.log2(n))
    for n in config.n_schedule:
        if 2 * n in values and n >= 16:
            gap = values[2 * n] - values[n]
            result.add(2 * n, "exact", "S_gap", gap, "bits")
            if gap > 0.75:
                result.status = "fail"
    ratios = [values[n] / math.log2(n) for n in config.n_schedule[-3:] if n > 1]
    if len(ratios) == 3:
        lo, hi = min(ratios), max(ratios)
        if hi > 1.25 * lo:
            result.status = "fail"
        result.metadata["tail_ratio_band"] = [lo, hi]
    return result


@pytest.mark.parametrize("schedule", [[2**k for k in range(4, 13)], [3, 1000, 2000, 4000]])
@pytest.mark.parametrize("theta", [0.0, 0.1, 0.37, 0.5, 1.0])
def test_redundancy_csv_equals_the_per_n_reference(tmp_path, theta, schedule):
    config = RedundancyConfig.from_dict({"theta_star": theta, "n_schedule": schedule, "seed": 3})
    got, want = redundancy_run(config), _per_n_reference(config)
    got.write_csv(tmp_path / "got.csv")
    want.write_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (got.status, got.metadata) == (want.status, want.metadata)


def test_redundancy_builds_one_system_per_run(monkeypatch):
    built = []
    init = ProjSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProjSystem, "__init__", counted)
    for schedule in ([8], [2**k for k in range(1, 13)], [3, 1000, 2000, 4000]):
        built.clear()
        redundancy_run(RedundancyConfig.from_dict({"theta_star": 0.3, "n_schedule": schedule}))
        assert len(built) == 1, schedule


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
    assert distinguishability_mass(ref, comp, CB, n, 2.0) == pytest.approx(tail, rel=1e-9)
    # at delta 1 the class k = 550 has ratio 1 up to round-off and may fall either side
    mass = distinguishability_mass(ref, comp, CB, n, 1.0)
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
    result = redundancy_run(RedundancyConfig.from_dict({"theta_star": theta, "n_schedule": [10**4, 10**5]}))
    for n in (10**4, 10**5):
        (s,) = result.metric_values("S", n)
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
        predict_step(quad, CB, (0,) * 900 + (1,) * 2100)
        _, log_mult, chosen = two_part_classes(model, CB, n)
        _trace_sum(model.stored_traces, n, log_mult, chosen)
        redundancy_run(RedundancyConfig.from_dict({"theta_star": 0.3, "n_schedule": [n]}))
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
