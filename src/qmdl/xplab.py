"""Experiment harness: outcome sampling, consistency/distinguishability runs,
redundancy curves and the expected-divergence bound check.

Everything is seed-deterministic: replica streams come from counter-based
Philox generators keyed by (seed, replica, n), and exact enumerations are
single-pass, so reruns produce byte-identical CSV.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .estim import GeneralizedModel, alpha_scale, check_kraft, two_part, two_part_classes, _trace_sum
from .infodist import hellinger_sq_classical, kl_classical, word_divergences
from .models import example_state
from .opcore import as_operator
from .projlat import ProjSystem, computational_basis
from .qsource import BetaExampleSource, MixtureSource, outcome_probs, word_distribution
from .serial import choice, each, integer, interval, levels, read, unit
from .typeclasses import log_likelihoods

__all__ = [
    "RunResult",
    "sample_words",
    "DistinguishabilityRelation",
    "distinguishability_mass",
    "markov_check",
    "ConsistencyConfig",
    "consistency_run",
    "BoundConfig",
    "bound_run",
    "RedundancyConfig",
    "redundancy_run",
    "MarkovConfig",
    "markov_run",
]

LN2 = math.log(2.0)

CSV_HEADER = "experiment,n,replica,metric,value,base,seed"


@dataclass
class RunResult:
    """Rows of (experiment, n, replica|"exact", metric, value, base) + metadata."""

    experiment: str
    seed: int
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    status: str = "pass"  # "pass" | "fail" | "inconclusive"

    def add(self, n: int, replica, metric: str, value: float, base: str = "") -> None:
        self.rows.append((self.experiment, n, replica, metric, float(value), base))

    def csv_lines(self) -> list[str]:
        lines = [CSV_HEADER]
        for exp, n, replica, metric, value, base in self.rows:
            lines.append(f"{exp},{n},{replica},{metric},{value!r},{base},{self.seed}")
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "status": self.status,
            "metadata": self.metadata,
            "rows": [
                {
                    "experiment": exp,
                    "n": n,
                    "replica": replica,
                    "metric": metric,
                    "value": value,
                    "base": base,
                }
                for exp, n, replica, metric, value, base in self.rows
            ],
        }

    def metric_values(self, metric: str, n: int | None = None) -> list[float]:
        return [
            value
            for _, row_n, _, row_metric, value, _ in self.rows
            if row_metric == metric and (n is None or row_n == n)
        ]


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _replica_rng(seed: int, replica: int, n: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, replica, n)."""
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence([seed, replica, n]))
    )


def sample_words(
    true_state: np.ndarray,
    system: ProjSystem,
    n: int,
    replicas: int,
    seed: int,
) -> list[np.ndarray]:
    """i.i.d. outcome words drawn from Tr(q rho q); one word per replica."""
    rho = as_operator(true_state)
    probs = np.clip(outcome_probs([rho], system)[0], 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    probs = probs / total
    return [
        _replica_rng(seed, r, n).choice(len(probs), size=n, p=probs)
        for r in range(replicas)
    ]


@dataclass(frozen=True)
class DistinguishabilityRelation:
    delta: float
    n: int
    mass: float  # reference mass of words whose likelihood ratio exceeds delta


def _likelihood_ratios(ref_src, comp_src, system: ProjSystem, n: int):
    """(log reference class mass, log likelihood ratio) over the classes the reference emits."""
    counts, log_mult, log_ref = word_distribution(ref_src, system, n)
    live = log_ref > -np.inf
    log_comp = comp_src.log_prob(system, counts[live])
    return log_mult[live] + log_ref[live], log_comp - log_ref[live]


def _exceedance_mass(log_mass: np.ndarray, log_ratio: np.ndarray, delta: float) -> float:
    return float(np.exp(log_mass[log_ratio > math.log(delta)]).sum())


def distinguishability_mass(
    ref_src, comp_src, system: ProjSystem, n: int, delta: float
) -> DistinguishabilityRelation:
    """Exact reference mass of the likelihood-ratio exceedance set.

    Words with zero reference probability are outside the predicate's domain;
    their reference mass is zero anyway. The set is a strict log ratio > log
    delta, so a class whose exact ratio equals delta falls on either side by
    round-off: for theta 0.3 vs 0.7, delta 1 and n = 1100, the k = 550 class
    has ratio 1 + 1e-13 (1 - 0.7 is 0.30000000000000004) and is counted.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    mass = _exceedance_mass(*_likelihood_ratios(ref_src, comp_src, system, n), delta)
    return DistinguishabilityRelation(delta, n, mass)


def markov_check(ref_src, comp_src, system: ProjSystem, n: int, delta: float) -> bool:
    """Coding-theorem bound: exceedance mass never tops 1/delta.

    The exceedance set follows distinguishability_mass, so a class within
    round-off of delta may fall on either side.
    """
    rel = distinguishability_mass(ref_src, comp_src, system, n, delta)
    return rel.mass <= 1.0 / delta + 1e-9


# ---------------------------------------------------------------------------
# configuration parsing


def _schedule(value) -> tuple[int, ...]:
    out = levels(value)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("schedule must be strictly ascending")
    return out


def _code_weights(value) -> tuple[float, ...]:
    return check_kraft(each(interval("(0, 1]"))(value))


@dataclass(frozen=True)
class ConsistencyConfig:
    theta_star: float
    c: float
    model_thetas: tuple[float, ...]
    code_weights: tuple[float, ...]
    estimator: str  # "two-part" | "laplace"
    n_schedule: tuple[int, ...]
    replicas: int
    seed: int
    competitor_thetas: tuple[float, ...]
    deltas: tuple[float, ...]

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "ConsistencyConfig":
        thetas = read(data, "model_thetas", each(unit, nonempty=True), path)
        weights = read(data, "code_weights", _code_weights, path, (1.0 / len(thetas),) * len(thetas))
        if len(weights) != len(thetas):
            raise ConfigError(f"{path}.code_weights", "must parallel model_thetas")
        return cls(
            theta_star=read(data, "theta_star", unit, path),
            c=read(data, "c", unit, path, 0.0),
            model_thetas=thetas,
            code_weights=weights,
            estimator=read(data, "estimator", choice("two-part", "laplace"), path, "two-part"),
            n_schedule=read(data, "n_schedule", _schedule, path),
            replicas=read(data, "replicas", integer(1), path),
            seed=read(data, "seed", integer(0), path),
            competitor_thetas=read(data, "competitor_thetas", each(unit), path, ()),
            deltas=read(data, "deltas", each(interval("(0, inf)")), path, ()),
        )


def consistency_run(config: ConsistencyConfig) -> RunResult:
    """Monte-Carlo estimate-to-truth divergence decay plus exact ratio masses.

    Per (n, replica): sample a word from the true state, estimate (two-part or
    Laplace-predictive), report He^2 and S between the pinched estimate and the
    pinched truth. Declared competitors additionally get exact
    distinguishability masses per n.
    """
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
        for r, word in enumerate(
            sample_words(truth, system, n, config.replicas, config.seed)
        ):
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


@dataclass(frozen=True)
class BoundConfig:
    theta_star: float
    c: float
    model_thetas: tuple[float, ...]
    code_weights: tuple[float, ...]
    alphas: tuple[float, ...]
    n_schedule: tuple[int, ...]
    seed: int

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "BoundConfig":
        thetas = read(data, "model_thetas", each(unit, nonempty=True), path)
        weights = read(data, "code_weights", _code_weights, path)
        if len(weights) != len(thetas):
            raise ConfigError(f"{path}.code_weights", "must parallel model_thetas")
        return cls(
            theta_star=read(data, "theta_star", unit, path),
            c=read(data, "c", unit, path, 0.0),
            model_thetas=thetas,
            code_weights=weights,
            alphas=read(data, "alphas", each(interval("(1, inf)")), path),
            n_schedule=read(data, "n_schedule", _schedule, path),
            seed=read(data, "seed", integer(0), path, 0),
        )


def bound_run(config: BoundConfig) -> RunResult:
    """Exact check of the expected-divergence bound.

    The per-word two-part estimate is selected on the family as given, once
    per n. For each alpha and n the expectation of the order-(1 - 1/alpha)
    Renyi divergence between truth and that estimate is compared against (1/n)
    times the relative entropy from truth to the winner envelope Lambda_I *
    (estimate's word probability), where Lambda_I is the level-n trace of the
    winner's alpha-scaled copy. Both expectations run over the classes the
    truth emits; the lambda_sum row sums Lambda_I over every class with a
    winner, as lambda_sum(alpha_scale(model, alpha), system, n,
    select_model=model) does. Everything is enumerated over type classes;
    nothing is sampled. A lambda_sum above 1 (the bound's hypothesis fails)
    marks the run inconclusive instead of failed.
    """
    system = computational_basis(2)
    truth_probs = outcome_probs([example_state(config.theta_star, config.c)], system)[0]
    model = GeneralizedModel(
        [(w, example_state(t, config.c)) for w, t in zip(config.code_weights, config.model_thetas)]
    )
    member_probs = outcome_probs(model.states, system)
    result = RunResult("bound", config.seed)
    result.metadata = {"config_hash": _config_hash(config.__dict__)}
    tables = {
        n: _bound_table(model, system, truth_probs, member_probs, n) for n in config.n_schedule
    }
    worst_slack = math.inf
    for alpha in config.alphas:
        lam = 1.0 - 1.0 / alpha
        scaled = alpha_scale(model, alpha)
        # Renyi affinity and Bhattacharyya coefficient of truth and each member
        affinity = np.sum(truth_probs**lam * np.clip(member_probs, 0, None) ** (1.0 - lam), axis=1)
        bhatt = np.sum(np.sqrt(truth_probs * np.clip(member_probs, 0, None)), axis=1)
        for n in config.n_schedule:
            log_mult, chosen, emitted, log_star, log_est = tables[n]
            lam_sum = _trace_sum(scaled.stored_traces, n, log_mult, chosen)
            idx = chosen[emitted]
            mass = np.exp(log_mult[emitted] + log_star)  # truth's mass on each class
            # Lambda_I: level-n trace of the alpha-scaled winning element
            log_lam = n * np.log(scaled.stored_traces[idx])
            # LHS: Renyi divergence is additive over i.i.d. extensions
            d_lam = -n * np.log(affinity[idx]) / (1.0 - lam) / LN2
            lhs = float(np.sum(mass * d_lam))
            lhs_he2 = float(np.sum(mass * 2.0 * (1.0 - bhatt[idx] ** n)))
            # RHS: winner envelope  Lambda_I * prod est_probs^k
            rhs_sum = float(np.sum(mass * (log_star - (log_lam + log_est)) / LN2))
            rhs = rhs_sum / n
            result.add(n, "exact", f"lambda_sum[alpha={alpha:g}]", lam_sum)
            result.add(n, "exact", f"lhs_renyi[alpha={alpha:g}]", lhs, "bits")
            result.add(n, "exact", f"rhs[alpha={alpha:g}]", rhs, "bits")
            if alpha == 2.0:
                result.add(n, "exact", "lhs_he2[alpha=2]", lhs_he2, "nats")
            if lam_sum > 1 + 1e-9:
                result.status = "inconclusive"
                continue
            slack = rhs - lhs
            worst_slack = min(worst_slack, slack)
            if lhs > rhs + 1e-7:
                result.status = "fail"
            if alpha == 2.0 and lhs_he2 * LN2 > (rhs * LN2) + 1e-7:
                # He^2 carries no base; compare in nats against the nats RHS
                result.status = "fail"
    result.metadata["worst_slack_bits"] = worst_slack
    return result


def _bound_table(model, system, truth_probs, member_probs, n: int):
    """Two-part class table at length n plus, on the classes the truth emits and
    some member explains (emitted), the truth's and the winner's log word probs."""
    counts, log_mult, chosen = two_part_classes(model, system, n)
    log_star = log_likelihoods(truth_probs[None], counts)[:, 0]
    emitted = (log_star > -np.inf) & (chosen >= 0)
    idx = chosen[emitted]
    log_est = log_likelihoods(member_probs, counts[emitted])[np.arange(len(idx)), idx]
    return log_mult, chosen, emitted, log_star[emitted], log_est


@dataclass(frozen=True)
class RedundancyConfig:
    theta_star: float
    n_schedule: tuple[int, ...]
    seed: int

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "RedundancyConfig":
        return cls(
            theta_star=read(data, "theta_star", unit, path),
            n_schedule=read(data, "n_schedule", _schedule, path),
            seed=read(data, "seed", integer(0), path, 0),
        )


def redundancy_per_n(theta_star: float, n: int) -> float:
    """Exact S(truth^(n) || uniform-prior mixture^(n)) in bits, pinched words.

    Truth words are Binomial(n, theta); the mixture assigns 1/((n+1) C(n,k))
    per word, so the sum runs over the n+1 type classes.
    """
    truth = MixtureSource([(1.0, example_state(theta_star))])
    return word_divergences(truth, BetaExampleSource(), computational_basis(2), n).value


def redundancy_run(config: RedundancyConfig) -> RunResult:
    """Exact redundancy curve S(n) with its log-growth diagnostics."""
    result = RunResult("redundancy", config.seed)
    result.metadata = {"config_hash": _config_hash(config.__dict__)}
    values: dict[int, float] = {}
    for n in config.n_schedule:
        s = redundancy_per_n(config.theta_star, n)
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
    ratios = [
        values[n] / math.log2(n) for n in config.n_schedule[-3:] if n > 1
    ]
    if len(ratios) == 3:
        lo, hi = min(ratios), max(ratios)
        if hi > 1.25 * lo:
            result.status = "fail"
        result.metadata["tail_ratio_band"] = [lo, hi]
    return result


@dataclass(frozen=True)
class MarkovConfig:
    theta_ref: float
    theta_comp: float
    comp_weight: float
    c: float
    deltas: tuple[float, ...]
    n_schedule: tuple[int, ...]
    seed: int

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "MarkovConfig":
        return cls(
            theta_ref=read(data, "theta_ref", unit, path),
            theta_comp=read(data, "theta_comp", unit, path),
            comp_weight=read(data, "comp_weight", interval("(0, 1]"), path, 1.0),
            c=read(data, "c", unit, path, 0.0),
            deltas=read(data, "deltas", each(interval("(0, inf)")), path),
            n_schedule=read(data, "n_schedule", _schedule, path),
            seed=read(data, "seed", integer(0), path, 0),
        )


def markov_run(config: MarkovConfig) -> RunResult:
    """Exact exceedance masses with the 1/delta coding bound asserted."""
    system = computational_basis(2)
    ref_src = MixtureSource([(1.0, example_state(config.theta_ref, config.c))])
    comp_src = MixtureSource(
        [(config.comp_weight, example_state(config.theta_comp, config.c))],
        kind="generalized",
    )
    result = RunResult("markov", config.seed)
    result.metadata = {"config_hash": _config_hash(config.__dict__)}
    for n in config.n_schedule:
        ratios = _likelihood_ratios(ref_src, comp_src, system, n)
        for delta in config.deltas:
            mass = _exceedance_mass(*ratios, delta)
            result.add(n, "exact", f"mass[delta={delta:g}]", mass)
            result.add(n, "exact", f"bound[delta={delta:g}]", 1.0 / delta)
            if mass > 1.0 / delta + 1e-9:
                result.status = "fail"
    return result
