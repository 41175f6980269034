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
from .estim import GeneralizedModel, alpha_scale, two_part, _two_part_scores, _select
from .models import example_state
from .opcore import as_operator
from .projlat import ProjSystem, computational_basis
from .qsource import BetaExampleSource, MixtureSource, outcome_probs, word_distribution
from .typeclasses import compositions, log_multinomial

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


def distinguishability_mass(
    ref_src, comp_src, system: ProjSystem, n: int, delta: float
) -> DistinguishabilityRelation:
    """Exact reference mass of the likelihood-ratio exceedance set.

    Words with zero reference probability are outside the predicate's domain;
    their reference mass is zero anyway.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    rows_ref = word_distribution(ref_src, system, n)
    rows_comp = word_distribution(comp_src, system, n)
    mass = 0.0
    for (_, logmult, p_ref), (_, _, p_comp) in zip(rows_ref, rows_comp):
        if p_ref <= 0.0:
            continue
        if p_comp / p_ref > delta:
            mass += math.exp(logmult) * p_ref
    return DistinguishabilityRelation(delta, n, mass)


def markov_check(ref_src, comp_src, system: ProjSystem, n: int, delta: float) -> bool:
    """Coding-theorem bound: exceedance mass never tops 1/delta."""
    rel = distinguishability_mass(ref_src, comp_src, system, n, delta)
    return rel.mass <= 1.0 / delta + 1e-9


# ---------------------------------------------------------------------------
# configuration parsing


def _require(data: dict, key: str, kind, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = data[key]
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}", str(exc)) from exc


def _optional(data: dict, key: str, kind, default, path: str):
    if key not in data or data[key] is None:
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}", str(exc)) from exc


def _ascending_ints(values, path: str) -> list[int]:
    out = [int(v) for v in values]
    if not out or any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(path, "schedule must be a nonempty ascending integer list")
    return out


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
        thetas = tuple(float(t) for t in _require(data, "model_thetas", list, path))
        weights = _optional(data, "code_weights", list, None, path)
        if weights is None:
            weights = [1.0 / len(thetas)] * len(thetas)
        if len(weights) != len(thetas):
            raise ConfigError(f"{path}.code_weights", "must parallel model_thetas")
        estimator = _optional(data, "estimator", str, "two-part", path)
        if estimator not in ("two-part", "laplace"):
            raise ConfigError(f"{path}.estimator", f"unknown estimator {estimator!r}")
        replicas = _require(data, "replicas", int, path)
        if replicas < 1:
            raise ConfigError(f"{path}.replicas", "must be >= 1")
        deltas = tuple(float(d) for d in _optional(data, "deltas", list, [], path))
        if any(d <= 0 for d in deltas):
            raise ConfigError(f"{path}.deltas", "deltas must be positive")
        return cls(
            theta_star=_require(data, "theta_star", float, path),
            c=_optional(data, "c", float, 0.0, path),
            model_thetas=thetas,
            code_weights=tuple(float(w) for w in weights),
            estimator=estimator,
            n_schedule=tuple(_ascending_ints(_require(data, "n_schedule", list, path), f"{path}.n_schedule")),
            replicas=replicas,
            seed=_require(data, "seed", int, path),
            competitor_thetas=tuple(
                float(t) for t in _optional(data, "competitor_thetas", list, [], path)
            ),
            deltas=deltas,
        )


def _classical_he2(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((np.sqrt(np.clip(p, 0, None)) - np.sqrt(np.clip(q, 0, None))) ** 2))


def _classical_kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        if qi <= 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total / LN2


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
    beta_src = BetaExampleSource(config.c)
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
            result.add(n, r, "he2", _classical_he2(truth_probs, est_probs), "nats")
            result.add(n, r, "S", _classical_kl_bits(truth_probs, est_probs), "bits")
        for theta in config.competitor_thetas:
            comp_src = MixtureSource([(1.0, example_state(theta, config.c))])
            for delta in config.deltas:
                rel = distinguishability_mass(ref_src, comp_src, system, n, delta)
                result.add(n, "exact", f"mass[theta={theta:g},delta={delta:g}]", rel.mass)
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
        thetas = tuple(float(t) for t in _require(data, "model_thetas", list, path))
        weights = tuple(float(w) for w in _require(data, "code_weights", list, path))
        if len(weights) != len(thetas):
            raise ConfigError(f"{path}.code_weights", "must parallel model_thetas")
        alphas = tuple(float(a) for a in _require(data, "alphas", list, path))
        if any(a <= 1 for a in alphas):
            raise ConfigError(f"{path}.alphas", "every alpha must exceed 1")
        return cls(
            theta_star=_require(data, "theta_star", float, path),
            c=_optional(data, "c", float, 0.0, path),
            model_thetas=thetas,
            code_weights=weights,
            alphas=alphas,
            n_schedule=tuple(_ascending_ints(_require(data, "n_schedule", list, path), f"{path}.n_schedule")),
            seed=_optional(data, "seed", int, 0, path),
        )


def bound_run(config: BoundConfig) -> RunResult:
    """Exact check of the expected-divergence bound.

    For each alpha and n the expectation of the order-(1 - 1/alpha) Renyi
    divergence between truth and the per-word two-part estimate (selected on
    the alpha-scaled family) is compared against (1/n) times the relative
    entropy from truth to the scaled winner envelope. Everything is enumerated
    over type classes; nothing is sampled. A violated sum-of-traces hypothesis
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
    worst_slack = math.inf
    for alpha in config.alphas:
        lam = 1.0 - 1.0 / alpha
        scaled = alpha_scale(model, alpha)
        for n in config.n_schedule:
            lhs = 0.0
            lhs_he2 = 0.0
            rhs_sum = 0.0
            lam_sum = 0.0
            for counts in compositions(n, 2):
                mult = math.exp(log_multinomial(counts))
                log_p_star = sum(
                    k * math.log(p) if k else 0.0
                    for k, p in zip(counts, truth_probs)
                    if not (k and p <= 0.0)
                )
                if any(k and p <= 0.0 for k, p in zip(counts, truth_probs)):
                    continue  # truth never emits these words
                p_star = math.exp(log_p_star)
                tie_path = _select(model, _two_part_scores(model, system, np.asarray(counts)))
                if tie_path is None:
                    continue
                idx = tie_path.chosen
                est_probs = member_probs[idx]
                # Lambda_I: level-n trace of the alpha-scaled winning element
                lam_level = scaled.stored_traces[idx] ** n
                lam_sum += mult * lam_level
                # LHS: Renyi divergence is additive over i.i.d. extensions
                affinity = float(
                    np.sum(truth_probs**lam * np.clip(est_probs, 0, None) ** (1.0 - lam))
                )
                if affinity <= 0.0:
                    d_lam = math.inf
                else:
                    d_lam = -n * math.log(affinity) / (1.0 - lam) / LN2
                lhs += mult * p_star * d_lam
                if alpha == 2.0:
                    bhatt = float(np.sum(np.sqrt(truth_probs * np.clip(est_probs, 0, None))))
                    lhs_he2 += mult * p_star * 2.0 * (1.0 - bhatt**n)
                # RHS: winner envelope  Lambda_I * prod est_probs^k
                log_env = n * math.log(scaled.stored_traces[idx]) + sum(
                    k * math.log(p) for k, p in zip(counts, est_probs) if k
                )
                rhs_sum += mult * p_star * (log_p_star - log_env) / LN2
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


@dataclass(frozen=True)
class RedundancyConfig:
    theta_star: float
    n_schedule: tuple[int, ...]
    seed: int

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "RedundancyConfig":
        return cls(
            theta_star=_require(data, "theta_star", float, path),
            n_schedule=tuple(_ascending_ints(_require(data, "n_schedule", list, path), f"{path}.n_schedule")),
            seed=_optional(data, "seed", int, 0, path),
        )


def redundancy_per_n(theta_star: float, n: int) -> float:
    """Exact S(truth^(n) || uniform-prior mixture^(n)) in bits, pinched words.

    Truth words are Binomial(n, theta); the mixture assigns 1/((n+1) C(n,k))
    per word, so the sum runs over the n+1 type classes.
    """
    total = 0.0
    for k in range(n + 1):
        log_comb = log_multinomial((k, n - k))
        lp = 0.0
        if k:
            if theta_star <= 0.0:
                continue
            lp += k * math.log(theta_star)
        if n - k:
            if theta_star >= 1.0:
                continue
            lp += (n - k) * math.log(1.0 - theta_star)
        p_class = math.exp(log_comb + lp)
        log_mix = -math.log(n + 1) - log_comb
        total += p_class * (lp - log_mix)
    return total / LN2


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
        deltas = tuple(float(d) for d in _require(data, "deltas", list, path))
        if any(d <= 0 for d in deltas):
            raise ConfigError(f"{path}.deltas", "deltas must be positive")
        weight = _optional(data, "comp_weight", float, 1.0, path)
        if not 0.0 < weight <= 1.0:
            raise ConfigError(f"{path}.comp_weight", "must lie in (0, 1]")
        return cls(
            theta_ref=_require(data, "theta_ref", float, path),
            theta_comp=_require(data, "theta_comp", float, path),
            comp_weight=weight,
            c=_optional(data, "c", float, 0.0, path),
            deltas=deltas,
            n_schedule=tuple(_ascending_ints(_require(data, "n_schedule", list, path), f"{path}.n_schedule")),
            seed=_optional(data, "seed", int, 0, path),
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
        for delta in config.deltas:
            rel = distinguishability_mass(ref_src, comp_src, system, n, delta)
            result.add(n, "exact", f"mass[delta={delta:g}]", rel.mass)
            result.add(n, "exact", f"bound[delta={delta:g}]", 1.0 / delta)
            if rel.mass > 1.0 / delta + 1e-9:
                result.status = "fail"
    return result
