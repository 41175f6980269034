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
from dataclasses import dataclass, field, fields

import numpy as np

from .config import admit
from .errors import AllZeroLikelihood, ConfigError
from .estim import GeneralizedModel, alpha_scale, check_kraft, two_part_classes, _select, _trace_sum, _two_part_scores
from .infodist import hellinger_sq_classical, kl_classical, word_divergences
from .models import example_state, example_states
from .projlat import ProjSystem, computational_basis
from .qsource import BetaExampleSource, MixtureSource, word_distribution
from .serial import REQUIRED, choice, each, integer, interval, levels, read, unit
from .typeclasses import summed_logs

__all__ = [
    "RunResult",
    "distinguishability_mass",
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

# a run's verdicts in rising precedence: RunResult._mark keeps the highest it is given
_VERDICTS = ("pass", "inconclusive", "fail")

# rows formatted and written per write (RunResult.write_csv)
_CSV_BLOCK = 4096

# most bytes of the sampler's uniforms buffer (_replica_uniforms), unless one row of n needs more
_BLOCK_BYTES = 1 << 16


@dataclass
class RunResult:
    """Rows of (experiment, n, replica|"exact", metric, value, base) + metadata."""

    experiment: str
    seed: int
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    status: str = "pass"  # "pass" | "inconclusive" | "fail" (_VERDICTS), set through _mark

    def add(self, n: int, replica, metric: str, value: float, base: str = "") -> None:
        self.rows.append((self.experiment, n, replica, metric, float(value), base))

    def _mark(self, verdict: str) -> None:
        """Fold a check's verdict into the status: fail outranks inconclusive, which outranks
        pass, so the status does not depend on the order the checks ran in."""
        self.status = max(self.status, verdict, key=_VERDICTS.index)

    def write_csv(self, fh) -> None:
        """Write the header, then one line per row, to the text stream fh, _CSV_BLOCK rows per
        write, so no more than one block is ever formatted at once. A value prints as its float
        repr, so each row's value must be a Python float (as `add` stores it)."""
        fh.write(CSV_HEADER + "\n")
        seed = self.seed
        for start in range(0, len(self.rows), _CSV_BLOCK):
            fh.write("".join(f"{exp},{n},{replica},{metric},{value!r},{base},{seed}\n"
                             for exp, n, replica, metric, value, base in self.rows[start : start + _CSV_BLOCK]))

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


def _result(experiment: str, config, **metadata) -> RunResult:
    """A run's empty result: the config's seed, and metadata led by the config's hash."""
    return RunResult(experiment, config.seed, metadata={"config_hash": _config_hash(config.__dict__), **metadata})


def _point(theta: float, c: float = 0.0) -> MixtureSource:
    """example_state(theta, c) as a one-component source: a point law whose letter tables
    (letter_probs, log_letter_probs) are built once per system and read by every consumer."""
    return MixtureSource([(1.0, example_state(theta, c))])


def _model(config) -> GeneralizedModel:
    """The config's family: code weight code_weights[i] on example_state(model_thetas[i], c)."""
    return GeneralizedModel(zip(config.code_weights, example_states(config.model_thetas, config.c)))


# numpy's SeedSequence constants (O'Neill's seed_seq_fe): pool hashing, output
# hashing and pool mixing, all on 32-bit words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """A nonnegative integer's 32-bit words, least significant first (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 columns, with its running hash constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> np.uint32(16)


def _philox_keys(seed: int, replicas: int, n: int) -> np.ndarray:
    """The Philox keys of SeedSequence([seed, r, n]) for r < replicas, as [replicas, 2] uint64.

    numpy's SeedSequence run once on [replicas] columns of uint32 words, which
    wrap as its C code does: the entropy words (seed's, then r, then n's, each
    least significant first) are hashed into a 4-word pool, the pool words are
    mixed pairwise, entropy beyond 4 words is mixed into every pool word, and
    generate_state(2, uint64) hashes the pool out into little-endian pairs.
    """
    def column(word: int) -> np.ndarray:
        return np.full(replicas, word, dtype=np.uint32)

    entropy = [*map(column, _uint32_words(seed)), np.arange(replicas, dtype=np.uint32),
               *map(column, _uint32_words(n))]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else column(0)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashout = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashout(word) for word in pool], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _replica_uniforms(seed: int, n: int, replicas: int):
    """Blocks [rows, n] of the replicas' uniforms, in replica order, each row from the Philox
    stream keyed by (seed, replica, n).

    One generator is re-keyed per row through its documented state (counter 0, empty
    buffer), so replica r's row holds what Generator(Philox(SeedSequence([seed, r, n]))).random(n)
    reads. The blocks are views of one [rows, n] buffer of at most _BLOCK_BYTES (one row when a
    row is larger); the last may have fewer rows. Read each block before the next. The row of n
    uniforms is admitted (config.admit) on the first block, before any buffer is formed.
    """
    admit("row of uniforms", n, itemsize=8)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # plain lists: the state setter reads them element by element, faster than numpy arrays
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = _philox_keys(seed, replicas, n)
    rows = max(1, min(replicas, _BLOCK_BYTES // (8 * n)))
    buffer = np.empty((rows, n))
    for start in range(0, replicas, rows):
        block = buffer[: replicas - start]
        for row, key in zip(block, keys[start : start + rows].tolist()):
            state["state"]["key"] = key
            bitgen.state = state
            gen.random(out=row)
        yield block


def _replica_counts(truth: MixtureSource, system: ProjSystem, n: int, replicas: int, seed: int) -> np.ndarray:
    """The outcome counts [replicas, m] of i.i.d. words from a point law's letters, no word formed.

    The cumulative law cdf is the truth's one row of letter_probs, clipped at 0 and normalised as
    Generator.choice does. Word r is cdf.searchsorted(u, "right") on the uniforms u of the Philox
    stream keyed by (seed, r, n): the word Generator.choice(m, n, p) draws there. Its letter is <= a
    exactly where its uniform is < cdf[a], so the counts are the differences of those tallies; the
    last tally is n. Each block of replicas (_replica_uniforms) is tallied at once, one
    count_nonzero over its rows per cut. The counts are admitted first, and with them the
    [replicas, 2] uint64 keys.
    """
    (probs,) = np.clip(truth.letter_probs(system), 0.0, None)
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    admit("replica counts", replicas, len(cdf), itemsize=8)
    below = np.empty((replicas, len(cdf) - 1), dtype=np.int64)
    start = 0
    for block in _replica_uniforms(seed, n, replicas):
        for a, c in enumerate(cdf[:-1]):
            below[start : start + len(block), a] = np.count_nonzero(block < c, axis=1)
        start += len(block)
    return np.diff(below, axis=1, prepend=0, append=n)


def _exceedance_masses(ref_src, comp_src, system: ProjSystem, n: int, deltas) -> list[float]:
    """Exact reference mass of the length-n words whose likelihood ratio comp/ref exceeds each
    delta, all from one type-class table over the classes the reference emits."""
    counts, log_mult, log_ref = word_distribution(ref_src, system, n)
    live = log_ref > -np.inf
    log_mass = log_mult[live] + log_ref[live]
    log_ratio = comp_src.log_prob(system, counts[live]) - log_ref[live]
    return [float(np.exp(log_mass[log_ratio > math.log(delta)]).sum()) for delta in deltas]


def distinguishability_mass(
    ref_src, comp_src, system: ProjSystem, n: int, delta: float
) -> float:
    """Exact reference mass of the words whose likelihood ratio exceeds delta.

    Words with zero reference probability are outside the predicate's domain;
    their reference mass is zero anyway. The set is a strict log ratio > log
    delta, so a class whose exact ratio equals delta falls on either side by
    round-off: for theta 0.3 vs 0.7, delta 1 and n = 1100, the k = 550 class
    has ratio 1 + 1e-13 (1 - 0.7 is 0.30000000000000004) and is counted.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _exceedance_masses(ref_src, comp_src, system, n, [delta])[0]


# ---------------------------------------------------------------------------
# configuration parsing


def _schedule(value) -> tuple[int, ...]:
    out = levels(value)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("schedule must be strictly ascending")
    return out


def _code_weights(value) -> tuple[float, ...]:
    return check_kraft(each(interval("(0, 1]"))(value))


def _replicas(value) -> int:
    """A replica count whose indices each fit the one 32-bit entropy word of their stream key."""
    count = integer(1)(value)
    if count > 2**32:
        raise ValueError(f"must be at most 2^32, got {count}")
    return count


def _field(parse, default=REQUIRED):
    """A config field: the config key of its name read by `parse`, or `default` when absent."""
    return field(metadata={"parse": parse, "default": default})


class _Config:
    """The experiment configs: frozen dataclasses whose every field is a _field."""

    @classmethod
    def from_dict(cls, data: dict):
        """Read every field through serial.read in declaration order; a bad or missing one raises
        ConfigError naming config.<key>. Rules across fields run in the class's __post_init__."""
        return cls(**{f.name: read(data, f.name, f.metadata["parse"], "config", f.metadata["default"])
                      for f in fields(cls)})


def _weights_parallel_thetas(config) -> None:
    """The rule across a family's fields: one code weight per member."""
    if len(config.code_weights) != len(config.model_thetas):
        raise ConfigError("config.code_weights", "must parallel model_thetas")


@dataclass(frozen=True)
class ConsistencyConfig(_Config):
    theta_star: float = _field(unit)
    c: float = _field(unit, 0.0)
    model_thetas: tuple[float, ...] = _field(each(unit, nonempty=True))
    code_weights: tuple[float, ...] = _field(_code_weights, None)
    estimator: str = _field(choice("two-part", "laplace"), "two-part")
    n_schedule: tuple[int, ...] = _field(_schedule)
    replicas: int = _field(_replicas)
    seed: int = _field(integer(0))
    competitor_thetas: tuple[float, ...] = _field(each(unit), ())
    deltas: tuple[float, ...] = _field(each(interval("(0, inf)")), ())

    def __post_init__(self):
        if self.code_weights is None:  # one uniform code over the members
            object.__setattr__(self, "code_weights", (1.0 / len(self.model_thetas),) * len(self.model_thetas))
        _weights_parallel_thetas(self)


def consistency_run(config: ConsistencyConfig) -> RunResult:
    """Monte-Carlo estimate-to-truth divergence decay plus exact ratio masses.

    Per (n, replica): sample a word from the true state, estimate (two-part or
    Laplace-predictive), report He^2 and S between the pinched estimate and the
    pinched truth. Only each word's outcome counts are drawn (_replica_counts);
    the replicas of one n are estimated as one count batch, and He^2 and S are
    taken once per distinct estimate, as one batch of rows. Declared competitors additionally get exact
    distinguishability masses per n.
    """
    # two rows per replica and n take about 300 bytes of resident memory (ru_maxrss; 224 of
    # them are the rows' tuples, list slots and replica int): 19 8-byte words a row
    admit("consistency rows", len(config.n_schedule), 2 * config.replicas, 19, itemsize=8)
    system = computational_basis(2)
    truth, model = _point(config.theta_star, config.c), _model(config)
    truth_probs = truth.letter_probs(system)[0]
    result = _result("consistency", config, estimator=config.estimator)
    competitors = [(t, _point(t, config.c)) for t in config.competitor_thetas]
    for n in config.n_schedule:
        counts = _replica_counts(truth, system, n, config.replicas, config.seed)
        if config.estimator == "two-part":
            # row r's scores are the floats two_part gets for replica r's word
            keys = _select(model, _two_part_scores(model, system, counts)).chosen.tolist()
            if min(keys) < 0:
                raise AllZeroLikelihood("every member assigns probability 0 to the word")
            distinct = sorted(set(keys))
            # the members are example states, of trace exactly 1: each is its normalised self
            est = model.letter_probs(system)[distinct]
        else:
            keys = counts[:, 0].tolist()
            distinct = sorted(set(keys))
            p0 = (np.array(distinct) + 1) / (n + 2)
            est = np.stack([p0, 1.0 - p0], axis=1)
        # He^2 and S depend on the estimate alone: one [distinct, m] batch
        div = dict(zip(distinct, zip(hellinger_sq_classical(truth_probs, est).tolist(),
                                     kl_classical(truth_probs, est, "bits").tolist())))
        # each replica's two rows at once; tolist() gave Python floats, as add() would store
        result.rows.extend(
            row
            for r, key in enumerate(keys)
            for row in (("consistency", n, r, "he2", div[key][0], "nats"),
                        ("consistency", n, r, "S", div[key][1], "bits"))
        )
        for theta, comp_src in competitors:
            masses = _exceedance_masses(truth, comp_src, system, n, config.deltas)
            for delta, mass in zip(config.deltas, masses):
                result.add(n, "exact", f"mass[theta={theta:g},delta={delta:g}]", mass)
    return result


@dataclass(frozen=True)
class BoundConfig(_Config):
    theta_star: float = _field(unit)
    c: float = _field(unit, 0.0)
    model_thetas: tuple[float, ...] = _field(each(unit, nonempty=True))
    code_weights: tuple[float, ...] = _field(_code_weights)
    alphas: tuple[float, ...] = _field(each(interval("(1, inf)")))
    n_schedule: tuple[int, ...] = _field(_schedule)
    seed: int = _field(integer(0), 0)

    __post_init__ = _weights_parallel_thetas


def bound_run(config: BoundConfig) -> RunResult:
    """Exact check of the expected-divergence bound.

    The per-word two-part estimate is selected on the family as given, once
    per n. For each alpha and n the expectation of the order-(1 - 1/alpha)
    Renyi divergence between truth and that estimate is compared against (1/n)
    times the relative entropy from truth to the winner envelope Lambda_I *
    (estimate's word probability), where Lambda_I is the level-n trace of the
    winner's alpha-scaled copy. Both expectations run over the classes the
    truth emits and some member explains; when the truth emits a class that no
    member explains, the envelope gives it 0 and the right side is +inf. The
    lambda_sum row is the sum over all length-n words of the winner's
    Lambda_I (_trace_sum over the two_part_classes table). Everything is
    enumerated over type classes; nothing is sampled. A lambda_sum above 1
    (the bound's hypothesis fails) marks the run inconclusive instead of
    failed, unless the bound fails at another (alpha, n). The lhs_he2 row is
    reported, not gated: 2(1 - BC^n) <= -2 ln BC^n puts it at or below ln 2
    times the alpha = 2 lhs_renyi, which the Renyi gate already holds to rhs.
    """
    system = computational_basis(2)
    truth, model = _point(config.theta_star, config.c), _model(config)
    truth_probs, member_probs = truth.letter_probs(system)[0], model.letter_probs(system)
    result = _result("bound", config)
    tables = {n: _bound_table(model, truth, system, n) for n in config.n_schedule}
    worst_slack = math.inf
    for alpha in config.alphas:
        lam = 1.0 - 1.0 / alpha
        scaled = alpha_scale(model, alpha)
        # Renyi affinity and Bhattacharyya coefficient of truth and each member
        affinity = np.sum(truth_probs**lam * np.clip(member_probs, 0, None) ** (1.0 - lam), axis=1)
        bhatt = np.sum(np.sqrt(truth_probs * np.clip(member_probs, 0, None)), axis=1)
        for n in config.n_schedule:
            log_mult, chosen, emitted, log_star, log_est, unexplained = tables[n]
            lam_sum = _trace_sum(scaled.stored_traces, n, log_mult, chosen)
            idx = chosen[emitted]
            mass = np.exp(log_mult[emitted] + log_star)  # truth's mass on each class
            # Lambda_I: level-n trace of the alpha-scaled winning element
            log_lam = n * np.log(scaled.stored_traces[idx])
            # LHS: Renyi divergence is additive over i.i.d. extensions
            d_lam = -n * np.log(affinity[idx]) / (1.0 - lam) / LN2
            lhs = float(np.sum(mass * d_lam))
            # RHS: winner envelope  Lambda_I * prod est_probs^k
            rhs_sum = float(np.sum(mass * (log_star - (log_lam + log_est)) / LN2))
            # the envelope is 0 on a class the truth emits and no member explains
            rhs = math.inf if unexplained else rhs_sum / n
            result.add(n, "exact", f"lambda_sum[alpha={alpha:g}]", lam_sum)
            result.add(n, "exact", f"lhs_renyi[alpha={alpha:g}]", lhs, "bits")
            result.add(n, "exact", f"rhs[alpha={alpha:g}]", rhs, "bits")
            if alpha == 2.0:
                lhs_he2 = float(np.sum(mass * 2.0 * (1.0 - bhatt[idx] ** n)))
                result.add(n, "exact", "lhs_he2[alpha=2]", lhs_he2, "nats")
            if lam_sum > 1 + 1e-9:
                result._mark("inconclusive")
                continue
            slack = rhs - lhs
            worst_slack = min(worst_slack, slack)
            if lhs > rhs + 1e-7:
                result._mark("fail")
    result.metadata["worst_slack_bits"] = worst_slack
    return result


def _bound_table(model, truth, system, n: int):
    """Two-part class table at length n plus, on the classes the truth emits and
    some member explains (emitted), the truth's and the winner's log word probs,
    from the truth's and the model's letter_logs tables. The last entry is True
    when the truth emits a class that no member explains."""
    counts, log_mult, chosen = two_part_classes(model, system, n)
    log_star = summed_logs(truth.log_letter_probs(system), counts)[:, 0]
    truth_emits = log_star > -np.inf
    emitted = truth_emits & (chosen >= 0)
    idx = chosen[emitted]
    log_est = summed_logs(model.log_letter_probs(system), counts[emitted])[np.arange(len(idx)), idx]
    unexplained = bool(np.any(truth_emits & (chosen < 0)))
    return log_mult, chosen, emitted, log_star[emitted], log_est, unexplained


@dataclass(frozen=True)
class RedundancyConfig(_Config):
    theta_star: float = _field(unit)
    n_schedule: tuple[int, ...] = _field(_schedule)
    seed: int = _field(integer(0), 0)


def redundancy_run(config: RedundancyConfig) -> RunResult:
    """Exact redundancy curve S(n) with its log-growth diagnostics.

    S(n) = S(truth^(n) || uniform-prior mixture^(n)) in bits on pinched words, a
    sum over the n+1 type classes: the mixture gives 1/((n+1) C(n,k)) per word.
    """
    result = _result("redundancy", config)
    truth, mixture, system = _point(config.theta_star), BetaExampleSource(), computational_basis(2)
    values: dict[int, float] = {}
    for n in config.n_schedule:
        s = word_divergences(truth, mixture, system, n).value
        values[n] = s
        result.add(n, "exact", "S", s, "bits")
        if n > 1:
            result.add(n, "exact", "S_over_log2n", s / math.log2(n))
    for n in config.n_schedule:
        if 2 * n in values and n >= 16:
            gap = values[2 * n] - values[n]
            result.add(2 * n, "exact", "S_gap", gap, "bits")
            if gap > 0.75:
                result._mark("fail")
    ratios = [
        values[n] / math.log2(n) for n in config.n_schedule[-3:] if n > 1
    ]
    if len(ratios) == 3:
        lo, hi = min(ratios), max(ratios)
        if hi > 1.25 * lo:
            result._mark("fail")
        result.metadata["tail_ratio_band"] = [lo, hi]
    return result


@dataclass(frozen=True)
class MarkovConfig(_Config):
    theta_ref: float = _field(unit)
    theta_comp: float = _field(unit)
    comp_weight: float = _field(interval("(0, 1]"), 1.0)
    c: float = _field(unit, 0.0)
    deltas: tuple[float, ...] = _field(each(interval("(0, inf)")))
    n_schedule: tuple[int, ...] = _field(_schedule)
    seed: int = _field(integer(0), 0)


def markov_run(config: MarkovConfig) -> RunResult:
    """Exact exceedance masses with the 1/delta coding bound asserted."""
    system = computational_basis(2)
    ref_src = _point(config.theta_ref, config.c)
    comp_src = MixtureSource(
        [(config.comp_weight, example_state(config.theta_comp, config.c))],
        kind="generalized",
    )
    result = _result("markov", config)
    for n in config.n_schedule:
        for delta, mass in zip(config.deltas, _exceedance_masses(ref_src, comp_src, system, n, config.deltas)):
            result.add(n, "exact", f"mass[delta={delta:g}]", mass)
            result.add(n, "exact", f"bound[delta={delta:g}]", 1.0 / delta)
            if mass > 1.0 / delta + 1e-9:
                result._mark("fail")
    return result
