"""Quantum sources: level sequences, mixtures, strategies, universality.

Levels rho_bar^(n) = sum_i w_i rho_i^(x)n are kept symbolic; dense
materialization is an explicit capped operation. Outcome-word probabilities
factorize through per-letter traces, so finite-n checks scale to large n via
type-class enumeration.

One weighted family {(w_i, rho_i)} underlies sources and models. Sources
(MixtureSource) emit: level, log_prob and predict read sum_i w_i rho_i^(x)n,
paying each weight once. Models (estim) only score, paying log w_i once per
letter (ROADMAP item 1 chooses between the readings). A word's log-likelihood
has one rule, typeclasses.log_likelihoods: math.log, index order, -inf at a
letter with p <= 0 and a positive count, no floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import TOL
from .errors import (
    DimensionMismatch,
    InvalidOperator,
    InvalidWord,
    NonMinimalSystem,
    NotRegular,
    SupportMismatch,
)
from .models import example_states
from .opcore import (
    _LEAK_TOL,
    _rel_entropy_nats,
    as_operator,
    check_cap,
    eigh,
    herm_sqrt,
    partial_trace,
    pinv_sqrt,
    sym_powers,
    tensor_power,
)
from .projlat import ProjSystem
from .typeclasses import compositions, log_likelihoods, log_multinomial, logsumexp

__all__ = [
    "MixtureSource",
    "SimpleSource",
    "BetaExampleSource",
    "example_uniform_source",
    "conjugate",
    "bullet",
    "cond_density",
    "strategy_step",
    "outcome_prob",
    "outcome_probs",
    "word_counts",
    "predict_step",
    "q_restrict",
    "word_distribution",
    "UniversalityReport",
    "universality_check",
    "convex_combine",
]


def outcome_probs(states, system: ProjSystem) -> np.ndarray:
    """Outcome probabilities per state: p[i, a] = Tr(q_a rho_i)."""
    s_stack = np.asarray(states)[:, None]
    # state blocks bound each [block, m, d, d] product to 8 MB, or to one state
    step = max(1, 2**19 // system.stack.size)
    return np.concatenate([
        np.trace(np.matmul(system.stack[None], s_stack[i : i + step]), axis1=-2, axis2=-1).real
        for i in range(0, len(s_stack), step)
    ])


def word_counts(word, system: ProjSystem) -> np.ndarray:
    """Outcome histogram of a word; an index outside [0, len(system)) raises InvalidWord."""
    m = len(system)
    try:
        idx = np.asarray(word, dtype=np.int64)
    except OverflowError as exc:
        raise InvalidWord(f"outcome index out of range for {m} outcomes") from exc
    bad = idx[(idx < 0) | (idx >= m)]
    if bad.size:
        raise InvalidWord(f"outcome index {bad[0]} out of range for {m} outcomes")
    return np.bincount(idx, minlength=m)


class _Family:
    """Weights [N], states as one [N, d, d] stack, optional thetas, stored_traces
    w_i Tr rho_i and one outcome table per system; subclasses add a weight rule.
    Only MixtureSource emits (level, log_prob, predict); models are scored by estim."""

    def __init__(self, weights, states, thetas=None, *, top: float, bad_weight: str, empty: str, mixed=None):
        """Check 0 < w <= top and one finite square stack at once. On failure raise what
        a member-by-member check finds first: a member's bad_weight (formatted with w)
        or as_operator error, then InvalidOperator(empty) for no member, else mixed
        (default the same) for members on different spaces."""
        try:
            self.weights = np.asarray(weights, dtype=float)
            self.states = np.asarray(states, dtype=complex)
            shape = self.states.shape
            valid = (
                len(shape) == 3 and shape[0] > 0 and shape[1] == shape[2]
                and np.isfinite(self.states).all()
                and ((self.weights > 0.0) & (self.weights <= top)).all()
            )
        except (TypeError, ValueError):
            valid = False
        if not valid:
            for w, rho in zip(weights, states):
                if not 0.0 < w <= top:
                    raise InvalidOperator(bad_weight.format(w=w))
                as_operator(rho)
            raise InvalidOperator(empty) if not len(states) or mixed is None else mixed
        self.dim = shape[1]
        self.thetas = thetas
        self.stored_traces = self.weights * np.trace(self.states, axis1=1, axis2=2).real
        self._tables: dict[ProjSystem, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def components(self):
        return list(zip(self.weights, self.states))

    def letter_probs(self, system: ProjSystem) -> np.ndarray:
        """Outcome probabilities per member, p[i, a] = Tr(q_a rho_i), cached per system."""
        if system.dim != self.dim:
            raise DimensionMismatch("system dim does not match source dim")
        if system not in self._tables:
            self._tables[system] = outcome_probs(self.states, system)
        return self._tables[system]


def _unzip(members) -> tuple[list, list]:
    """The weights and the states of a list of (weight, state) pairs."""
    members = list(members)
    return [w for w, _ in members], [rho for _, rho in members]


class MixtureSource(_Family):
    """Weighted family {(w_i, rho_i)} with levels sum_i w_i rho_i^(x)n.

    kind = "source" demands sum w_i = 1 and unit-trace components, so every
    level is a density matrix; kind = "generalized" only bounds the level-1
    trace by 1 (it is nonincreasing in n from there).
    """

    def __init__(self, components, kind: str = "source"):
        if kind not in ("source", "generalized"):
            raise InvalidOperator(f"unknown source kind {kind!r}")
        super().__init__(*_unzip(components), top=math.inf, bad_weight="mixture weights must be positive",
                         empty="a mixture needs at least one component",
                         mixed=DimensionMismatch("mixture components live on different spaces"))
        self.kind = kind
        traces = np.trace(self.states, axis1=1, axis2=2).real
        if kind == "source":
            if abs(self.weights.sum() - 1.0) > 1e-9:
                raise InvalidOperator("source weights must sum to 1")
            if np.any(np.abs(traces - 1.0) > TOL.trace):
                raise InvalidOperator("source components must have unit trace")
        elif float(self.weights @ traces) > 1 + 1e-9:
            raise InvalidOperator("generalized source has level-1 trace > 1")

    def level(self, n: int) -> np.ndarray:
        check_cap(self.dim ** max(n, 1))
        out = np.zeros((self.dim**n, self.dim**n), dtype=complex)
        for w, rho in zip(self.weights, self.states):
            out += w * tensor_power(rho, n)
        return out

    def log_prob(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        """log probability of one word of each class in counts[C, m]."""
        probs, log_w = self.letter_probs(system), np.log(self.weights)
        # class blocks bound each [classes, components] intermediate to 8 MB
        step = max(1, 2**20 // len(log_w))
        blocks = (log_likelihoods(probs, counts[i : i + step]) for i in range(0, len(counts), step))
        return np.concatenate([logsumexp(log_w + ll) for ll in blocks])

    def predict(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        """Posterior-weighted letter law after a word with histogram counts."""
        probs = self.letter_probs(system)
        log_post = np.log(self.weights) + log_likelihoods(probs, counts)
        log_total = logsumexp(log_post)
        if log_total == -np.inf:
            raise ZeroDivisionError("conditioning word has probability 0")
        return np.exp(log_post - log_total) @ np.clip(probs, 0.0, None)


def SimpleSource(base: np.ndarray) -> MixtureSource:
    """Levels rho (x) omega(rho)^(x)(n-1): the first factor keeps the trace.

    That is the one-component generalized mixture (Tr rho, rho / Tr rho).
    """
    base = as_operator(base)
    tr = np.trace(base).real
    if tr <= TOL.norm:
        raise InvalidOperator("simple source needs a nonzero base")
    return MixtureSource([(tr, base / tr)], kind="generalized")


class BetaExampleSource:
    """Uniform-prior mixture over the built-in qubit family, in closed form.

    Word probabilities under the computational measurement follow the Beta
    integral: a word with k zero-outcomes among n has probability
    1 / ((n+1) C(n, k)), exactly. Dense levels and other measurements fall
    back to quadrature.
    """

    kind = "source"

    def __init__(self, c: float = 0.0, fallback_nodes: int = 4096):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {c}")
        self.c = c
        self.dim = 2
        self._fallback_nodes = fallback_nodes
        self._fallback: MixtureSource | None = None

    def _quadrature(self) -> MixtureSource:
        if self._fallback is None:
            self._fallback = example_uniform_source(self.c, self._fallback_nodes)
        return self._fallback

    def level(self, n: int) -> np.ndarray:
        return self._quadrature().level(n)

    def log_prob(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        if system.dim != self.dim:
            raise DimensionMismatch("system dim does not match source dim")
        if not system.computational:
            return self._quadrature().log_prob(system, counts)
        return -np.log(counts.sum(axis=1) + 1.0) - log_multinomial(counts)

    def predict(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        """Rule of succession (k_a + 1) / (n + 2) on the computational basis."""
        if system.dim != self.dim:
            raise DimensionMismatch("system dim does not match source dim")
        if not system.computational:
            return self._quadrature().predict(system, counts)
        return (counts + 1.0) / (counts.sum() + 2.0)


@cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per node count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def example_uniform_source(c: float = 0.0, nodes: int = 2048) -> MixtureSource:
    """Gauss-Legendre discretization of the uniform-prior mixture over theta."""
    x, w = _gauss_legendre(nodes)
    return MixtureSource(zip(w / 2.0, example_states((x + 1.0) / 2.0, c)))


def _need_mixtures(op: str, *sources) -> None:
    """Raise InvalidOperator unless every source is a MixtureSource, whose stacks op reads."""
    for src in sources:
        if not isinstance(src, MixtureSource):
            raise InvalidOperator(f"{op} needs a MixtureSource, got {type(src).__name__}")


def conjugate(src: MixtureSource, u: np.ndarray) -> MixtureSource:
    """Map every component to U rho U^dagger; the marginal law is preserved."""
    _need_mixtures("conjugate", src)
    u = as_operator(u)
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-9:
        raise InvalidOperator("conjugation requires a unitary")
    return MixtureSource(zip(src.weights, u @ src.states @ u.conj().T), kind=src.kind)


def bullet(t1: np.ndarray, t: np.ndarray, dim2: int) -> np.ndarray:
    """Sandwich (T1^(1/2) (x) I) T (T1^(1/2) (x) I) on the declared split."""
    t1, t = as_operator(t1), as_operator(t)
    if t1.shape[0] * dim2 != t.shape[0]:
        raise DimensionMismatch(
            f"split {t1.shape[0]} x {dim2} does not match operator dim {t.shape[0]}"
        )
    s = np.kron(herm_sqrt(t1), np.eye(dim2, dtype=complex))
    return s @ t @ s


def cond_density(
    rho: np.ndarray, sigma: np.ndarray, dims: tuple[int, int]
) -> np.ndarray:
    """Conditional density of rho on factor 2, conditioned on sigma on factor 1.

    Tr_1(sigma * (rho_1^{-1} * rho)) with the inverse taken on the support of
    rho_1 = Tr_2(rho). Requires supp(sigma) inside supp(rho_1), else the
    unit-trace derivation fails.
    """
    d1, d2 = dims
    rho, sigma = as_operator(rho), as_operator(sigma)
    if rho.shape[0] != d1 * d2 or sigma.shape[0] != d1:
        raise DimensionMismatch("operator shapes do not match the declared split")
    rho1 = partial_trace(rho, [d1, d2], 1)
    w, v = eigh(rho1)
    keep = w > TOL.rank
    support = (v[:, keep]) @ (v[:, keep].conj().T)
    deficit = 1.0 - np.trace(support @ sigma).real
    if deficit > 1e-8:
        raise SupportMismatch(
            f"sigma carries mass {deficit:.3e} outside supp(Tr_2(rho))"
        )
    inv_sqrt = np.kron(pinv_sqrt(rho1), np.eye(d2, dtype=complex))
    rho_2g1 = inv_sqrt @ rho @ inv_sqrt
    sandwich = np.kron(herm_sqrt(sigma), np.eye(d2, dtype=complex))
    return partial_trace(sandwich @ rho_2g1 @ sandwich, [d1, d2], 0)


def strategy_step(src, n: int) -> np.ndarray:
    """Next strategy level: (level(n))^{-1} * level(n+1), regular sources only."""
    base = src.level(n)
    w = np.linalg.eigvalsh((base + base.conj().T) / 2)
    if w.size and w[0] <= TOL.rank:
        raise NotRegular(f"level({n}) has min eigenvalue {w[0]:.3e}; not invertible")
    nxt = src.level(n + 1)
    inv_sqrt = np.kron(pinv_sqrt(base), np.eye(src.dim, dtype=complex))
    return inv_sqrt @ nxt @ inv_sqrt


def outcome_prob(src, system: ProjSystem, word) -> float:
    """Probability Tr(q_I level(n) q_I), from the source's log-probability of the word's class."""
    counts = word_counts(word, system)
    return float(np.exp(src.log_prob(system, counts[None])[0]))


def predict_step(src, system: ProjSystem, word) -> np.ndarray:
    """Conditional next-outcome distribution given an observed word.

    Raises ZeroDivisionError only when the word has probability exactly 0.
    """
    return src.predict(system, word_counts(word, system))


def q_restrict(src: MixtureSource, system: ProjSystem) -> MixtureSource:
    """Pinch every component; levels become Q^(n)-projections of the originals."""
    _need_mixtures("q_restrict", src)
    if system.dim != src.dim:
        raise DimensionMismatch(f"operator dim {src.dim} vs system dim {system.dim}")
    pinched = (system.stack @ src.states[:, None] @ system.stack).sum(axis=1)
    return MixtureSource(zip(src.weights, pinched), kind=src.kind)


def word_distribution(src, system: ProjSystem, n: int):
    """Type-class table for length-n words: (counts[C, m], log #words, log per-word prob)."""
    counts = compositions(n, len(system))
    return counts, log_multinomial(counts), src.log_prob(system, counts)


@dataclass(frozen=True)
class UniversalityReport:
    mode: str
    epsilon: float
    per_level: tuple[tuple[int, float], ...]  # (n, min margin over members)
    n0: int | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "per_level": [[n, margin] for n, margin in self.per_level],
            "n0": self.n0,
            "pass": self.passed,
        }


_MARGIN_FLOOR = -1e-9


def _q_margins(
    src, member_probs: np.ndarray, system: ProjSystem, n: int, eps: float, mode: str
) -> np.ndarray:
    """Q-sense margin of every member at level n, from one type-class table.

    Classes a member never emits are skipped; a class the member emits but
    the source does not makes that member's margin -inf.
    """
    counts, log_mult, log_src = word_distribution(src, system, n)
    member = log_likelihoods(member_probs, counts)  # [C, members]
    live = member > -np.inf
    # -inf - -inf and 0 * -inf arise only on the rows masked here or below
    with np.errstate(invalid="ignore"):
        gap = np.where(live, log_src[:, None] - member, 0.0) / math.log(2.0)
        if mode == "q-restricted":
            margins = np.where(live, gap, np.inf).min(axis=0) + n * eps
        else:
            mass = np.exp(np.where(live, log_mult[:, None] + member, -np.inf))
            margins = n * eps + (mass * gap).sum(axis=0)
    margins[(live & (log_src[:, None] == -np.inf)).any(axis=0)] = -np.inf
    return margins


def _sym_blocks(states: np.ndarray, weights: np.ndarray, ns) -> dict[int, list[np.ndarray]]:
    """Schur-Weyl blocks of sum_i weights[j, i] states_i^(x)n, per row j of weights and n in ns.

    For each n, block k = 0 .. n // 2 is the [J, n-2k+1, n-2k+1] stack
    sum_i weights[j, i] det(states_i)^k Sym^(n-2k)(states_i); it occurs
    C(n, k) - C(n, k-1) times in the operator on (C^2)^(x)n.
    """
    det = states[:, 0, 0] * states[:, 1, 1] - states[:, 0, 1] * states[:, 1, 0]
    blocks: dict[int, list] = {n: [None] * (n // 2 + 1) for n in ns}
    for m, sym in enumerate(sym_powers(states, max(ns, default=0))):
        flat = sym.reshape(len(states), -1)
        for n, row in blocks.items():
            k, odd = divmod(n - m, 2)
            if k >= 0 and not odd:
                row[k] = ((weights * det**k) @ flat).reshape(-1, m + 1, m + 1)
    return blocks


def _margins(blocks, n: int, eps: float, mode: str) -> np.ndarray:
    """Matrix or expected margin of every member at level n, from a block decomposition.

    blocks yields (multiplicity, level block, member blocks): the level and
    each member's n-fold power are block diagonal on the same blocks, and each
    block occurs multiplicity times; member blocks come as [k, b, b] stacks in
    member order. A dense level is one block of multiplicity 1, one member per
    stack. The matrix margin is the smallest eigenvalue of
    level - 2^{-n eps} power over all blocks. The expected margin is
    n eps - S(power || level) in bits, S and the power's mass off the level's
    support each summed over the blocks with their multiplicities; it is -inf
    when that mass exceeds _LEAK_TOL.
    """
    scale = 2.0 ** (-n * eps)
    smallest, nats, leak = math.inf, 0.0, 0.0
    for mult, lvl, powers in blocks:
        if mode == "matrix":
            eigs = []
            for stack in powers:
                gap = lvl - scale * stack
                # in place: keep one temporary the size of the stack
                gap += gap.conj().swapaxes(1, 2)
                gap /= 2
                eigs.append(np.linalg.eigvalsh(gap)[:, 0])
            smallest = np.minimum(smallest, np.concatenate(eigs))
        else:
            w, v = eigh(lvl)
            members = (p for stack in powers for p in stack)
            value, off = np.array([_rel_entropy_nats(p, eigh(p, eigvals_only=True), w, v) for p in members]).T
            nats = nats + mult * value
            leak = leak + mult * off
    if mode == "matrix":
        return smallest
    return np.where(leak > _LEAK_TOL, -np.inf, n * eps - nats / math.log(2.0))


def universality_check(
    src,
    model: list[np.ndarray],
    eps: float,
    n_range,
    mode: str = "matrix",
    system: ProjSystem | None = None,
) -> UniversalityReport:
    """Check level-domination of the source over every model member.

    Modes: "matrix" (min eigenvalue of level - 2^{-n eps} member power),
    "q-restricted" (per-word log-ratio surplus over type classes),
    "expected" / "q-expected" (n eps minus base-2 relative entropy). The
    expected margin is n eps - S(member^(x)n || level) in bits, from the
    kernel of `rel_entropy`; it is -inf when the member's mass outside the
    level's support exceeds 1e-9.
    The report certifies only the checked range [n0, max(n_range)]. Matrix
    and expected margins come from one routine (`_margins`): a qubit mixture
    or Beta-example source passes the Schur-Weyl blocks of its levels
    (`_sym_blocks`), with the off-support mass summed over the blocks with
    their multiplicities; any other source passes its dense level as one block.
    Members or a system on another dimension than the source raise DimensionMismatch.
    """
    if mode not in ("matrix", "q-restricted", "expected", "q-expected"):
        raise ValueError(f"unknown universality mode {mode!r}")
    members = [as_operator(m) for m in model]
    for m in members:
        if m.shape[0] != src.dim:
            raise DimensionMismatch(f"model member acts on dimension {m.shape[0]}, source on {src.dim}")
    if mode in ("q-restricted", "q-expected"):
        if system is None:
            raise ValueError(f"mode {mode!r} requires a projection system")
        if system.dim != src.dim:
            raise DimensionMismatch(f"system acts on dimension {system.dim}, source on {src.dim}")
        if not system.minimal:
            raise NonMinimalSystem("Q-restricted universality needs a rank-1 system")
        member_probs = outcome_probs(members, system)
    ns = sorted(int(n) for n in n_range)
    on_blocks = (
        mode in ("matrix", "expected")
        and isinstance(src, (MixtureSource, BetaExampleSource))
        and src.dim == 2
    )
    if on_blocks:
        for n in ns:
            check_cap(2 ** max(n, 1))  # the configs the dense path refuses stay refused
        mix = src._quadrature() if isinstance(src, BetaExampleSource) else src
        levels = _sym_blocks(mix.states, mix.weights[None], ns)
        powers = _sym_blocks(np.stack(members), np.eye(len(members)), ns)
    per_level = []
    for n in ns:
        if on_blocks:
            mults = (math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1))
            margins = _margins(zip(mults, (lvl[0] for lvl in levels[n]), ([p] for p in powers[n])), n, eps, mode)
        elif mode in ("matrix", "expected"):
            margins = _margins([(1, src.level(n), (tensor_power(m, n)[None] for m in members))], n, eps, mode)
        else:
            margins = _q_margins(src, member_probs, system, n, eps, mode)
        per_level.append((n, float(min(margins))))
    n0 = None
    for n, margin in reversed(per_level):
        if not margin >= _MARGIN_FLOOR:  # a NaN margin stops the pass too
            break
        n0 = n
    return UniversalityReport(mode, eps, tuple(per_level), n0, n0 is not None)


def convex_combine(sources: list[MixtureSource], weights) -> MixtureSource:
    """Convex combination of sources: concatenated components, scaled weights."""
    _need_mixtures("convex_combine", *sources)
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(sources):
        raise InvalidOperator("one weight per source required")
    if not (weights >= 0).all() or abs(weights.sum() - 1.0) > 1e-9:
        raise InvalidOperator("weights must be nonnegative and sum to 1")
    kinds = {s.kind for s in sources}
    if len(kinds) != 1:
        raise InvalidOperator("cannot combine sources of different kinds")
    live = [(alpha, src) for alpha, src in zip(weights, sources) if alpha != 0.0]
    scaled = np.concatenate([alpha * src.weights for alpha, src in live])
    return MixtureSource(zip(scaled, np.concatenate([src.states for _, src in live])), kind=kinds.pop())
