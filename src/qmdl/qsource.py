"""Quantum sources: level sequences, mixtures, strategies, universality.

Levels rho_bar^(n) = sum_i w_i rho_i^(x)n are kept symbolic; dense
materialization is an explicit capped operation. Outcome-word probabilities
factorize through per-letter traces, so finite-n checks scale to large n via
type-class enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, InvalidOperator, InvalidWord, NotRegular, SupportMismatch
from .models import example_state
from .opcore import (
    as_operator,
    check_cap,
    eigh,
    herm_sqrt,
    herm_log,
    partial_trace,
    pinv_sqrt,
    tensor_power,
)
from .projlat import ProjSystem, q_project
from .typeclasses import compositions, log_likelihoods, log_multinomial, logsumexp

__all__ = [
    "MixtureSource",
    "SimpleSource",
    "BetaExampleSource",
    "example_uniform_source",
    "level",
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
    s_stack = np.stack(states)[:, None]
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


class MixtureSource:
    """Weighted family {(w_i, rho_i)} with levels sum_i w_i rho_i^(x)n.

    kind = "source" demands sum w_i = 1 and unit-trace components, so every
    level is a density matrix; kind = "generalized" only bounds the level-1
    trace by 1 (it is nonincreasing in n from there).
    """

    kind: str

    def __init__(self, components, kind: str = "source"):
        if kind not in ("source", "generalized"):
            raise InvalidOperator(f"unknown source kind {kind!r}")
        weights = []
        states = []
        for w, rho in components:
            if w <= 0:
                raise InvalidOperator("mixture weights must be positive")
            weights.append(float(w))
            states.append(as_operator(rho))
        if not states:
            raise InvalidOperator("a mixture needs at least one component")
        dims = {s.shape[0] for s in states}
        if len(dims) != 1:
            raise DimensionMismatch("mixture components live on different spaces")
        self.weights = np.array(weights)
        self.states = states
        self.kind = kind
        self.dim = dims.pop()
        self._letter_cache: dict[ProjSystem, np.ndarray] = {}
        traces = np.array([np.trace(s).real for s in states])
        if kind == "source":
            if abs(self.weights.sum() - 1.0) > 1e-9:
                raise InvalidOperator("source weights must sum to 1")
            if np.any(np.abs(traces - 1.0) > TOL.trace):
                raise InvalidOperator("source components must have unit trace")
        else:
            if float(self.weights @ traces) > 1 + 1e-9:
                raise InvalidOperator("generalized source has level-1 trace > 1")

    @property
    def components(self):
        return list(zip(self.weights, self.states))

    def level(self, n: int) -> np.ndarray:
        check_cap(self.dim ** max(n, 1))
        out = np.zeros((self.dim**n, self.dim**n), dtype=complex)
        for w, rho in zip(self.weights, self.states):
            out += w * tensor_power(rho, n)
        return out

    def letter_probs(self, system: ProjSystem) -> np.ndarray:
        """Outcome probabilities per component, p[i, a] = Tr(q_a rho_i), cached per system."""
        if system.dim != self.dim:
            raise DimensionMismatch("system dim does not match source dim")
        if system not in self._letter_cache:
            self._letter_cache[system] = outcome_probs(self.states, system)
        return self._letter_cache[system]

    def log_prob(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        """log probability of one word of each class in counts[C, m]."""
        probs = self.letter_probs(system)
        log_w = np.log(self.weights)
        # class blocks bound each [classes, components] intermediate to 8 MB
        step = max(1, 2**20 // len(log_w))
        return np.concatenate(
            [
                logsumexp(log_w + log_likelihoods(probs, counts[i : i + step]))
                for i in range(0, len(counts), step)
            ]
        )

    def word_prob(self, system: ProjSystem, word) -> float:
        return outcome_prob(self, system, word)

    def predict(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        """Posterior-weighted letter law after a word with histogram counts."""
        probs = self.letter_probs(system)
        log_post = np.log(self.weights) + log_likelihoods(probs, counts[None])[0]
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
        if not system.computational:
            return self._quadrature().log_prob(system, counts)
        return -np.log(counts.sum(axis=1) + 1.0) - log_multinomial(counts)

    def word_prob(self, system: ProjSystem, word) -> float:
        return outcome_prob(self, system, word)

    def predict(self, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
        """Rule of succession (k_a + 1) / (n + 2) on the computational basis."""
        if not system.computational:
            return self._quadrature().predict(system, counts)
        return (counts + 1.0) / (counts.sum() + 2.0)


def example_uniform_source(c: float = 0.0, nodes: int = 2048) -> MixtureSource:
    """Gauss-Legendre discretization of the uniform-prior mixture over theta."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    thetas = (x + 1.0) / 2.0
    weights = w / 2.0
    return MixtureSource([(u, example_state(t, c)) for t, u in zip(thetas, weights)])


def level(src, n: int) -> np.ndarray:
    """Dense level matrix of a source (capped)."""
    return src.level(n)


def conjugate(src: MixtureSource, u: np.ndarray) -> MixtureSource:
    """Map every component to U rho U^dagger; the marginal law is preserved."""
    u = as_operator(u)
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-9:
        raise InvalidOperator("conjugation requires a unitary")
    return MixtureSource(
        [(w, u @ rho @ u.conj().T) for w, rho in src.components], kind=src.kind
    )


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
    return MixtureSource(
        [(w, q_project(rho, system)) for w, rho in src.components], kind=src.kind
    )


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


def _matrix_margin(lvl: np.ndarray, member: np.ndarray, n: int, eps: float) -> float:
    gap = lvl - 2.0 ** (-n * eps) * tensor_power(member, n)
    # in place: the level stays alive across members, so keep one 2^n x 2^n temporary
    gap += gap.conj().T
    gap /= 2
    return float(np.linalg.eigvalsh(gap)[0])


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


def _expected_margin(log_lvl: np.ndarray, member: np.ndarray, n: int, eps: float) -> float:
    rho_n = tensor_power(member, n)
    s = np.trace(rho_n @ (herm_log(rho_n) - log_lvl)).real
    return n * eps - s


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
    "expected" / "q-expected" (n eps minus base-2 relative entropy).
    The report certifies only the checked range [n0, max(n_range)].
    """
    if mode not in ("matrix", "q-restricted", "expected", "q-expected"):
        raise ValueError(f"unknown universality mode {mode!r}")
    members = [as_operator(m) for m in model]
    if mode in ("q-restricted", "q-expected"):
        if system is None:
            raise ValueError(f"mode {mode!r} requires a projection system")
        if not system.minimal:
            from .errors import NonMinimalSystem

            raise NonMinimalSystem("Q-restricted universality needs a rank-1 system")
        member_probs = outcome_probs(members, system)
    ns = sorted(int(n) for n in n_range)
    per_level = []
    for n in ns:
        if mode == "matrix":
            lvl = src.level(n)
            margins = [_matrix_margin(lvl, member, n, eps) for member in members]
        elif mode == "expected":
            log_lvl = herm_log(src.level(n))
            margins = [_expected_margin(log_lvl, member, n, eps) for member in members]
        else:
            margins = _q_margins(src, member_probs, system, n, eps, mode)
        per_level.append((n, float(min(margins))))
    n0 = None
    for i in range(len(per_level)):
        if all(margin >= _MARGIN_FLOOR for _, margin in per_level[i:]):
            n0 = per_level[i][0]
            break
    return UniversalityReport(mode, eps, tuple(per_level), n0, n0 is not None)


def convex_combine(sources: list[MixtureSource], weights) -> MixtureSource:
    """Convex combination of sources: concatenated components, scaled weights."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(sources):
        raise InvalidOperator("one weight per source required")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise InvalidOperator("weights must be nonnegative and sum to 1")
    kinds = {s.kind for s in sources}
    if len(kinds) != 1:
        raise InvalidOperator("cannot combine sources of different kinds")
    comps = []
    for alpha, src in zip(weights, sources):
        if alpha == 0.0:
            continue
        comps.extend((alpha * w, rho) for w, rho in src.components)
    return MixtureSource(comps, kind=kinds.pop())
