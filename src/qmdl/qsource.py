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
from .typeclasses import class_log_prob, compositions, log_multinomial

__all__ = [
    "MixtureSource",
    "SimpleSource",
    "QuadratureSource",
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
    return np.array([[np.trace(q @ rho).real for q in system] for rho in states])


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
        self._letter_cache: dict[int, np.ndarray] = {}
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
        """Outcome probabilities per component: p[i, a] = Tr(q_a rho_i q_a).

        Cached per system object; quadrature sources hit this with thousands of
        components, so the trace batch is einsum-vectorized.
        """
        if system.dim != self.dim:
            raise DimensionMismatch("system dim does not match source dim")
        cached = self._letter_cache.get(id(system))
        if cached is not None and cached[0] is system:
            return cached[1]
        q_stack = np.stack([np.asarray(q) for q in system])
        s_stack = np.stack(self.states)
        probs = np.einsum("aij,cji->ca", q_stack, s_stack).real
        # keep a reference to the key object so its id cannot be recycled
        self._letter_cache[id(system)] = (system, probs)
        return probs

    def word_prob(self, system: ProjSystem, word) -> float:
        counts = word_counts(word, system)
        probs = self.letter_probs(system)
        if not counts.any():
            return float(self.weights.sum())  # trace of the level-0 operator
        terms = np.prod(np.clip(probs, 0.0, None) ** counts, axis=1)
        return float(self.weights @ terms)


class QuadratureSource(MixtureSource):
    """Mixture over a parametric family with quadrature nodes as weights.

    Discretizes the Bayes-mixture level integral with user-supplied nodes
    (theta_j, u_j, rho_j), sum u_j = 1 within 1e-6.
    """

    def __init__(self, nodes):
        thetas, weights, states = zip(*nodes)
        if abs(sum(weights) - 1.0) > 1e-6:
            raise InvalidOperator("quadrature weights must sum to 1 within 1e-6")
        super().__init__(list(zip(weights, states)), kind="source")
        self.thetas = np.array(thetas)


class SimpleSource:
    """Levels rho (x) omega(rho)^(x)(n-1): the first factor keeps the trace."""

    kind = "simple"

    def __init__(self, base: np.ndarray):
        self.base = as_operator(base)
        self.dim = self.base.shape[0]
        tr = np.trace(self.base).real
        if tr <= TOL.norm:
            raise InvalidOperator("simple source needs a nonzero base")
        self._unit = self.base / tr

    def level(self, n: int) -> np.ndarray:
        check_cap(self.dim ** max(n, 1))
        if n == 0:
            return np.eye(1, dtype=complex)
        return np.kron(self.base, tensor_power(self._unit, n - 1))

    def word_prob(self, system: ProjSystem, word) -> float:
        word_counts(word, system)  # rejects out-of-range indices
        word = tuple(int(i) for i in word)
        if not word:
            return float(np.trace(self.base).real)
        p_base, p_unit = outcome_probs((self.base, self._unit), system)
        total = p_base[word[0]]
        for i in word[1:]:
            total *= p_unit[i]
        return float(total)


class BetaExampleSource:
    """Uniform-prior mixture over the built-in qubit family, in closed form.

    Word probabilities under the computational measurement follow the Beta
    integral: a word with k zero-outcomes among n has probability
    1 / ((n+1) C(n, k)), exactly. Dense levels fall back to quadrature.
    """

    kind = "source"

    def __init__(self, c: float = 0.0, fallback_nodes: int = 4096):
        self.c = c
        self.dim = 2
        self._fallback_nodes = fallback_nodes
        self._fallback: QuadratureSource | None = None

    def _quadrature(self) -> QuadratureSource:
        if self._fallback is None:
            self._fallback = example_uniform_source(self.c, self._fallback_nodes)
        return self._fallback

    def level(self, n: int) -> np.ndarray:
        return self._quadrature().level(n)

    def word_prob(self, system: ProjSystem, word) -> float:
        counts = word_counts(word, system)
        if not system.computational:
            return self._quadrature().word_prob(system, word)
        n, k = int(counts.sum()), int(counts[0])
        return 1.0 / ((n + 1) * math.comb(n, k))


def example_uniform_source(c: float = 0.0, nodes: int = 2048) -> QuadratureSource:
    """Gauss-Legendre discretization of the uniform-prior mixture over theta."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    thetas = (x + 1.0) / 2.0
    weights = w / 2.0
    return QuadratureSource(
        [(t, u, example_state(t, c)) for t, u in zip(thetas, weights)]
    )


def level(src, n: int) -> np.ndarray:
    """Dense level matrix of a source (capped)."""
    return src.level(n)


def conjugate(src: MixtureSource, u: np.ndarray) -> MixtureSource:
    """Map every component to U rho U^dagger; the marginal law is preserved."""
    u = as_operator(u)
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-9:
        raise InvalidOperator("conjugation requires a unitary")
    out = MixtureSource(
        [(w, u @ rho @ u.conj().T) for w, rho in src.components], kind=src.kind
    )
    if isinstance(src, QuadratureSource):
        out.thetas = src.thetas.copy()
    return out


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
    """Probability Tr(q_I level(n) q_I), factorized through per-letter traces."""
    return src.word_prob(system, word)


def predict_step(src, system: ProjSystem, word) -> np.ndarray:
    """Conditional next-outcome distribution given an observed word."""
    base = outcome_prob(src, system, word)
    if base <= 1e-300:
        raise ZeroDivisionError("conditioning word has probability ~ 0")
    word = tuple(int(i) for i in word)
    return np.array(
        [outcome_prob(src, system, word + (a,)) / base for a in range(len(system))]
    )


def q_restrict(src: MixtureSource, system: ProjSystem) -> MixtureSource:
    """Pinch every component; levels become Q^(n)-projections of the originals."""
    out = MixtureSource(
        [(w, q_project(rho, system)) for w, rho in src.components], kind=src.kind
    )
    if isinstance(src, QuadratureSource):
        out.thetas = src.thetas.copy()
    return out


def word_distribution(src, system: ProjSystem, n: int):
    """Type-class table for length-n words: (counts, log #words, per-word prob)."""
    m = len(system)
    rows = []
    for counts in compositions(n, m):
        word = tuple(i for i, k in enumerate(counts) for _ in range(k))
        rows.append((counts, log_multinomial(counts), src.word_prob(system, word)))
    return rows


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


def _matrix_margin(src, member: np.ndarray, n: int, eps: float) -> float:
    gap = src.level(n) - 2.0 ** (-n * eps) * tensor_power(member, n)
    return float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])


def _q_restricted_margin(
    src, member: np.ndarray, system: ProjSystem, n: int, eps: float
) -> float:
    member_probs = outcome_probs([member], system)[0]
    margin = np.inf
    for counts, _, pbar in word_distribution(src, system, n):
        lp = class_log_prob(member_probs, counts)
        if lp == -np.inf:
            continue  # member never emits this word; dominated trivially
        if pbar <= 0.0:
            return -np.inf
        surplus = (math.log2(pbar) - lp / math.log(2.0)) + n * eps
        margin = min(margin, surplus)
    return margin


def _expected_margin(src, member: np.ndarray, n: int, eps: float) -> float:
    rho_n = tensor_power(member, n)
    lvl = src.level(n)
    s = np.trace(rho_n @ (herm_log(rho_n) - herm_log(lvl))).real
    return n * eps - s


def _q_expected_margin(
    src, member: np.ndarray, system: ProjSystem, n: int, eps: float
) -> float:
    member_probs = outcome_probs([member], system)[0]
    s = 0.0
    for counts, logmult, pbar in word_distribution(src, system, n):
        lp = class_log_prob(member_probs, counts)
        if lp == -np.inf:
            continue
        if pbar <= 0.0:
            return -np.inf
        p = math.exp(lp + logmult)  # total class mass under the member
        s += p * (lp - math.log(pbar)) / math.log(2.0)
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
    if mode in ("q-restricted", "q-expected"):
        if system is None:
            raise ValueError(f"mode {mode!r} requires a projection system")
        if not system.minimal:
            from .errors import NonMinimalSystem

            raise NonMinimalSystem("Q-restricted universality needs a rank-1 system")
    members = [as_operator(m) for m in model]
    ns = sorted(int(n) for n in n_range)
    per_level = []
    for n in ns:
        margins = []
        for member in members:
            if mode == "matrix":
                margins.append(_matrix_margin(src, member, n, eps))
            elif mode == "q-restricted":
                margins.append(_q_restricted_margin(src, member, system, n, eps))
            elif mode == "expected":
                margins.append(_expected_margin(src, member, n, eps))
            else:
                margins.append(_q_expected_margin(src, member, system, n, eps))
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
