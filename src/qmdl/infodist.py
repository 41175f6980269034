"""Divergences between (semi-)density matrices and between word distributions.

Infinite values are returned, never raised, so experiment code can average
them. Every value carries its log-base tag: relative entropy defaults to bits
(it composes with the 2^(-n eps) universality algebra), the Renyi divergence
defaults to nats.

Operator divergences read the spectra (w_k, V_k) = eigh(r_k), eigenvalues at or below
TOL.support read as 0: S = sum w1 log w1 - sum_j (V2^H r1 V2)_jj log w2_j; the Renyi
affinity Tr r1^lam r2^(1-lam) = w1^lam @ |V1^H V2|^2 @ w2^(1-lam) (+inf at or below
TOL.support); He^2 = sum_ij |V1^H (r1 - r2) V2|_ij^2 / (sqrt w1_i + sqrt w2_j)^2.
Between operators at least 64 wide the two solves run at the same time on two CPUs of
the affinity mask (opcore._spectra) when BLAS runs one thread, as OPENBLAS_NUM_THREADS=1
sets it; each is the same LAPACK call, so the values are the same bits. `taskset -c 0`
keeps a run on one CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .opcore import _LEAK_TOL, _below_support, _rel_entropy_nats, _spectra, as_operator
from .projlat import ProjSystem
from .qsource import word_distribution
from .typeclasses import letter_logs, logsumexp

__all__ = [
    "DivergenceValue",
    "rel_entropy",
    "hellinger_sq",
    "renyi",
    "kl_classical",
    "hellinger_sq_classical",
    "word_divergences",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class DivergenceValue:
    value: float  # finite or +inf
    base: str     # "bits" | "nats"


def _base_factor(base: str) -> float:
    if base == "bits":
        return LN2
    if base == "nats":
        return 1.0
    raise ValueError(f"unknown base {base!r}")


def rel_entropy(r1: np.ndarray, r2: np.ndarray, base: str = "bits") -> DivergenceValue:
    """Quantum relative entropy Tr(r1 log r1) - Tr(r1 log r2), support convention.

    +inf when r1 carries mass above 1e-9 outside the support of r2.
    """
    r1, r2 = as_operator(r1), as_operator(r2)
    scale = _base_factor(base)
    w1, (w2, v2) = _spectra((r1, r2), (False, True))
    nats, leak = _rel_entropy_nats(r1, w1, w2, v2)
    return DivergenceValue(math.inf if leak > _LEAK_TOL else nats / scale, base)


def hellinger_sq(r1: np.ndarray, r2: np.ndarray) -> DivergenceValue:
    """Squared Hellinger distance ||sqrt(r1) - sqrt(r2)||_T^2, read from r1 - r2: no cancellation."""
    r1, r2 = as_operator(r1), as_operator(r2)
    (w1, v1), (w2, v2) = _spectra((r1, r2), (True, True))
    diff = r1 - r2
    gap = v1.conj().T @ ((diff + diff.conj().T) / 2 - _below_support(w1, v1) + _below_support(w2, v2)) @ v2
    den = np.add.outer(*(np.sqrt(np.where(w > TOL.support, w, 0.0)) for w in (w1, w2))) ** 2
    terms = np.divide(np.abs(gap) ** 2, den, out=np.zeros_like(den), where=den > 0)
    return DivergenceValue(float(terms.sum()), "nats")


def renyi(lam: float, r1: np.ndarray, r2: np.ndarray, base: str = "nats") -> DivergenceValue:
    """Renyi divergence -(1/(1-lam)) log Tr(r1^lam r2^(1-lam)), lam in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"Renyi order must lie in (0, 1), got {lam}")
    (w1, v1), (w2, v2) = _spectra((as_operator(r1), as_operator(r2)), (True, True))
    f1, f2 = (np.where(w > TOL.support, w, 0.0) ** p for w, p in ((w1, lam), (w2, 1.0 - lam)))
    a = f1 @ np.abs(v1.conj().T @ v2) ** 2 @ f2
    if a <= TOL.support:
        return DivergenceValue(np.inf, base)
    value = -math.log(a) / (1.0 - lam) / _base_factor(base)
    return DivergenceValue(value, base)


def _row_sums(terms: np.ndarray):
    """Each row's entries added in index order from 0.0: a float for one row [m], else an array."""
    total = np.zeros(terms.shape[:-1])
    for a in range(terms.shape[-1]):
        total += terms[..., a]
    return total if total.ndim else float(total)


def kl_classical(p: np.ndarray, q: np.ndarray, base: str = "bits"):
    """sum_a p_a log(p_a / q_a) with the support convention; +inf on support violation.

    p and q are laws [m] or rows [..., m] that broadcast; one pair of laws gives a
    float, rows give one value per row. An entry with p <= 0 adds nothing; every
    other adds p * log(p / q), the log from typeclasses.letter_logs, in index order.
    """
    scale = _base_factor(base)
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    live = ~(p <= 0.0)
    lost = (live & (q <= 0.0)).any(axis=-1, keepdims=True)
    live &= ~lost
    terms = np.zeros(p.shape)
    terms[live] = p[live] * letter_logs(p[live] / q[live])
    return _row_sums(np.where(lost, np.inf, terms)) / scale


def hellinger_sq_classical(p: np.ndarray, q: np.ndarray):
    """sum_a (sqrt p_a - sqrt q_a)^2, negative entries read as 0, in index order; shapes as kl_classical."""
    return _row_sums((np.sqrt(np.clip(p, 0, None)) - np.sqrt(np.clip(q, 0, None))) ** 2)


def word_divergences(
    src_a,
    src_b,
    system: ProjSystem,
    n: int,
    kind: str = "S",
    lam: float = 0.5,
    base: str | None = None,
) -> DivergenceValue:
    """Classical divergence between length-n outcome-word distributions.

    kind: "S" (relative entropy, bits), "he2", or "renyi" (order lam, nats).
    Computed in log space over one type-class table with multiplicities;
    exact for exchangeable sources and finite at any n.
    """
    counts, log_mult, la = word_distribution(src_a, system, n)
    lb = src_b.log_prob(system, counts)
    if kind == "S":
        base = base or "bits"
        live = la > -np.inf
        if np.any(lb[live] == -np.inf):
            return DivergenceValue(np.inf, base)
        terms = np.exp(log_mult[live] + la[live]) * (la[live] - lb[live])
        return DivergenceValue(float(terms.sum()) / _base_factor(base), base)
    if kind == "he2":
        # (sqrt(p) - sqrt(q))^2 = max(p, q) * expm1((log min - log max) / 2)^2
        hi, lo = np.maximum(la, lb), np.minimum(la, lb)
        live = hi > -np.inf
        terms = np.exp(log_mult[live] + hi[live]) * np.expm1((lo[live] - hi[live]) / 2) ** 2
        return DivergenceValue(float(terms.sum()), "nats")
    if kind == "renyi":
        base = base or "nats"
        if not 0.0 < lam < 1.0:
            raise ValueError(f"Renyi order must lie in (0, 1), got {lam}")
        live = (la > -np.inf) & (lb > -np.inf)
        if not live.any():
            return DivergenceValue(np.inf, base)
        log_affinity = logsumexp(log_mult[live] + lam * la[live] + (1.0 - lam) * lb[live])
        value = -float(log_affinity) / (1.0 - lam) / _base_factor(base)
        return DivergenceValue(value, base)
    raise ValueError(f"unknown divergence kind {kind!r}")
