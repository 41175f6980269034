"""Type-class (histogram) tables for exchangeable word distributions.

Mixture-source levels are exchangeable, so a length-n word's probability
depends only on its outcome histogram. Enumerating C(n+m-1, m-1) histograms
instead of m^n words makes exact finite-n checks tractable. Everything here
works on a count array counts[C, m] and stays in log space, so class
probabilities neither underflow nor overflow at any n. Binary tables (m = 2)
take the closed form; log k! comes from one module table that grows on demand.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb, lgamma, log

import numpy as np

from .config import admit

__all__ = [
    "compositions",
    "log_multinomial",
    "letter_logs",
    "summed_logs",
    "logsumexp",
]


def compositions(n: int, parts: int) -> np.ndarray:
    """All histograms of n outcomes over `parts` symbols, as counts[C, parts].

    Rows are in lexicographic order; n = 0 gives one all-zero row. The table is admitted
    (config.admit) before it is formed: a count is an int64, so n past 2^63 - 1 is refused too.
    """
    rows = comb(n + parts - 1, parts - 1)
    admit("type-class table", rows, parts, itemsize=8, top=(n, "count of a type-class table"))
    if parts == 1:
        return np.array([[n]], dtype=np.int64)
    if parts == 2:
        k = np.arange(n + 1, dtype=np.int64)
        return np.stack([k, n - k], axis=1)
    # stars and bars: each choice of parts-1 bar positions among n+parts-1 slots
    bars = np.fromiter(
        chain.from_iterable(combinations(range(n + parts - 1), parts - 1)),
        dtype=np.int64,
        count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    edges = np.hstack(
        [np.full((rows, 1), -1), bars, np.full((rows, 1), n + parts - 1)]
    )
    return np.diff(edges, axis=1) - 1


# log k! for k < len(_LOG_FACT); log_multinomial swaps in longer read-only copies
_LOG_FACT = np.empty(0)


def log_multinomial(counts) -> np.ndarray:
    """log of the number of words sharing each histogram (last axis of counts)."""
    global _LOG_FACT
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[-1] == 1:  # one word per class: log 1, with no table up to n
        return np.zeros(counts.shape[:-1])
    n = counts.sum(axis=-1)
    top = int(n.max()) if n.size else 0
    log_fact = _LOG_FACT
    if top >= log_fact.size:
        more = map(lgamma, range(log_fact.size + 1, top + 2))
        log_fact = np.concatenate([log_fact, np.fromiter(more, dtype=float, count=top + 1 - log_fact.size)])
        log_fact.flags.writeable = False
        _LOG_FACT = log_fact
    log_fact = log_fact[: max(top + 1, 0)]  # a per-call table's length: bad counts fail alike
    return log_fact[n] - log_fact[counts].sum(axis=-1)


def letter_logs(probs: np.ndarray) -> np.ndarray:
    """math.log of each positive entry of a letter table p[I, m], -inf where p <= 0:
    the table summed_logs reads. One table serves any number of count blocks."""
    probs = np.asarray(probs, dtype=float)
    support = probs > 0.0
    logs = np.array(list(map(log, np.where(support, probs, 1.0).ravel().tolist()))).reshape(probs.shape)
    logs[~support] = -np.inf
    return logs


def summed_logs(logs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_a k_a logs[i, a] for every law i: [I] for counts [m], [C, I] for counts [C, m].

    Outcome columns are added in index order from 0.0, so each value is the
    scalar loop's float and exact ties between laws survive; a letter with log
    -inf adds nothing at count 0 and gives -inf at a positive count.
    """
    support = logs > -np.inf
    finite = np.where(support, logs, 0.0)
    counts = np.asarray(counts)
    out = np.zeros(counts.shape[:-1] + (len(logs),))
    for a in range(logs.shape[1]):
        out += counts[..., a, None] * finite[:, a]
    if not support.all():
        out[(counts > 0) @ ~support.T] = -np.inf
    return out


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp(a) along axis, max-shifted; -inf where every entry is -inf."""
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis) + np.log(np.sum(np.exp(a - top), axis=axis))
