"""Estimators and predictors: grid MLE, Laplace-style prediction, two-part MDL.

The two-part estimator scores each model member by the projected likelihood of
its code-weighted tensor-power level; ties fall back to the maximum stored
trace, then to the lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroLikelihood, InvalidOperator, NonMinimalSystem
from .models import example_state
from .opcore import as_operator, check_density, normalize
from .projlat import ProjSystem
from .qsource import outcome_prob, outcome_probs, word_counts
from .typeclasses import compositions, log_multinomial

__all__ = [
    "ParamModel",
    "GeneralizedModel",
    "TiePath",
    "EstimateResult",
    "mle",
    "predict_next",
    "two_part",
    "alpha_scale",
    "lambda_sum",
]

DEFAULT_GRID_POINTS = 1001


@dataclass(frozen=True)
class ParamModel:
    """Finite family of candidate densities, optionally carrying parameters."""

    states: tuple[np.ndarray, ...]
    thetas: np.ndarray | None = None
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def example(cls, c: float = 0.0, grid: np.ndarray | None = None) -> "ParamModel":
        """Built-in qubit family over a theta grid (default 1001 uniform nodes)."""
        if grid is None:
            grid = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
        grid = np.asarray(grid, dtype=float)
        return cls(tuple(example_state(t, c) for t in grid), grid)

    @classmethod
    def explicit(cls, states) -> "ParamModel":
        return cls(tuple(check_density(s) for s in states), None)


class GeneralizedModel:
    """Members (code weight, density); stored semi-densities w*rho obey Kraft."""

    def __init__(self, members):
        weights = []
        states = []
        for w, rho in members:
            if not 0.0 < w <= 1.0:
                raise InvalidOperator(f"code weight {w} outside (0, 1]")
            weights.append(float(w))
            states.append(as_operator(rho))
        if not states:
            raise InvalidOperator("a generalized model needs at least one member")
        self.code_weights = np.array(weights)
        self.states = states
        self._tables: dict = {}
        self.stored_traces = np.array(
            [w * np.trace(s).real for w, s in zip(weights, states)]
        )
        if self.code_weights.sum() > 1 + 1e-9:
            raise InvalidOperator("code weights violate the Kraft-style mass bound")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def members(self):
        return list(zip(self.code_weights, self.states))


@dataclass(frozen=True)
class TiePath:
    maxima: int       # members achieving the maximal score
    trace_ties: int   # of those, members with the maximal stored trace
    chosen: int       # final winning index


@dataclass(frozen=True)
class EstimateResult:
    state: np.ndarray
    theta_hat: float | None
    lam: float
    tie_path: TiePath


def _score_table(model, system: ProjSystem):
    """(p[i, a], log max(p[i, a], 1e-300), log w_i) for every member.

    Built once per (model, system) and cached on the model, keyed by system
    identity; ParamModel members carry no code weight (log w = 0).
    """
    cached = model._tables.get(id(system))
    if cached is not None and cached[0] is system:
        return cached[1]
    probs = outcome_probs(model.states, system)
    logs = np.array([[math.log(max(p, 1e-300)) for p in row] for row in probs])
    if isinstance(model, GeneralizedModel):
        log_w = np.array([math.log(w) for w in model.code_weights])
    else:
        log_w = np.zeros(len(probs))
    # keep a reference to the key object so its id cannot be recycled
    model._tables[id(system)] = (system, (probs, logs, log_w))
    return probs, logs, log_w


def _member_scores(model, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
    """n log w_i + sum_a k_a log p[i, a] per member; -inf if p[i, a] <= 0 at a seen a.

    Outcome columns are added one at a time in index order, so each score is
    the same float as the per-member scalar sum taken in that order; exact
    ties between members therefore survive vectorisation.
    """
    probs, logs, log_w = _score_table(model, system)
    ll = np.zeros(len(probs))
    dead = np.zeros(len(probs), dtype=bool)
    for a in np.flatnonzero(counts):
        ll += counts[a] * logs[:, a]
        dead |= probs[:, a] <= 0.0
    scores = int(counts.sum()) * log_w + ll
    scores[dead] = -np.inf
    return scores


def mle(model: ParamModel, system: ProjSystem, word) -> EstimateResult:
    """Grid maximum likelihood; ties resolved to the lowest grid index."""
    if not system.minimal:
        raise NonMinimalSystem("MLE is defined over a rank-1 measurement system")
    counts = word_counts(word, system)
    if not counts.any():
        raise ValueError("MLE needs a nonempty outcome word")
    scores = _member_scores(model, system, counts)
    best = scores.max()
    if best == -np.inf:
        raise AllZeroLikelihood("every grid state assigns probability 0 to the word")
    winners = np.flatnonzero(scores == best)
    idx = int(winners[0])
    theta = float(model.thetas[idx]) if model.thetas is not None else None
    return EstimateResult(
        state=model.states[idx],
        theta_hat=theta,
        lam=float(np.trace(model.states[idx]).real),
        tie_path=TiePath(len(winners), len(winners), idx),
    )


def predict_next(src, system: ProjSystem, word) -> np.ndarray:
    """Next-outcome distribution: outcome_prob(word + a) / outcome_prob(word)."""
    base = outcome_prob(src, system, word)
    if base <= 1e-300:
        raise ZeroDivisionError("conditioning word has probability ~ 0")
    word = tuple(int(i) for i in word)
    return np.array(
        [outcome_prob(src, system, word + (a,)) / base for a in range(len(system))]
    )


def _two_part_scores(
    model: GeneralizedModel, system: ProjSystem, counts: np.ndarray
) -> np.ndarray:
    """Two-part scores for one histogram (kept apart from mle: perfbench counts calls here)."""
    return _member_scores(model, system, counts)


def _select(model: GeneralizedModel, scores: np.ndarray) -> TiePath | None:
    """Two-part argmax; ties go to the maximal stored trace, then the lowest index.

    None when every member scores -inf.
    """
    best = scores.max()
    if best == -np.inf:
        return None
    winners = np.flatnonzero(scores == best)
    traces = model.stored_traces[winners]
    trace_winners = winners[traces == traces.max()]
    return TiePath(len(winners), len(trace_winners), int(trace_winners[0]))


def two_part(model: GeneralizedModel, system: ProjSystem, word) -> EstimateResult:
    """Two-part MDL selection: argmax of code-weighted projected likelihood.

    Score ties go to the maximum stored trace, remaining ties to the lowest
    index. The returned state is the normalized winner.
    """
    if not system.minimal:
        raise NonMinimalSystem("two-part selection needs a rank-1 system")
    tie_path = _select(model, _two_part_scores(model, system, word_counts(word, system)))
    if tie_path is None:
        raise AllZeroLikelihood("every member assigns probability 0 to the word")
    idx = tie_path.chosen
    return EstimateResult(
        state=normalize(model.states[idx]),
        theta_hat=None,
        lam=float(model.stored_traces[idx]),
        tie_path=tie_path,
    )


def alpha_scale(model: GeneralizedModel, alpha: float) -> GeneralizedModel:
    """Scale each stored member T by Tr(T)^(alpha - 1)."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    members = [
        (w * t ** (alpha - 1.0), rho)
        for (w, rho), t in zip(model.members, model.stored_traces)
    ]
    return GeneralizedModel(members)


def lambda_sum(
    model: GeneralizedModel,
    system: ProjSystem,
    n: int,
    select_model: GeneralizedModel | None = None,
) -> float:
    """Sum over all length-n words of the winning member's level-n trace.

    The winner per word is the two-part argmax (scored on select_model when
    given, e.g. the alpha-scaled family); its contribution is the trace of its
    stored level, (code weight * Tr(rho))^n. This is the quantity whose sum
    over words must stay below 1 for the expected-divergence bound to apply.
    """
    if not system.minimal:
        raise NonMinimalSystem("lambda_sum needs a rank-1 system")
    scorer = select_model if select_model is not None else model
    if select_model is not None and len(select_model) != len(model):
        raise InvalidOperator("select_model must parallel the model members")
    total = 0.0
    for counts in compositions(n, len(system)):
        tie_path = _select(scorer, _two_part_scores(scorer, system, np.asarray(counts)))
        if tie_path is None:
            continue  # no member emits these words; they carry no winner
        idx = tie_path.chosen
        total += math.exp(log_multinomial(counts)) * model.stored_traces[idx] ** n
    return total
