"""Estimators and predictors: grid MLE, Laplace-style prediction, two-part MDL.

The two-part estimator scores each model member by the projected likelihood of
its code-weighted tensor-power level; ties fall back to the maximum stored
trace, then to the lowest index. Both models are the weighted family of
qsource: GeneralizedModel's weights are code weights, ParamModel's are all 1.
Models score and sources emit: a model is read only through _member_scores,
which pays log w once per letter (a source's level pays it once; ROADMAP item 1)
on top of typeclasses.log_likelihoods, the library's one log-likelihood rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroLikelihood, InvalidOperator, InvalidWord, NonMinimalSystem
from .models import example_states
from .opcore import check_density, normalize
from .projlat import ProjSystem
from .qsource import _Family, _unzip, word_counts
from .typeclasses import compositions, log_likelihoods, log_multinomial

__all__ = [
    "ParamModel",
    "GeneralizedModel",
    "TiePath",
    "EstimateResult",
    "mle",
    "two_part",
    "alpha_scale",
    "two_part_classes",
    "lambda_sum",
]

DEFAULT_GRID_POINTS = 1001


class ParamModel(_Family):
    """Finite family of candidate densities, optionally carrying parameters; every weight is 1."""

    def __init__(self, states, thetas: np.ndarray | None = None):
        super().__init__(np.ones(len(states)), states, thetas, top=1.0, bad_weight="",
                         empty="a model needs at least one state, all on one space")

    @classmethod
    def example(cls, c: float = 0.0, grid: np.ndarray | None = None) -> "ParamModel":
        """Built-in qubit family over a theta grid (default 1001 uniform nodes), as one stack."""
        if grid is None:
            grid = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
        grid = np.asarray(grid, dtype=float)
        return cls(example_states(grid, c), grid)

    @classmethod
    def explicit(cls, states) -> "ParamModel":
        return cls(tuple(check_density(s) for s in states), None)


def check_kraft(weights):
    """The code weights, unless their sum exceeds 1 by more than round-off."""
    if np.sum(weights) > 1 + 1e-9:
        raise InvalidOperator("code weights violate the Kraft-style mass bound")
    return weights


class GeneralizedModel(_Family):
    """Members (code weight, density); stored semi-densities w*rho obey Kraft."""

    def __init__(self, members):
        super().__init__(*_unzip(members), top=1.0, bad_weight="code weight {w} outside (0, 1]",
                         empty="a generalized model needs at least one member, all on one space")
        check_kraft(self.weights)


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


def _member_scores(model, system: ProjSystem, counts: np.ndarray) -> np.ndarray:
    """n log w_i + log_likelihoods(letter table, counts) per member: a model's scores.

    Models score and sources emit; this is the one reading of a model, paying a
    weight per letter. The one log-likelihood rule (math.log, index order, -inf at
    p <= 0 with a positive count, no floor) keeps each score the scalar sum's float,
    so exact ties survive. counts [m] or [C, m] give [members] or [C, members]; the
    weight term is added in place, keeping one [C, members] array fewer alive.
    """
    scores = log_likelihoods(model.letter_probs(system), counts)
    scores += np.sum(counts, axis=-1)[..., None] * np.array(list(map(math.log, model.weights.tolist())))
    return scores


def mle(model: ParamModel, system: ProjSystem, word) -> EstimateResult:
    """Grid maximum likelihood; ties resolved to the lowest grid index."""
    if not system.minimal:
        raise NonMinimalSystem("MLE is defined over a rank-1 measurement system")
    counts = word_counts(word, system)
    if not counts.any():
        raise InvalidWord("MLE needs a nonempty outcome word")
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


def _two_part_scores(
    model: GeneralizedModel, system: ProjSystem, counts: np.ndarray
) -> np.ndarray:
    """Two-part scores of one word [m], consistency_run's replicas [R, m] or a class table
    [C, m] of two_part_classes (kept apart from mle: perfbench counts calls here)."""
    return _member_scores(model, system, counts)


def _select(model: GeneralizedModel, scores: np.ndarray) -> TiePath:
    """Two-part argmax over the last axis of scores[..., members].

    Ties go to the maximal stored trace, then to the lowest index; chosen is
    -1 where every member scores -inf. One row of scores gives int fields, a
    batch of rows gives arrays.
    """
    best = scores.max(axis=-1, keepdims=True)
    winners = scores == best
    traces = np.where(winners, model.stored_traces, -np.inf)
    top = traces == traces.max(axis=-1, keepdims=True)
    chosen = np.where(best[..., 0] > -np.inf, top.argmax(axis=-1), -1)
    fields = (winners.sum(axis=-1), top.sum(axis=-1), chosen)
    if scores.ndim == 1:
        fields = tuple(int(f) for f in fields)
    return TiePath(*fields)


def two_part(model: GeneralizedModel, system: ProjSystem, word) -> EstimateResult:
    """Two-part MDL selection: argmax of code-weighted projected likelihood.

    Score ties go to the maximum stored trace, remaining ties to the lowest
    index. The returned state is the normalized winner.
    """
    if not system.minimal:
        raise NonMinimalSystem("two-part selection needs a rank-1 system")
    tie_path = _select(model, _two_part_scores(model, system, word_counts(word, system)))
    if tie_path.chosen < 0:
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
    return GeneralizedModel(
        (w * t ** (alpha - 1.0), rho) for w, t, rho in zip(model.weights, model.stored_traces, model.states)
    )


def two_part_classes(model: GeneralizedModel, system: ProjSystem, n: int):
    """Two-part class table for length-n words: (counts[C, m], log #words, winner).

    winner[c] is the two-part choice for every word of class c, or -1 where
    no member emits the class.
    """
    counts = compositions(n, len(system))
    chosen = _select(model, _two_part_scores(model, system, counts)).chosen
    return counts, log_multinomial(counts), chosen


def _trace_sum(stored_traces: np.ndarray, n: int, log_mult: np.ndarray, chosen: np.ndarray) -> float:
    """sum over the classes with a winner of #words * (winner's stored trace)^n."""
    won = chosen >= 0
    return float(np.exp(log_mult[won] + n * np.log(stored_traces[chosen[won]])).sum())


def lambda_sum(
    model: GeneralizedModel,
    system: ProjSystem,
    n: int,
    select_model: GeneralizedModel | None = None,
) -> float:
    """Sum over all length-n words of the winning member's level-n trace.

    The winner per word is the two-part argmax on select_model when given
    (bound scores the family as given and sums the traces of its alpha-scaled
    copy), else on model; its contribution is the trace of model's stored
    level at that index, (code weight * Tr(rho))^n. This is the quantity whose
    sum over words must stay below 1 for the expected-divergence bound to apply.
    """
    if not system.minimal:
        raise NonMinimalSystem("lambda_sum needs a rank-1 system")
    scorer = select_model if select_model is not None else model
    if select_model is not None and len(select_model) != len(model):
        raise InvalidOperator("select_model must parallel the model members")
    _, log_mult, chosen = two_part_classes(scorer, system, n)
    return _trace_sum(model.stored_traces, n, log_mult, chosen)
