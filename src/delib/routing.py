"""Adaptive attitude elicitation: support estimates and query planning.

A query plan is a budgeted list of (participant, idea) pairs to ask next.
Three policies are provided behind the same interface so they can be
compared in simulation: uniform sampling over the unknown cells,
position-weighted sampling driven by a ranking, and uncertainty-greedy
sampling driven by confidence-interval width. Plans only ever target
unknown cells of active participants, never repeat a pair, and are fully
determined by their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _seeded_rng
from .matrix import AttitudeMatrix, IdeaId, ParticipantId

_WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class ElicitationWeights:
    """Knobs shared by estimation and exploration-aware ranking."""

    c_explore: float = 1.0
    prior_mean: float = 0.5
    prior_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c_explore", "prior_mean", "prior_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite")
        if self.c_explore < 0 or self.prior_weight < 0:
            raise ParameterError("c_explore and prior_weight must be non-negative")
        if not 0.0 <= self.prior_mean <= 1.0:
            raise ParameterError("prior_mean must lie in [0, 1]")


@dataclass(frozen=True)
class SupportEstimate:
    idea: IdeaId
    mean: float
    ci_low: float
    ci_high: float
    sample_size: int


@dataclass(frozen=True)
class QueryPlan:
    """Pairs to query, in draw order. ``shortfall`` counts unfilled budget."""

    pairs: tuple[tuple[ParticipantId, IdeaId], ...]
    policy_name: str
    seed: int
    shortfall: int = 0


def wilson_interval(approvals, responses):
    """95% score interval for a binomial proportion; [0, 1] with no data.

    Int counts give two floats, arrays of counts two arrays.
    """
    z = _WILSON_Z
    approvals = np.asarray(approvals, dtype=float)
    responses = np.asarray(responses, dtype=float)
    n = np.maximum(responses, 1.0)  # stands in for 0, whose interval is fixed below
    phat = approvals / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low = np.where(responses == 0, 0.0, center - half)
    high = np.where(responses == 0, 1.0, center + half)
    if low.ndim == 0:
        return float(low), float(high)
    return low, high


def _smoothed_supports(approvals, responses, weights: ElicitationWeights):
    """(mean, ci_low, ci_high) per count: the prior-smoothed mean and the
    Wilson interval on the raw counts, widened to contain the mean."""
    denom = responses + weights.prior_weight
    means = np.full(np.shape(denom), weights.prior_mean, dtype=float)
    np.divide(approvals + weights.prior_mean * weights.prior_weight, denom, out=means, where=denom > 0)
    low, high = wilson_interval(approvals, responses)
    return means, np.minimum(low, means), np.maximum(high, means)


def estimate_support(matrix: AttitudeMatrix, p: IdeaId, weights: ElicitationWeights = ElicitationWeights()) -> SupportEstimate:
    """Prior-smoothed support estimate with a Wilson interval on raw data.

    The interval is widened, if necessary, to contain the smoothed mean so
    that ci_low <= mean <= ci_high always holds.
    """
    matrix._check_idea(p)
    approvals, responses = (int(counts[p]) for counts in matrix.column_counts_all())
    mean, low, high = map(float, _smoothed_supports(approvals, responses, weights))
    return SupportEstimate(idea=p, mean=mean, ci_low=low, ci_high=high, sample_size=responses)


def estimate_all_supports(matrix: AttitudeMatrix, weights: ElicitationWeights = ElicitationWeights()) -> np.ndarray:
    """Smoothed support means for every idea at once."""
    return _smoothed_supports(*matrix.column_counts_all(), weights)[0]


# -- plan building -----------------------------------------------------------


def _active_set(matrix: AttitudeMatrix, active) -> list[int]:
    requested = matrix.active_participants if active is None else frozenset(active)
    usable = sorted(requested & matrix.active_participants)
    return usable


def _unknown_by_idea(matrix: AttitudeMatrix, active: list[int]) -> list[list[int]]:
    """Per idea, the active participants whose cell is still unknown, ascending."""
    rows = np.asarray(active, dtype=np.intp)
    unknown_by_idea = np.ascontiguousarray(~matrix.known_mask()[rows].T)
    return [rows[unknown].tolist() for unknown in unknown_by_idea]


def plan_uniform(matrix: AttitudeMatrix, active, budget: int, seed: int) -> QueryPlan:
    """Sample unknown (participant, idea) pairs uniformly, no replacement.

    The pool lists the unknown cells of the active participants in
    row-major (participant, idea) order; one seeded permutation of it
    gives the plan's draw order.
    """
    if budget < 0:
        raise ParameterError("budget must be non-negative")
    rows = np.asarray(_active_set(matrix, active), dtype=np.intp)
    pool_rows, pool_ideas = np.nonzero(~matrix.known_mask()[rows])
    rng = _seeded_rng(seed)
    order = rng.permutation(len(pool_rows))
    take = min(budget, len(pool_rows))
    chosen = order[:take]
    pairs = tuple(zip(rows[pool_rows[chosen]].tolist(), pool_ideas[chosen].tolist()))
    return QueryPlan(pairs=pairs, policy_name="uniform", seed=seed, shortfall=budget - take)


def plan_ranking_proportional(matrix: AttitudeMatrix, ranking, active, budget: int, seed: int) -> QueryPlan:
    """Sample ideas with probability proportional to their 1/rank weight.

    The idea at 1-based rank r is drawn with weight 1/r; the participant
    is drawn uniformly among active ones whose cell is still unknown.
    Ideas with no unknown cells left are resampled away (their weight is
    renormalized out). When no unknown pair remains, the plan is returned
    short, with the shortfall recorded.

    Each query makes one idea draw over the open ideas in ascending id
    order and one participant draw over that idea's unknown cells in
    ascending participant order. The idea draw searches the normalised
    CDF of the open weights, which is rebuilt only when an idea runs out
    of unknown cells. A drawn participant is removed in place, keeping
    that order, so every later draw picks the same participant for the
    same seed; swapping the last candidate into the hole would be cheaper
    but would change the plans.
    """
    if budget < 0:
        raise ParameterError("budget must be non-negative")
    order = list(ranking.order)
    if sorted(order) != list(range(matrix.n_ideas)):
        raise ParameterError("ranking does not cover the current idea set")
    available = _unknown_by_idea(matrix, _active_set(matrix, active))
    weights = np.zeros(matrix.n_ideas)
    weights[order] = 1.0 / np.arange(1, matrix.n_ideas + 1)

    open_ideas = np.flatnonzero([bool(candidates) for candidates in available])
    open_weights = weights[open_ideas]
    rng = _seeded_rng(seed)
    pairs: list[tuple[int, int]] = []
    cdf = None
    while len(pairs) < budget and open_ideas.size:
        if cdf is None:
            total = open_weights.sum()
            # the steps of rng.choice(len(open_ideas), p=open_weights / total):
            # the same CDF searched with the same one rng.random(), so the
            # same draw without choice's per-call checks
            cdf = (open_weights / total).cumsum()
            cdf /= cdf[-1]
        k = int(cdf.searchsorted(rng.random(), side="right"))
        p = int(open_ideas[k])
        candidates = available[p]
        pairs.append((candidates.pop(int(rng.integers(len(candidates)))), p))
        if not candidates:
            open_ideas = np.delete(open_ideas, k)
            open_weights = np.delete(open_weights, k)
            cdf = None
    return QueryPlan(
        pairs=tuple(pairs),
        policy_name="ranking",
        seed=seed,
        shortfall=budget - len(pairs),
    )


def plan_uncertainty(matrix: AttitudeMatrix, active, budget: int,
                     weights: ElicitationWeights = ElicitationWeights(), *, seed: int) -> QueryPlan:
    """Query the ideas with the widest support intervals first.

    Each query goes to the idea whose interval is currently widest (ties to
    the lowest id); the participant is drawn uniformly among active ones
    with the cell unknown. Queries already planned this round provisionally
    discount an idea's width by the usual 1/sqrt(sample size) factor, so a
    round's budget spreads over the uncertain ideas instead of piling onto
    one of them.

    As in :func:`plan_ranking_proportional`, a drawn participant is removed
    in place so the candidates stay in ascending order and the plan stays
    a fixed function of the seed.
    """
    if budget < 0:
        raise ParameterError("budget must be non-negative")
    available = _unknown_by_idea(matrix, _active_set(matrix, active))
    m = matrix.n_ideas
    approvals, responses = matrix.column_counts_all()
    _, low, high = _smoothed_supports(approvals, responses, weights)
    widths = high - low
    # the discounted width of every idea that still has an unknown cell;
    # exhausted ideas sit at -inf so argmax never returns them
    effective = np.where([bool(candidates) for candidates in available], widths, -np.inf)
    pending = np.zeros(m)

    rng = _seeded_rng(seed)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < budget and m:
        best = int(effective.argmax())
        if effective[best] == -np.inf:
            break
        candidates = available[best]
        pairs.append((candidates.pop(int(rng.integers(len(candidates)))), best))
        pending[best] += 1
        if candidates:
            effective[best] = widths[best] * math.sqrt(
                (responses[best] + 1) / (responses[best] + 1 + pending[best])
            )
        else:
            effective[best] = -np.inf
    return QueryPlan(
        pairs=tuple(pairs),
        policy_name="uncertainty",
        seed=seed,
        shortfall=budget - len(pairs),
    )


POLICY_NAMES = ("uniform", "ranking", "uncertainty")
