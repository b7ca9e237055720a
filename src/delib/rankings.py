"""Orderings of the full idea set, for display and for elicitation.

The proportional ranking assigns positions by sequential harmonic greedy,
so every length-k prefix is exactly the greedy harmonic slate of size k;
large groups cannot monopolize the top of the list. The elicitation
ranking instead mixes estimated support with an exploration bonus so ideas
with little exposure can surface high enough to collect attitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import AttitudeMatrix, IdeaId
from .routing import ElicitationWeights, estimate_all_supports
from .slates import ScoringKind, greedy_order


@dataclass(frozen=True)
class Ranking:
    """Total order over the current ideas, best first.

    ``provenance[j]`` is the value that put ``order[j]`` at position j: a
    marginal harmonic gain for proportional rankings, a priority score for
    elicitation rankings.
    """

    order: tuple[IdeaId, ...]
    provenance: tuple[float, ...]


def proportional_ranking(matrix: AttitudeMatrix) -> Ranking:
    """Rank all ideas by sequential harmonic greedy, with the float tie rule of :func:`greedy_order`.

    With no ideas the ranking is empty.
    """
    order, gains = greedy_order(matrix.approvals(), matrix.n_ideas, ScoringKind.HARMONIC)
    return Ranking(order=tuple(order), provenance=tuple(gains))


def elicitation_ranking(matrix: AttitudeMatrix, weights: ElicitationWeights = ElicitationWeights()) -> Ranking:
    """Rank ideas by estimated support plus an exploration bonus.

    priority(p) = mean(p) + c_explore * sqrt(ln(T + 1) / (exposure(p) + 1))
    with T the total exposure across all ideas, so fresh ideas outrank
    equally supported but already well-exposed ones. Ties go to the lowest
    idea id.
    """
    log_term = math.log(matrix.total_exposure + 1.0)
    bonus = weights.c_explore * np.sqrt(log_term / (matrix.exposures + 1.0))
    priorities = estimate_all_supports(matrix, weights) + bonus
    order = np.argsort(-priorities, kind="stable")
    return Ranking(order=tuple(order.tolist()), provenance=tuple(priorities[order].tolist()))
