"""Representative slate selection over an attitude matrix.

Two scoring rules are supported. Harmonic scoring rewards each participant
1 + 1/2 + ... + 1/len when ``len`` of their approved ideas are in the
slate; coverage scoring counts the participants with at least one approved
idea in it. Both are monotone submodular set functions, so greedy selection
carries the usual (1 - 1/e) guarantee, and an exhaustive solver is provided
for instances small enough to enumerate. ``_solve_slate`` owns the choice
between the two.

The exhaustive solver decides on exact scores: it returns the first
subset, in lexicographic order, of maximal exact (rational) score, found
by one pass that scores every subset in integers on the distinct rows.
The greedy solver decides each step on float gains, so ideas whose exact
gains tie can be told apart by rounding.

Unknown attitudes contribute nothing to either score: only explicit
approvals count.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb, lcm
from typing import Iterable

import numpy as np

from .errors import CapacityError, IdentityError, ParameterError
from .matrix import AttitudeMatrix, IdeaId, ParticipantId

ENUMERATION_CAP = 10**6

_EXACT_MADDS = 1 << 18  # multiply-adds per integer-scored block; timed best of 2^16..2^22 on 2 CPUs


class ScoringKind(Enum):
    HARMONIC = "harmonic"
    COVERAGE = "coverage"

    @classmethod
    def parse(cls, label: str) -> "ScoringKind":
        try:
            return cls(label.lower())
        except ValueError:
            raise ParameterError(f"unknown scoring rule {label!r}") from None


@dataclass(frozen=True)
class Slate:
    """A selected subset of ideas together with its score."""

    ideas: frozenset[IdeaId]
    target_k: int
    score: float
    kind: ScoringKind


@dataclass(frozen=True)
class JrViolation:
    """A cohesive, sufficiently large group left entirely unrepresented."""

    group: frozenset[ParticipantId]
    witness_ideas: frozenset[IdeaId]
    group_share: float


def harmonic_table(upto: int) -> np.ndarray:
    """H[l] = 1 + 1/2 + ... + 1/l, with H[0] = 0."""
    return np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, upto + 1))])


def _validated_ideas(m: int, ideas: Iterable[IdeaId]) -> list[int]:
    """The distinct ids, sorted; an id that is not an integer in ``range(m)`` raises ``IdentityError``."""
    ideas = set(ideas)
    for p in ideas:
        if not isinstance(p, (int, np.integer)) or not 0 <= p < m:
            raise IdentityError(f"unknown idea {p}")
    return sorted(map(int, ideas))


def score_from_approvals(approvals: np.ndarray, ideas: Iterable[int], kind: ScoringKind) -> float:
    """Score a slate against a dense boolean approval matrix; ids must name its columns."""
    ids = _validated_ideas(approvals.shape[1], ideas)
    if not ids:
        return 0.0
    counts = approvals[:, ids].sum(axis=1)
    if kind is ScoringKind.HARMONIC:
        return float(harmonic_table(len(ids))[counts].sum())
    return float((counts > 0).sum())


def slate_score(matrix: AttitudeMatrix, ideas: Iterable[IdeaId], kind: ScoringKind) -> float:
    """Score the idea set under the given rule. Unknown never counts."""
    return score_from_approvals(matrix.approvals(), ideas, kind)


# -- greedy solver ---------------------------------------------------------


def _gain_weights(counts: np.ndarray, kind: ScoringKind) -> np.ndarray:
    if kind is ScoringKind.HARMONIC:
        return 1.0 / (counts + 1.0)
    return (counts == 0).astype(float)


def greedy_order(approvals: np.ndarray, steps: int, kind: ScoringKind) -> tuple[list[int], list[float]]:
    """Select ``steps`` ideas by maximal marginal gain, one float mat-vec a step.

    Each step takes the first maximum of the float gains, so of ideas
    with equal float gains the lowest id wins; ideas whose exact gains tie
    can get floats that differ in the last bits, and then the larger float
    wins, whatever its id. Returns the selection order and the marginal
    gain recorded at each step. This is the single source of tie-breaking
    shared by slates and rankings.
    """
    n, m = approvals.shape
    steps = min(steps, m)
    dense = approvals.astype(float)
    counts = np.zeros(n)
    chosen: list[int] = []
    gains: list[float] = []
    taken = np.zeros(m, dtype=bool)
    for _ in range(steps):
        per_idea = _gain_weights(counts, kind) @ dense
        per_idea[taken] = -np.inf
        best = int(np.argmax(per_idea))
        chosen.append(best)
        gains.append(float(per_idea[best]))
        taken[best] = True
        counts += dense[:, best]
    return chosen, gains


def _lazy_greedy_order(approvals: np.ndarray, steps: int, kind: ScoringKind) -> tuple[list[int], list[float]]:
    """Lazy variant: re-evaluates only candidates whose cached bound wins.

    Valid because marginal gains never increase as the slate grows.
    """
    n, m = approvals.shape
    steps = min(steps, m)
    dense = approvals.astype(float)
    counts = np.zeros(n)
    weights = _gain_weights(counts, kind)
    heap = [(-float(weights @ dense[:, p]), p, 0) for p in range(m)]
    heapq.heapify(heap)
    chosen: list[int] = []
    gains: list[float] = []
    round_no = 0
    while len(chosen) < steps:
        neg_gain, p, stamp = heapq.heappop(heap)
        if stamp == round_no:
            chosen.append(p)
            gains.append(-neg_gain)
            counts += dense[:, p]
            weights = _gain_weights(counts, kind)
            round_no += 1
        else:
            heapq.heappush(heap, (-float(weights @ dense[:, p]), p, round_no))
    return chosen, gains


def greedy_slate(matrix: AttitudeMatrix, k: int, kind: ScoringKind, *, lazy: bool = False) -> Slate:
    """Build a size-k slate greedily, with the float tie rule of :func:`greedy_order`.

    When fewer than ``k`` ideas exist, all of them are returned. The score
    attached to the result is recomputed exactly for the returned set.
    """
    if k < 1:
        raise ParameterError("slate size k must be at least 1")
    order_fn = _lazy_greedy_order if lazy else greedy_order
    chosen, _ = order_fn(matrix.approvals(), k, kind)
    return Slate(
        ideas=frozenset(chosen),
        target_k=k,
        score=slate_score(matrix, chosen, kind),
        kind=kind,
    )


# -- exact solver ----------------------------------------------------------


def exact_order_and_score(approvals: np.ndarray, k: int, kind: ScoringKind) -> tuple[tuple[int, ...], float]:
    """The first subset, in lexicographic order, of maximal exact score, and its score.

    A subset's exact score sums, over the rows, H_c = 1 + 1/2 + ... + 1/c
    under harmonic scoring, or 1 if c > 0 under coverage, where c counts
    the row's approvals among the subset's ideas. Of the subsets of
    maximal exact score, the one whose sorted ids come first wins; the
    score returned is :func:`score_from_approvals` of that subset.

    One integer pass decides. Scaled by L = lcm(1..k) (1 under coverage),
    a row's value is the integer L·H_c, and subsets are scored over the
    distinct rows U weighted by their counts w. Each block of
    (k-1)-prefixes C scores every last idea with one product
    ``base[C] + (w·Δ[C]) @ U``, where Δ is the scaled gain of one more
    approval; a last idea must exceed the prefix's largest. Blocks, their
    prefixes and their last ideas all run in lexicographic order, so the
    first maximum of each block, kept only where it beats every earlier
    block, is the answer.

    Exactness. Every term and partial sum of that product is a
    non-negative integer at most the subset's scaled score, which is at
    most n·L·H_k = n·Σ_{c≤k} L/c (n under coverage) over n rows. Float64
    holds every integer below 2⁵³ exactly, and so adds and multiplies
    such integers exactly in any order while the results stay below
    2⁵³. So the pass runs in float64 while n·L·H_k < 2⁵³ (at k = 20 up to
    n ≈ 10.75 million, at k = 29 up to n = 976, from k = 37 never), and on
    Python ints (``dtype=object``) otherwise.

    Cost: C(m-1, k-1) prefixes, each scored against the m ideas over the
    distinct rows in blocks of about ``_EXACT_MADDS`` multiply-adds.
    """
    if k < 1:
        raise ParameterError("slate size k must be at least 1")
    n, m = approvals.shape
    if k >= m:
        ids = tuple(range(m))
        return ids, score_from_approvals(approvals, ids, kind)
    n_subsets = comb(m, k)
    if n_subsets > ENUMERATION_CAP:
        raise CapacityError(
            f"choose({m}, {k}) = {n_subsets} subsets exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    packed = np.packbits(approvals, axis=1)  # one bytes key per row: a fast unique
    _, first, weights = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_counts=True)
    rows = approvals[first]
    # steps[c]: the scaled gain of a row's (c+1)-th approval; values[c]: of c approvals
    scale = lcm(*range(1, k + 1))
    steps = [scale // c if kind is ScoringKind.HARMONIC else int(c == 1) for c in range(1, k + 1)]
    dtype = float if n * sum(steps) < 2**53 else object
    steps, values = np.array(steps, dtype=dtype), np.array([0, *itertools.accumulate(steps)][:k], dtype=dtype)
    unique, weights = rows.astype(dtype), weights.astype(dtype)
    columns = rows.T.astype(np.intp)
    ideas = np.arange(m)
    prefixes = itertools.combinations(range(m - 1), k - 1)
    per_block = max(1, _EXACT_MADDS // (max(len(rows), 1) * m))
    best_score, best = -1, ()
    while chunk := list(itertools.islice(prefixes, per_block)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), k - 1)
        counts = columns[idx].sum(axis=1)
        scores = (steps[counts] * weights) @ unique + (values[counts] @ weights)[:, None]
        scores[ideas <= idx.max(axis=1, initial=-1)[:, None]] = -1
        row, last = divmod(int(np.argmax(scores)), m)
        if scores[row, last] > best_score:
            best_score, best = scores[row, last], (*map(int, idx[row]), last)
    return best, score_from_approvals(approvals, best, kind)


def exact_slate(matrix: AttitudeMatrix, k: int, kind: ScoringKind) -> Slate:
    """Exhaustive optimum over all size-k subsets of ideas.

    Refuses instances whose subset count exceeds ``ENUMERATION_CAP`` and
    ``k`` below 1. Among subsets of equal exact score, the first by sorted
    idea ids wins; see :func:`exact_order_and_score`.
    """
    ids, score, _ = _solve_slate(matrix.approvals(), k, kind, "exact")
    return Slate(ideas=frozenset(ids), target_k=k, score=score, kind=kind)


def _solve_slate(approvals: np.ndarray, k: int, kind: ScoringKind, solver: str) -> tuple[tuple[int, ...], float, bool]:
    """(sorted ids, score, used_exact); "auto" enumerates while k >= m or C(m, k) fits ``ENUMERATION_CAP``."""
    m = approvals.shape[1]
    if solver == "exact" or (solver == "auto" and (k >= m or comb(m, k) <= ENUMERATION_CAP)):
        ids, score = exact_order_and_score(approvals, k, kind)
        return ids, score, True
    order, _ = greedy_order(approvals, k, kind)
    ids = tuple(sorted(order))
    return ids, score_from_approvals(approvals, ids, kind), False


# -- proportionality audit ---------------------------------------------------


def jr_audit(matrix: AttitudeMatrix, slate: Slate, level: int = 1) -> list[JrViolation]:
    """Report cohesive groups the slate leaves unrepresented.

    At ``level`` 1 this is the justified-representation check: every group
    of at least n/k participants sharing a commonly approved idea must have
    some member with an approved idea in the slate. Higher levels demand,
    for groups of at least level * n/k participants commonly approving
    ``level`` ideas, that some member has ``level`` approved ideas in the
    slate. Every level enumerates the size-``level`` idea sets; above level
    1 their count may not exceed ``ENUMERATION_CAP``, and they are intended
    for desk scale only.
    """
    if slate.target_k < 1:
        raise ParameterError("slate target_k must be at least 1")
    if level < 1:
        raise ParameterError("audit level must be at least 1")
    slate_ids = _validated_ideas(matrix.n_ideas, slate.ideas)
    approvals = matrix.approvals()
    n, m = approvals.shape
    if n == 0 or m == 0:
        return []
    satisfaction = approvals[:, slate_ids].sum(axis=1) if slate_ids else np.zeros(n, dtype=int)
    threshold = level * n / slate.target_k
    deprived = satisfaction < level

    if level > 1 and comb(m, level) > ENUMERATION_CAP:
        raise CapacityError(
            f"choose({m}, {level}) witness sets exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    groups: dict[frozenset[int], None] = {}
    for subset in itertools.combinations(range(m), level):
        members = np.flatnonzero(deprived & approvals[:, subset].all(axis=1))
        if members.size and members.size >= threshold:
            groups.setdefault(frozenset(int(i) for i in members))

    violations = []
    for group in groups:
        rows = approvals[sorted(group)]
        witnesses = np.flatnonzero(rows.all(axis=0))
        violations.append(
            JrViolation(
                group=group,
                witness_ideas=frozenset(int(p) for p in witnesses),
                group_share=len(group) / n,
            )
        )
    violations.sort(key=lambda v: (-len(v.group), sorted(v.group)))
    return violations

