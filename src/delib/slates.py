"""Representative slate selection over an attitude matrix.

Two scoring rules are supported. Harmonic scoring rewards each participant
1 + 1/2 + ... + 1/len when ``len`` of their approved ideas are in the
slate; coverage scoring counts the participants with at least one approved
idea in it. Both are monotone submodular set functions, so greedy selection
carries the usual (1 - 1/e) guarantee, and an exhaustive solver is provided
for instances small enough to enumerate.

Unknown attitudes contribute nothing to either score: only explicit
approvals count. Callers who prefer to fill the gaps first can run
:func:`imputed_approvals` as a pre-pass.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterable

import numpy as np

from .errors import CapacityError, IdentityError, ParameterError
from .landscape import impute_mean
from .matrix import AttitudeMatrix, IdeaId, ParticipantId

ENUMERATION_CAP = 10**6

_EXACT_CHUNK = 4096


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
    if upto == 0:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, upto + 1))])


def _validated_ideas(matrix: AttitudeMatrix, ideas: Iterable[IdeaId]) -> list[int]:
    ids = sorted(set(int(p) for p in ideas))
    for p in ids:
        if not 0 <= p < matrix.n_ideas:
            raise IdentityError(f"unknown idea {p}")
    return ids


def score_from_approvals(approvals: np.ndarray, ideas: Iterable[int], kind: ScoringKind) -> float:
    """Score a slate against a dense boolean approval matrix."""
    ids = sorted(set(int(p) for p in ideas))
    if not ids:
        return 0.0
    counts = approvals[:, ids].sum(axis=1)
    if kind is ScoringKind.HARMONIC:
        return float(harmonic_table(len(ids))[counts].sum())
    return float((counts > 0).sum())


def slate_score(matrix: AttitudeMatrix, ideas: Iterable[IdeaId], kind: ScoringKind) -> float:
    """Score the idea set under the given rule. Unknown never counts."""
    ids = _validated_ideas(matrix, ideas)
    return score_from_approvals(matrix.approvals(), ids, kind)


# -- greedy solver ---------------------------------------------------------


def _gain_weights(counts: np.ndarray, kind: ScoringKind) -> np.ndarray:
    if kind is ScoringKind.HARMONIC:
        return 1.0 / (counts + 1.0)
    return (counts == 0).astype(float)


def greedy_order(approvals: np.ndarray, steps: int, kind: ScoringKind) -> tuple[list[int], list[float]]:
    """Select ``steps`` ideas by maximal marginal gain, lowest id on ties.

    Returns the selection order and the marginal gain recorded at each
    step. This is the single source of tie-breaking shared by slates and
    rankings.
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
    """Build a size-k slate greedily; ties go to the lowest idea id.

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
    """Enumerate all size-k subsets; first lexicographic maximum wins."""
    n, m = approvals.shape
    if k >= m:
        ids = tuple(range(m))
        return ids, score_from_approvals(approvals, ids, kind)
    n_subsets = comb(m, k)
    if n_subsets > ENUMERATION_CAP:
        raise CapacityError(
            f"choose({m}, {k}) = {n_subsets} subsets exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    table = harmonic_table(k)
    best_score = -np.inf
    best: tuple[int, ...] = ()
    combos = itertools.combinations(range(m), k)
    while True:
        chunk = list(itertools.islice(combos, _EXACT_CHUNK))
        if not chunk:
            break
        idx = np.array(chunk)
        counts = approvals[:, idx].sum(axis=2)
        if kind is ScoringKind.HARMONIC:
            scores = table[counts].sum(axis=0)
        else:
            scores = (counts > 0).sum(axis=0).astype(float)
        local = int(np.argmax(scores))
        if scores[local] > best_score:
            best_score = float(scores[local])
            best = chunk[local]
    return best, best_score


def exact_slate(matrix: AttitudeMatrix, k: int, kind: ScoringKind) -> Slate:
    """Exhaustive optimum over all size-k subsets of ideas.

    Refuses instances whose subset count exceeds ``ENUMERATION_CAP``.
    Ties are broken lexicographically on the sorted idea ids.
    """
    if k < 1:
        raise ParameterError("slate size k must be at least 1")
    ids, score = exact_order_and_score(matrix.approvals(), k, kind)
    return Slate(ideas=frozenset(ids), target_k=k, score=score, kind=kind)


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
    slate_ids = _validated_ideas(matrix, slate.ideas)
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


# -- optional imputation pre-pass --------------------------------------------


def imputed_approvals(matrix: AttitudeMatrix, threshold: float = 0.5) -> AttitudeMatrix:
    """Fill unknown cells with their column-mean verdict before scoring.

    A cell becomes approve when its column mean, as filled in by
    :func:`delib.landscape.impute_mean`, is at or above ``threshold``
    (columns with no data count as 0.5). The result is a new fully known
    matrix; the original is untouched.
    """
    codes = matrix.codes()
    if codes.size:  # impute_mean refuses empty shapes, which have no cell to fill
        filled = impute_mean(matrix)
        codes = np.where(filled.imputed_mask, filled.values >= threshold, codes)
    return AttitudeMatrix.from_dense(codes.tolist(), texts=[idea.text for idea in matrix.ideas])
