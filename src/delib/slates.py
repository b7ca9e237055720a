"""Representative slate selection over an attitude matrix.

Two scoring rules are supported. Harmonic scoring rewards each participant
1 + 1/2 + ... + 1/len when ``len`` of their approved ideas are in the
slate; coverage scoring counts the participants with at least one approved
idea in it. Both are monotone submodular set functions, so greedy selection
carries the usual (1 - 1/e) guarantee, and an exhaustive solver is provided
for instances small enough to enumerate.

The exhaustive solver returns what a plain float enumeration returns: the
first subset, in lexicographic order, of maximal float score. It gets
there by scoring every subset in integers on the distinct rows and
float-scoring only the subsets tied at the integer maximum, which a
rounding bound, checked at run time, shows to hold the float winner.

Unknown attitudes contribute nothing to either score: only explicit
approvals count. Callers who prefer to fill the gaps first can run
:func:`imputed_approvals` as a pre-pass.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb, lcm
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, IdentityError, ParameterError
from .landscape import impute_mean
from .matrix import AttitudeMatrix, IdeaId, ParticipantId

ENUMERATION_CAP = 10**6

_EXACT_CHUNK = 4096  # subsets per float-scored block
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
    if upto == 0:
        return np.zeros(1)
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


def _certified_scale(n: int, k: int, kind: ScoringKind) -> int | None:
    """The integer gain scale when the integer tie class certifies the float winner.

    Coverage gains are 0/1 and every float sum of them is exact, so the
    scale is 1. Harmonic gains are scaled by L = lcm(1..k); this returns L
    while n(n + 1 + 2k)·H_k·2⁻⁵² < 1/L, else None.
    """
    if kind is ScoringKind.COVERAGE:
        return 1
    scale = 1
    for j in range(2, k + 1):
        scale = lcm(scale, j)
        if scale >= 2**52:
            return None
    bound = n * (n + 1 + 2 * k) * float(harmonic_table(k)[k]) * scale
    return scale if bound < 2.0**52 else None


def _tie_class(approvals: np.ndarray, k: int, kind: ScoringKind, scale: int) -> Iterator[np.ndarray]:
    """Blocks of the size-k subsets at the integer maximum, and some below it.

    A subset's integer score sums, over the unique rows U with their
    counts w, the scaled value of the row's approval count. Each block of
    (k-1)-prefixes C scores every last idea with one product
    ``base[C] + (w·Δg[C]) @ U``, where Δg is the scaled gain of one more
    approval; float64 BLAS computes it exactly, since every partial sum
    stays below 2⁵³. The last idea must exceed the prefix's largest.

    Blocks come in lexicographic order and hold at most ``_EXACT_CHUNK``
    subsets each. Ties are held back until they fill a block, so a class
    that a higher maximum replaces is mostly dropped unscored; what of it
    was yielded scores below the final class in floats too. Coverage keeps
    only the first tie, since equal counts are equal floats.
    """
    m = approvals.shape[1]
    packed = np.packbits(approvals, axis=1)  # one bytes key per row: a fast unique
    _, first, weights = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_counts=True)
    rows = approvals[first]
    unique, weights = rows.astype(float), weights.astype(float)
    columns = rows.T.astype(np.intp)
    # steps[c]: the scaled gain of a row's (c+1)-th approval; values[c]: of c approvals
    if kind is ScoringKind.HARMONIC:
        steps = np.array([scale // c for c in range(1, k + 1)], dtype=float)
    else:
        steps = (np.arange(k) == 0).astype(float)
    values = np.concatenate([[0.0], np.cumsum(steps)])[:k]
    ideas = np.arange(m)
    prefixes = itertools.combinations(range(m - 1), k - 1)
    per_block = max(1, _EXACT_MADDS // (max(len(rows), 1) * m))
    first_only = kind is ScoringKind.COVERAGE
    level, held = -1.0, np.empty((0, k), dtype=np.intp)
    while chunk := list(itertools.islice(prefixes, per_block)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), k - 1)
        counts = columns[idx].sum(axis=1)
        scores = (steps[counts] * weights) @ unique + (values[counts] @ weights)[:, None]
        scores[ideas <= idx.max(axis=1, initial=-1)[:, None]] = -1.0
        top = float(scores.max())
        if top < level or (top == level and first_only):
            continue
        which, lasts = np.nonzero(scores == top)
        ties = np.column_stack([idx[which], lasts])[: 1 if first_only else None]
        held = ties if top > level else np.concatenate([held, ties])
        level = top
        while len(held) > _EXACT_CHUNK:
            yield held[:_EXACT_CHUNK]
            held = held[_EXACT_CHUNK:]
    yield held


def _all_subsets(m: int, k: int) -> Iterator[np.ndarray]:
    """Every size-k subset in lexicographic order, ``_EXACT_CHUNK`` a block."""
    combos = itertools.combinations(range(m), k)
    while chunk := list(itertools.islice(combos, _EXACT_CHUNK)):
        yield np.array(chunk, dtype=np.intp)


def exact_order_and_score(approvals: np.ndarray, k: int, kind: ScoringKind) -> tuple[tuple[int, ...], float]:
    """The first lexicographic float maximum over all size-k subsets, and its score.

    A subset's float score is ``harmonic_table(k)[c].sum()`` over the
    per-row approval counts ``c`` of its ideas, or the number of rows with
    ``c > 0`` under coverage, summed over the rows as given. Ties in that
    score go to the subset whose sorted ids come first. Only some subsets
    are float-scored:

    - Integer pass. Every subset is scored exactly, in integers, over the
      distinct rows weighted by their counts; harmonic gains are scaled by
      L = lcm(1..k), so distinct harmonic scores differ by at least 1/L.
      The candidates are the whole tie class at the integer maximum.
    - Certified bound. To first order, a float score lies within
      (n(n+1)/2 + nk)·H_k·2⁻⁵³ of its exact value: n(n+1)/2 for the row
      sum in any order, nk for the rounded table. The bound checked at
      run time, n(n + 1 + 2k)·H_k·2⁻⁵² < 1/L, allows twice the error of
      two scores, which covers the higher-order terms. While it holds,
      floats order any two subsets of different exact score as the exact
      scores do, so the float winner is in the tie class and is its first
      float maximum. Coverage sums are exact, so coverage always qualifies
      and takes the first tie.
    - Fallback. Where the bound fails (from n = 2,299 at k = 20, and at
      any n ≥ 1 from k = 31), every subset is a candidate.

    Cost: C(m-1, k-1) prefixes, each scored against the m ideas over the
    distinct rows in blocks of about ``_EXACT_MADDS`` multiply-adds, then
    an (n × candidates × k) float pass in blocks of ``_EXACT_CHUNK``. The
    tie class can hold every subset (no approvals, identical columns); the
    float pass then costs what the fallback does.
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
    scale = _certified_scale(n, k, kind)
    blocks = _all_subsets(m, k) if scale is None else _tie_class(approvals, k, kind, scale)
    table = harmonic_table(k)
    best_score, best = -np.inf, ()
    for idx in blocks:
        counts = approvals[:, idx].sum(axis=2)
        if kind is ScoringKind.HARMONIC:
            scores = table[counts].sum(axis=0)
        else:
            scores = (counts > 0).sum(axis=0).astype(float)
        local = int(np.argmax(scores))
        if scores[local] > best_score:
            best_score = float(scores[local])
            best = tuple(int(p) for p in idx[local])
    return best, best_score


def exact_slate(matrix: AttitudeMatrix, k: int, kind: ScoringKind) -> Slate:
    """Exhaustive optimum over all size-k subsets of ideas.

    Refuses instances whose subset count exceeds ``ENUMERATION_CAP`` and
    ``k`` below 1. Among subsets of equal float score, the first by sorted
    idea ids wins. Subsets are scored in integers on the distinct rows, and
    only those tied at the integer maximum are float-scored, unless a
    rounding bound fails; see :func:`exact_order_and_score`.
    """
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
