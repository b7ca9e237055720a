import numpy as np
import pytest

from delib import (
    AttitudeMatrix,
    ElicitationWeights,
    Ranking,
    ScoringKind,
    elicitation_ranking,
    greedy_slate,
    proportional_ranking,
)


def from_approvals(approval_lists, m):
    rows = [[1 if p in s else 0 for p in range(m)] for s in approval_lists]
    return AttitudeMatrix.from_dense(rows)


def random_instance(rng):
    n = int(rng.integers(1, 8))
    m = int(rng.integers(1, 8))
    rows = [
        [int(rng.integers(0, 2)) if rng.random() < 0.7 else None for _ in range(m)]
        for _ in range(n)
    ]
    return AttitudeMatrix.from_dense(rows)


def test_unanimous_ranking_is_pure_tiebreak():
    m = from_approvals([set(range(5))] * 4, 5)
    assert proportional_ranking(m).order == (0, 1, 2, 3, 4)


def test_two_bloc_prefix_mixes_blocs():
    # 4 participants approve exactly {0,1,2}; 2 approve exactly {3,4,5}
    m = from_approvals([{0, 1, 2}] * 4 + [{3, 4, 5}] * 2, 6)
    ranking = proportional_ranking(m)
    # hand-run: gains 4 (idea 0), then 2 vs 2 tie -> idea 1, then 4/3 vs 2 -> idea 3
    assert ranking.order[:3] == (0, 1, 3)
    prefix = set(ranking.order[:3])
    assert len(prefix & {0, 1, 2}) == 2
    assert len(prefix & {3, 4, 5}) == 1
    assert ranking.provenance[0] == pytest.approx(4.0)
    assert ranking.provenance[1] == pytest.approx(2.0)
    assert ranking.provenance[2] == pytest.approx(2.0)


def test_single_idea_ranking():
    m = from_approvals([{0}], 1)
    assert proportional_ranking(m).order == (0,)


def test_empty_idea_set_rejected():
    m = AttitudeMatrix()
    m.add_participant()
    assert proportional_ranking(m) == Ranking(order=(), provenance=())
    assert proportional_ranking(m) == elicitation_ranking(m)


def test_prefix_consistency_with_greedy_slates():
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = random_instance(rng)
        ranking = proportional_ranking(m)
        for k in range(1, m.n_ideas + 1):
            slate = greedy_slate(m, k, ScoringKind.HARMONIC)
            assert set(ranking.order[:k]) == slate.ideas


def test_two_bloc_proportionality_smoke():
    # majority 2n/3 approves pool 0..5, minority n/3 approves pool 6..11
    n = 9
    majority, minority = 6, 3
    pool = 6
    m = from_approvals(
        [set(range(pool))] * majority + [set(range(pool, 2 * pool))] * minority, 2 * pool
    )
    ranking = proportional_ranking(m)
    for t in (1, 2):
        prefix = set(ranking.order[: 3 * t])
        majority_ideas = len(prefix & set(range(pool)))
        assert abs(majority_ideas - 2 * t) <= 1


def test_exploration_bonus_promotes_unexposed():
    m = from_approvals([{0, 1}, {0, 1}], 2)
    for _ in range(100):
        m.note_exposure(1)
    ranking = elicitation_ranking(m)
    assert ranking.order[0] == 0
    assert ranking.provenance[0] > ranking.provenance[1]


def test_zero_exploration_ranks_by_support():
    rows = [[1, 0, 1], [1, 0, None], [0, 0, 1]]
    m = AttitudeMatrix.from_dense(rows)
    for p in range(3):
        m.note_exposure(p, count=p + 1)
    ranking = elicitation_ranking(m, ElicitationWeights(c_explore=0.0))
    means = [ranking.provenance[ranking.order.index(p)] for p in range(3)]
    assert ranking.order == tuple(sorted(range(3), key=lambda p: (-means[p], p)))
    assert means[0] > means[1]


def test_fresh_matrix_ranks_in_id_order():
    m = AttitudeMatrix()
    m.add_participant()
    for j in range(4):
        m.add_idea(f"i{j}", 0)
    ranking = elicitation_ranking(m)
    assert ranking.order == (0, 1, 2, 3)
    assert len(set(ranking.provenance)) == 1


def test_exposure_cycles_never_starve_any_idea():
    # rank, expose the leader, repeat: every idea must keep accumulating exposure
    rows = [[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]]
    m = AttitudeMatrix.from_dense(rows)
    checkpoints = []
    for cycle in range(400):
        top = elicitation_ranking(m).order[0]
        m.note_exposure(top)
        if cycle in (99, 199, 299, 399):
            checkpoints.append(m.exposures.min())
    assert all(int(x) > 0 for x in checkpoints)
    assert checkpoints == sorted(checkpoints)
    assert checkpoints[-1] > checkpoints[0]
