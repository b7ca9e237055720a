import numpy as np
import pytest

from delib import (
    Attitude,
    AttitudeMatrix,
    ElicitationWeights,
    IdentityError,
    MixtureComponent,
    ParameterError,
    PopulationConfig,
    elicitation_ranking,
    estimate_support,
    generate_population,
    plan_ranking_proportional,
    plan_uncertainty,
    plan_uniform,
    proportional_ranking,
    sample_attitudes,
    wilson_interval,
)

A, D = Attitude.APPROVE, Attitude.DISAPPROVE


def matrix_with_column(approve, disapprove, n_extra_rows=0):
    rows = [[1]] * approve + [[0]] * disapprove + [[None]] * n_extra_rows
    return AttitudeMatrix.from_dense(rows)


def oracle_wilson(approve, responses, z=1.959963984540054):
    """Independent endpoints: grid-search the score-test acceptance region."""
    grid = np.linspace(0.0, 1.0, 1_000_001)
    phat = approve / responses
    ok = (phat - grid) ** 2 <= z * z * grid * (1 - grid) / responses + 1e-15
    accepted = grid[ok]
    return float(accepted.min()), float(accepted.max())


# -- estimation ---------------------------------------------------------------


def test_estimate_prior_smoothed_mean():
    m = matrix_with_column(3, 1)
    est = estimate_support(m, 0)
    assert est.mean == pytest.approx((3 + 0.5) / (4 + 1))
    assert est.sample_size == 4
    assert est.ci_low <= est.mean <= est.ci_high


def test_estimate_no_responses_is_pure_prior():
    m = matrix_with_column(0, 0, n_extra_rows=3)
    est = estimate_support(m, 0)
    assert est.mean == 0.5
    assert (est.ci_low, est.ci_high) == (0.0, 1.0)


def test_wilson_matches_independent_grid():
    for approve, responses in [(3, 4), (1, 1), (0, 5), (6000, 10000), (9, 10)]:
        low, high = wilson_interval(approve, responses)
        oracle_low, oracle_high = oracle_wilson(approve, responses)
        assert low == pytest.approx(oracle_low, abs=2e-6)
        assert high == pytest.approx(oracle_high, abs=2e-6)


def test_estimate_large_sample_tightens():
    m = matrix_with_column(6000, 4000)
    est = estimate_support(m, 0)
    assert abs(est.mean - 0.6) < 0.01
    assert est.ci_high - est.ci_low < 0.02


def test_estimate_mean_always_inside_interval():
    # a heavy prior can pull the mean outside the raw Wilson interval;
    # the reported interval must be widened to keep containment
    m = matrix_with_column(10, 0)
    est = estimate_support(m, 0, ElicitationWeights(prior_weight=100.0))
    assert est.ci_low <= est.mean <= est.ci_high


def test_estimator_consistency_over_seeds():
    q = 0.6
    hits = 0
    trials = 300
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        draws = rng.random(1000) < q
        rows = [[1] if d else [0] for d in draws]
        m = AttitudeMatrix.from_dense(rows)
        est = estimate_support(m, 0)
        hits += abs(est.mean - q) < 0.05
    assert hits / trials >= 0.99


@pytest.mark.parametrize("p", [-1, 2, 5])
def test_estimate_refuses_an_unknown_idea(p):
    m = AttitudeMatrix.from_dense([[1, 0], [None, 1]])
    with pytest.raises(IdentityError, match=f"unknown idea {p}"):
        estimate_support(m, p)


# -- uniform plans ----------------------------------------------------------------


def tiny_matrix():
    # 2 participants x 2 ideas, all unknown
    m = AttitudeMatrix()
    for _ in range(2):
        m.add_participant()
    m.add_idea("a", 0)
    m.add_idea("b", 0)
    return m


def test_uniform_budget_zero():
    m = tiny_matrix()
    plan = plan_uniform(m, m.active_participants, 0, seed=0)
    assert plan.pairs == ()
    assert plan.shortfall == 0


def test_uniform_exhausts_all_unknown_pairs():
    m = tiny_matrix()
    m.record_attitude(0, 0, A)
    plan = plan_uniform(m, m.active_participants, 99, seed=0)
    assert set(plan.pairs) == {(0, 1), (1, 0), (1, 1)}
    assert plan.shortfall == 96


def test_uniform_single_draw_frequencies():
    m = tiny_matrix()
    counts = {}
    draws = 10_000
    for seed in range(draws):
        pair = plan_uniform(m, m.active_participants, 1, seed=seed).pairs[0]
        counts[pair] = counts.get(pair, 0) + 1
    for pair, count in counts.items():
        assert abs(count / draws - 0.25) < 0.02


def test_uniform_determinism():
    m = tiny_matrix()
    assert plan_uniform(m, m.active_participants, 3, seed=7) == plan_uniform(
        m, m.active_participants, 3, seed=7
    )


# -- ranking-proportional plans -------------------------------------------------------


def test_ranking_plan_rank1_frequency():
    m = AttitudeMatrix()
    m.add_participant()
    m.add_idea("a", 0)
    m.add_idea("b", 0)
    ranking = proportional_ranking(m)
    hits = 0
    draws = 20_000
    for seed in range(draws):
        plan = plan_ranking_proportional(m, ranking, m.active_participants, 1, seed=seed)
        hits += plan.pairs[0][1] == ranking.order[0]
    assert abs(hits / draws - (1.0 / 1.5)) < 0.02


def test_ranking_plan_budget_zero_and_shortfall():
    m = tiny_matrix()
    ranking = proportional_ranking(m)
    assert plan_ranking_proportional(m, ranking, m.active_participants, 0, seed=0).pairs == ()
    full = plan_ranking_proportional(m, ranking, m.active_participants, 10, seed=0)
    assert len(full.pairs) == 4
    assert full.shortfall == 6


def test_ranking_plan_rejects_exhausted_ideas():
    m = tiny_matrix()
    ranking = proportional_ranking(m)
    top = ranking.order[0]
    other = ranking.order[1]
    for i in (0, 1):
        m.record_attitude(i, top, A)
    plan = plan_ranking_proportional(m, ranking, m.active_participants, 2, seed=3)
    assert all(p == other for _, p in plan.pairs)


# -- uncertainty plans ------------------------------------------------------------------


def test_uncertainty_prefers_unsampled_idea():
    rows = [[1, None]] * 100
    m = AttitudeMatrix.from_dense(rows)
    plan = plan_uncertainty(m, m.active_participants, 1, seed=0)
    assert plan.pairs[0][1] == 1


def test_uncertainty_ties_break_by_idea_id():
    m = AttitudeMatrix()
    m.add_participant()
    for j in range(3):
        m.add_idea(f"i{j}", 0)
    plan = plan_uncertainty(m, m.active_participants, 3, seed=0)
    assert [p for _, p in plan.pairs] == [0, 1, 2]


def test_uncertainty_max_width_strictly_decreases():
    config = PopulationConfig(
        n0=600,
        approval_radius=2.0,
        mixture=(MixtureComponent(1.0, (0.0, 0.0), 1.0),),
        seed=9,
    )
    model = generate_population(config, 9)
    matrix = AttitudeMatrix()
    for _ in range(600):
        matrix.add_participant()
    rng = np.random.default_rng(1)
    for j in range(5):
        author = int(rng.integers(600))
        model.spawn_idea(author, rng)
        matrix.add_idea(f"i{j}", author)

    def max_width():
        return max(
            estimate_support(matrix, p).ci_high - estimate_support(matrix, p).ci_low
            for p in range(matrix.n_ideas)
        )

    widths = [max_width()]
    for round_index in range(1, 51):
        plan = plan_uncertainty(matrix, matrix.active_participants, 50, seed=round_index)
        for (i, p), attitude in zip(plan.pairs, sample_attitudes(model, plan.pairs, round_index)):
            matrix.record_attitude(i, p, attitude, served=True)
        widths.append(max_width())
    # extra responses can momentarily widen a Wilson interval when the
    # observed rate drifts toward 1/2, so strict decrease is asserted on the
    # 5-round trend rather than between adjacent rounds
    checkpoints = widths[::5]
    assert all(b < a for a, b in zip(checkpoints, checkpoints[1:]))


def test_uncertainty_covers_every_idea_eventually():
    m = AttitudeMatrix()
    for _ in range(8):
        m.add_participant()
    for j in range(4):
        m.add_idea(f"i{j}", 0)
    queried = set()
    for round_index in range(200):
        plan = plan_uncertainty(m, m.active_participants, 1, seed=round_index)
        if not plan.pairs:
            break
        (i, p), = plan.pairs
        queried.add(p)
        m.record_attitude(i, p, A if (i + p) % 2 else D, served=True)
    assert queried == {0, 1, 2, 3}


# -- plan hygiene across policies ---------------------------------------------------------


def test_plans_avoid_known_and_inactive_randomized():
    rng = np.random.default_rng(11)
    m = AttitudeMatrix()
    for _ in range(6):
        m.add_participant()
    for j in range(4):
        m.add_idea(f"i{j}", 0)
    checks = 0
    for step in range(300):
        known = m.known_mask()
        active = m.active_participants
        policy = step % 3
        if policy == 0:
            plan = plan_uniform(m, active, 3, seed=step)
        elif policy == 1:
            plan = plan_ranking_proportional(m, elicitation_ranking(m), active, 3, seed=step)
        else:
            plan = plan_uncertainty(m, active, 3, seed=step)
        seen = set()
        for i, p in plan.pairs:
            assert i in active
            assert not known[i, p]
            assert (i, p) not in seen
            seen.add((i, p))
            checks += 1
        # mutate: answer a pair, occasionally churn and add ideas
        for i, p in plan.pairs[:1]:
            m.record_attitude(i, p, A if rng.random() < 0.5 else D, served=True)
        if rng.random() < 0.05 and len(active) > 2:
            m.depart(sorted(active)[0])
        if step % 5 == 0:
            m.add_idea("late", sorted(m.active_participants)[0])
        if rng.random() < 0.05:
            m.add_participant()
    assert checks > 500


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5])
def test_planners_refuse_seeds_the_generator_refuses(seed):
    matrix = AttitudeMatrix.from_dense([[1, None, None], [None, 0, None]])
    ranking = proportional_ranking(matrix)
    plans = (
        lambda budget, seed: plan_uniform(matrix, None, budget, seed),
        lambda budget, seed: plan_ranking_proportional(matrix, ranking, None, budget, seed),
        lambda budget, seed: plan_uncertainty(matrix, None, budget, seed=seed),
    )
    for plan in plans:
        for budget in (0, 2):  # refused even when nothing would be drawn
            with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
                plan(budget, seed)
        assert len(plan(2, 2**70).pairs) == 2
