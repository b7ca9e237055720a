"""Property tests of the three query planners on random small matrices.

For any matrix, active subset, budget and seed, a plan's pairs are
distinct unknown cells of active participants, in draw order; it fills
min(budget, open cells) with positive position weights; its shortfall is
the unfilled budget; and the same seed replays the same plan. The
planners also draw exactly the plans of the plain per-cell loops kept
here as references, and the array estimator returns, bit for bit, what
the scalar estimator kept here computes for each idea.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delib import (
    AttitudeMatrix,
    ElicitationWeights,
    QueryPlan,
    elicitation_ranking,
    estimate_support,
    plan_ranking_proportional,
    plan_uncertainty,
    plan_uniform,
    wilson_interval,
)
from delib.routing import estimate_all_supports


@st.composite
def planner_inputs(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 6))
    cells = draw(st.lists(st.lists(st.sampled_from([None, None, 0, 1]), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    # a quarter of the matrices leave unknown cells in one idea only
    if m and draw(st.integers(0, 3)) == 0:
        keep = draw(st.integers(0, m - 1))
        cells = [[c if p == keep or c is not None else draw(st.sampled_from([0, 1]))
                  for p, c in enumerate(row)] for row in cells]
    matrix = AttitudeMatrix.from_dense(cells, texts=[f"idea {j}" for j in range(m)])
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        matrix.depart(i)
    # ids past the last participant are requested too: they must be ignored
    active = draw(st.none() | st.sets(st.integers(0, n + 2)))
    budget = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**64 - 1))
    return matrix, active, budget, seed


# -- reference estimator and planners: one Python step per count, cell, idea and draw


def column_counts(matrix, p):
    """(approvals, responses) in column ``p``, counted from the codes."""
    column = matrix.codes()[:, p]
    return int((column == 1).sum()), int((column >= 0).sum())


def reference_wilson(approvals, responses, z=1.959963984540054):
    if responses == 0:
        return 0.0, 1.0
    phat = approvals / responses
    denom = 1.0 + z * z / responses
    center = (phat + z * z / (2 * responses)) / denom
    half = z * math.sqrt(phat * (1 - phat) / responses + z * z / (4 * responses * responses)) / denom
    return center - half, center + half


def reference_estimate(approvals, responses, weights):
    """(mean, ci_low, ci_high): the smoothed mean and the Wilson interval widened to contain it."""
    denominator = responses + weights.prior_weight
    if denominator == 0:
        mean = weights.prior_mean
    else:
        mean = (approvals + weights.prior_mean * weights.prior_weight) / denominator
    low, high = reference_wilson(approvals, responses)
    return mean, min(low, mean), max(high, mean)


def _usable(matrix, active):
    requested = matrix.active_participants if active is None else frozenset(active)
    return sorted(requested & matrix.active_participants)


def _unknown_lists(matrix, usable):
    known = matrix.known_mask()
    return [[i for i in usable if not known[i, p]] for p in range(matrix.n_ideas)]


def reference_uniform(matrix, active, budget, seed):
    known = matrix.known_mask()
    pool = [(i, p) for i in _usable(matrix, active) for p in range(matrix.n_ideas) if not known[i, p]]
    order = np.random.default_rng(seed).permutation(len(pool))
    take = min(budget, len(pool))
    return QueryPlan(tuple(pool[j] for j in order[:take]), "uniform", seed, budget - take)


def reference_ranking(matrix, ranking, active, budget, seed):
    available = _unknown_lists(matrix, _usable(matrix, active))
    weights = np.zeros(matrix.n_ideas)
    for rank, p in enumerate(ranking.order, start=1):
        weights[p] = 1.0 / rank
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(budget):
        open_ideas = [p for p in range(matrix.n_ideas) if available[p]]
        if not open_ideas:
            break
        w = weights[open_ideas]
        total = w.sum()
        p = int(rng.choice(open_ideas, p=w / total))
        candidates = available[p]
        i = candidates[int(rng.integers(len(candidates)))]
        candidates.remove(i)
        pairs.append((i, p))
    return QueryPlan(tuple(pairs), "ranking", seed, budget - len(pairs))


def reference_uncertainty(matrix, active, budget, weights=ElicitationWeights(), *, seed):
    available = _unknown_lists(matrix, _usable(matrix, active))
    m = matrix.n_ideas
    widths, responses, pending = np.empty(m), np.empty(m), np.zeros(m)
    for p in range(m):
        approvals, responses[p] = column_counts(matrix, p)
        _, low, high = reference_estimate(approvals, int(responses[p]), weights)
        widths[p] = high - low
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < budget:
        best, best_width = -1, -1.0
        for p in range(m):
            if not available[p]:
                continue
            effective = widths[p] * math.sqrt((responses[p] + 1) / (responses[p] + 1 + pending[p]))
            if effective > best_width:
                best, best_width = p, effective
        if best < 0:
            break
        candidates = available[best]
        pairs.append((candidates.pop(int(rng.integers(len(candidates)))), best))
        pending[best] += 1
    return QueryPlan(tuple(pairs), "uncertainty", seed, budget - len(pairs))


def _plan(planner, matrix, active, budget, seed):
    if planner == "uniform":
        return plan_uniform(matrix, active, budget, seed)
    if planner == "ranking":
        return plan_ranking_proportional(matrix, elicitation_ranking(matrix), active, budget, seed)
    return plan_uncertainty(matrix, active, budget, seed=seed)


@settings(max_examples=150, deadline=None)
@given(planner_inputs(), st.sampled_from(["uniform", "ranking", "uncertainty"]))
def test_plans_respect_the_routing_invariants(inputs, planner):
    matrix, active, budget, seed = inputs
    usable = matrix.active_participants if active is None else matrix.active_participants & set(active)
    known = matrix.known_mask()
    open_cells = sum(1 for i in usable for p in range(matrix.n_ideas) if not known[i, p])

    plan = _plan(planner, matrix, active, budget, seed)

    assert len(set(plan.pairs)) == len(plan.pairs)
    for i, p in plan.pairs:
        assert type(i) is int and type(p) is int
        assert i in usable
        assert not known[i, p]
    assert len(plan.pairs) == min(budget, open_cells)
    assert plan.shortfall == budget - len(plan.pairs)
    assert plan.seed == seed
    assert _plan(planner, matrix, active, budget, seed) == plan


@settings(max_examples=300, deadline=None)
@given(planner_inputs(), st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0))
def test_planners_draw_the_reference_plans(inputs, c_explore, prior_mean, prior_weight):
    matrix, active, budget, seed = inputs
    weights = ElicitationWeights(c_explore=c_explore, prior_mean=prior_mean, prior_weight=prior_weight)
    ranking = elicitation_ranking(matrix, weights)

    assert plan_uniform(matrix, active, budget, seed) == reference_uniform(matrix, active, budget, seed)
    assert (plan_ranking_proportional(matrix, ranking, active, budget, seed)
            == reference_ranking(matrix, ranking, active, budget, seed))
    assert (plan_uncertainty(matrix, active, budget, weights, seed=seed)
            == reference_uncertainty(matrix, active, budget, weights, seed=seed))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(planner_inputs(), st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0))
def test_estimates_equal_the_scalar_reference_bit_for_bit(inputs, c_explore, prior_mean, prior_weight):
    matrix = inputs[0]
    weights = ElicitationWeights(c_explore=c_explore, prior_mean=prior_mean, prior_weight=prior_weight)
    counts = [column_counts(matrix, p) for p in range(matrix.n_ideas)]
    expected = [reference_estimate(a, r, weights) for a, r in counts]
    estimates = [estimate_support(matrix, p, weights) for p in range(matrix.n_ideas)]
    assert [type(x) for e in estimates for x in (e.mean, e.ci_low, e.ci_high)] == [float] * 3 * len(counts)
    assert _bits([(e.mean, e.ci_low, e.ci_high) for e in estimates]) == _bits(expected)
    assert _bits(estimate_all_supports(matrix, weights)) == _bits([mean for mean, _, _ in expected])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=20))
def test_wilson_interval_on_arrays_equals_the_scalar_reference_bit_for_bit(pairs):
    pairs = [(min(a, r), r) for a, r in pairs]
    expected = [reference_wilson(a, r) for a, r in pairs]
    scalars = [wilson_interval(a, r) for a, r in pairs]
    assert all(type(low) is float and type(high) is float for low, high in scalars)
    assert _bits(scalars) == _bits(expected)
    low, high = wilson_interval(np.array([a for a, _ in pairs], dtype=np.int64),
                                np.array([r for _, r in pairs], dtype=np.int64))
    assert _bits(list(zip(low, high))) == _bits(expected)
