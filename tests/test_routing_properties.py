"""Property tests of the three query planners on random small matrices.

For any matrix, active subset, budget and seed, a plan's pairs are
distinct unknown cells of active participants, in draw order; it fills
min(budget, open cells) with positive position weights; its shortfall is
the unfilled budget; and the same seed replays the same plan. The
planners also draw exactly the plans of the plain per-cell loops kept
here as references.
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
)


@st.composite
def planner_inputs(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 6))
    cells = draw(st.lists(st.lists(st.sampled_from([None, None, 0, 1]), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    matrix = AttitudeMatrix.from_dense(cells, texts=[f"idea {j}" for j in range(m)])
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        matrix.depart(i)
    # ids past the last participant are requested too: they must be ignored
    active = draw(st.none() | st.sets(st.integers(0, n + 2)))
    budget = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**64 - 1))
    return matrix, active, budget, seed


# -- reference planners: one Python step per cell, idea and draw --------------


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


def reference_ranking(matrix, ranking, active, budget, seed, position_weight=lambda r: 1.0 / r):
    available = _unknown_lists(matrix, _usable(matrix, active))
    weights = np.zeros(matrix.n_ideas)
    for rank, p in enumerate(ranking.order, start=1):
        weights[p] = position_weight(rank)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(budget):
        open_ideas = [p for p in range(matrix.n_ideas) if available[p]]
        if not open_ideas:
            break
        w = weights[open_ideas]
        total = w.sum()
        if total <= 0:
            break
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
        est = estimate_support(matrix, p, weights)
        widths[p] = est.ci_high - est.ci_low
        responses[p] = est.sample_size
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


@settings(max_examples=200, deadline=None)
@given(planner_inputs(), st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0))
def test_planners_draw_the_reference_plans(inputs, c_explore, prior_mean, prior_weight):
    matrix, active, budget, seed = inputs
    weights = ElicitationWeights(c_explore=c_explore, prior_mean=prior_mean, prior_weight=prior_weight)
    ranking = elicitation_ranking(matrix, weights)
    steep = lambda r: 1.0 / r**2 if r <= 3 else 0.0

    assert plan_uniform(matrix, active, budget, seed) == reference_uniform(matrix, active, budget, seed)
    assert (plan_ranking_proportional(matrix, ranking, active, budget, seed)
            == reference_ranking(matrix, ranking, active, budget, seed))
    assert (plan_ranking_proportional(matrix, ranking, active, budget, seed, position_weight=steep)
            == reference_ranking(matrix, ranking, active, budget, seed, position_weight=steep))
    assert (plan_uncertainty(matrix, active, budget, weights, seed=seed)
            == reference_uncertainty(matrix, active, budget, weights, seed=seed))
