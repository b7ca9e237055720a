import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delib.loop as loop_module
import delib.slates as slates_module

from delib import (
    LoopConfig,
    MixtureComponent,
    ParameterError,
    PopulationConfig,
    ScoringKind,
    compare_policies,
    exposure_gini,
    ground_truth,
    match_accuracy,
    run_loop,
)

TWO_BLOCS = (
    MixtureComponent(0.5, (-4.0, 0.0), 0.5),
    MixtureComponent(0.5, (4.0, 0.0), 0.5),
)


def small_config(**overrides):
    population = overrides.pop(
        "population",
        PopulationConfig(n0=12, approval_radius=3.0, mixture=TWO_BLOCS, seed=3),
    )
    base = dict(
        population=population,
        rounds=4,
        query_budget_per_round=25,
        initial_ideas=6,
        slate_k=2,
        landscape_k=2,
        seed=17,
    )
    base.update(overrides)
    return LoopConfig(**base)


# -- helpers ------------------------------------------------------------------


def test_exposure_gini_limits():
    assert exposure_gini([]) == 0.0
    assert exposure_gini([4, 4, 4, 4]) == pytest.approx(0.0)
    concentrated = exposure_gini([0, 0, 0, 100])
    assert 0.7 < concentrated < 1.0


def test_match_accuracy_label_permutation_invariant():
    truth = [0, 0, 1, 1, 2, 2]
    relabeled = [2, 2, 0, 0, 1, 1]
    assert match_accuracy(relabeled, truth) == 1.0
    assert match_accuracy([0, 0, 0, 1, 1, 1], truth) == pytest.approx(4 / 6)


def test_match_accuracy_caps_cluster_count():
    with pytest.raises(ParameterError):
        match_accuracy(list(range(11)), list(range(11)))


def test_match_accuracy_rejects_mismatched_or_negative_labels():
    with pytest.raises(ParameterError, match="differ in shape"):
        match_accuracy([0, 1, 1, 1], [0, 1])
    with pytest.raises(ParameterError, match="differ in shape"):
        match_accuracy([], [0])
    with pytest.raises(ParameterError, match="non-negative"):
        match_accuracy([0, -1], [0, 1])
    with pytest.raises(ParameterError, match="non-negative"):
        match_accuracy([0, 1], [-1, 1])


def reference_match_accuracy(predicted, truth):
    """The per-pair confusion loop, then the best one-to-one label assignment."""
    k_pred, k_true = max(predicted) + 1, max(truth) + 1
    confusion = [[0] * k_true for _ in range(k_pred)]
    for a, b in zip(predicted, truth):
        confusion[a][b] += 1
    if k_pred <= k_true:
        pairs = (zip(range(k_pred), m) for m in itertools.permutations(range(k_true), k_pred))
    else:
        pairs = (zip(m, range(k_true)) for m in itertools.permutations(range(k_pred), k_true))
    return max(sum(confusion[a][b] for a, b in pairing) for pairing in pairs) / len(predicted)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                                                      st.lists(st.integers(0, 5), min_size=n, max_size=n))))
def test_match_accuracy_equals_the_confusion_loop(labels):
    predicted, truth = labels
    assert match_accuracy(predicted, truth) == reference_match_accuracy(predicted, truth)


def test_config_rejects_more_clusters_than_label_matching_takes():
    # cluster recovery matches at most 10 clusters onto at most 10 blocs
    small_config(landscape_k=10).validate()
    with pytest.raises(ParameterError, match="may not exceed 10"):
        small_config(landscape_k=11).validate()
    eleven = tuple(MixtureComponent(1.0, (float(j), 0.0), 0.5) for j in range(11))
    small_config(population=PopulationConfig(n0=12, approval_radius=3.0, mixture=eleven[:10])).validate()
    with pytest.raises(ParameterError, match="may not exceed 10"):
        small_config(population=PopulationConfig(n0=12, approval_radius=3.0, mixture=eleven)).validate()


# -- the loop -----------------------------------------------------------------


def test_zero_rounds_empty_timeline():
    timeline = run_loop(small_config(rounds=0))
    assert timeline.rows == ()


def test_unknown_policy_rejected():
    with pytest.raises(ParameterError):
        run_loop(small_config(routing_policy="psychic"))


def test_unknown_landscape_space_rejected_before_any_round():
    # no ideas, so no round would ever reach the landscape
    with pytest.raises(ParameterError, match="clustering space"):
        run_loop(small_config(initial_ideas=0, landscape_space="bogus"))


def test_full_budget_noise_free_matches_oracle_from_round_one():
    config = small_config(
        rounds=3,
        query_budget_per_round=12 * 6,  # every pair, every round
        slate_solver="auto",
    )
    timeline = run_loop(config)
    for row in timeline.rows:
        assert row.completion_rate == 1.0
        assert row.slate_symmetric_difference == 0
        assert row.slate_score_estimated == pytest.approx(row.slate_score_oracle)
        assert row.support_mae == pytest.approx(0.0, abs=1e-12)
        assert row.ranking_displacement == pytest.approx(0.0)


def test_oracle_dominates_estimated_slate_every_round():
    for policy in ("uniform", "ranking", "uncertainty"):
        timeline = run_loop(small_config(routing_policy=policy, query_budget_per_round=6))
        for row in timeline.rows:
            assert row.oracle_exact
            assert row.slate_score_oracle >= row.slate_score_estimated - 1e-9


def test_timeline_deterministic():
    a = run_loop(small_config())
    b = run_loop(small_config())
    assert a == b


def test_exposure_accounting():
    config = small_config(rounds=5, query_budget_per_round=9)
    timeline = run_loop(config)
    previous = 0
    for row in timeline.rows:
        assert row.total_exposure - previous == row.queries_served
        assert row.queries_served <= config.query_budget_per_round
        previous = row.total_exposure


def test_metric_ranges():
    timeline = run_loop(small_config(ideas_per_round=1, rounds=5))
    for row in timeline.rows:
        assert 0.0 <= row.completion_rate <= 1.0
        assert 0.0 <= row.slate_coverage <= 1.0
        assert row.slate_symmetric_difference >= 0
        assert row.ranking_displacement >= 0.0
        assert row.support_mae >= 0.0
        assert np.isnan(row.cluster_recovery) or 0.0 <= row.cluster_recovery <= 1.0
        assert 0.0 <= row.exposure_gini <= 1.0


def test_churn_keeps_loop_consistent():
    population = PopulationConfig(
        n0=14,
        approval_radius=3.0,
        mixture=TWO_BLOCS,
        arrival_rate=1.0,
        departure_prob=0.08,
        seed=5,
    )
    timeline = run_loop(small_config(population=population, rounds=6, ideas_per_round=1))
    assert len(timeline.rows) == 6


def test_phase_purity_of_sense_making():
    from delib.loop import _sense_making
    from delib.matrix import AttitudeMatrix
    from delib.population import generate_population

    config = small_config()
    model = generate_population(config.population, config.population.seed)
    matrix = AttitudeMatrix()
    for _ in range(model.n_participants):
        matrix.add_participant()
    rng = np.random.default_rng(0)
    for j in range(4):
        author = int(rng.integers(model.n_participants))
        model.spawn_idea(author, rng)
        matrix.add_idea(f"i{j}", author)
    snap = matrix.snapshot()
    before = (snap.codes().tolist(), snap.exposures.tolist(), snap.shape)
    _sense_making(config, snap, model, 1, 0, [])
    after = (snap.codes().tolist(), snap.exposures.tolist(), snap.shape)
    assert before == after


# -- solver reuse ---------------------------------------------------------------


def _counting(monkeypatch, module, name, counted=lambda approvals, *args: True):
    """Replace ``module.<name>`` by a wrapper; the list counts its calls that ``counted`` selects."""
    calls = []
    inner = getattr(module, name)

    def wrapper(approvals, *args):
        if counted(approvals, *args):
            calls.append(approvals.shape)
        return inner(approvals, *args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _full_order(approvals, steps, kind):
    return steps == approvals.shape[1]


def _criterion_8_population(seed):
    mixture = (MixtureComponent(0.5, (-3.0, 0.0), 1.0), MixtureComponent(0.5, (3.0, 0.0), 1.0))
    return PopulationConfig(n0=200, approval_radius=3.0, mixture=mixture, seed=seed)


@pytest.mark.parametrize("policy", ["uniform", "ranking", "uncertainty"])
def test_full_budget_loop_solves_each_input_once(monkeypatch, policy):
    # criterion 8's full-budget config: every cell is known after round 1 and
    # nothing changes after, so one exact slate and one full order serve both
    # the estimate and the oracle in every round
    config = LoopConfig(population=_criterion_8_population(0), rounds=5, query_budget_per_round=200 * 50,
                        routing_policy=policy, initial_ideas=50, slate_k=3, slate_solver="auto", landscape_k=2)
    exact = _counting(monkeypatch, slates_module, "exact_order_and_score")
    orders = _counting(monkeypatch, loop_module, "greedy_order", _full_order)
    timeline = run_loop(config)
    assert len(timeline.rows) == 5 and all(row.oracle_exact for row in timeline.rows)
    assert exact == [(200, 50)]
    assert orders == [(200, 50)]


def test_churn_loop_solves_every_round_afresh(monkeypatch):
    # new ideas every round change the shape, so nothing can be reused
    population = PopulationConfig(n0=40, approval_radius=3.0, mixture=TWO_BLOCS, noise_sigma=0.5,
                                  arrival_rate=2.0, departure_prob=0.05, seed=5)
    config = small_config(population=population, rounds=6, query_budget_per_round=60, ideas_per_round=2)
    slates = _counting(monkeypatch, loop_module, "_solve_slate")
    orders = _counting(monkeypatch, loop_module, "greedy_order", _full_order)
    timeline = run_loop(config)
    assert len(slates) == len(orders) == 2 * len(timeline.rows) == 12
    assert len(set(slates[::2])) == 6  # one new shape a round


def test_churn_round_keeps_only_entries_of_its_own_shapes(monkeypatch):
    # entries of the previous round whose shape neither of this round's
    # inputs has cannot match, so the store drops them before solving
    population = PopulationConfig(n0=40, approval_radius=3.0, mixture=TWO_BLOCS, noise_sigma=0.5,
                                  arrival_rate=2.0, departure_prob=0.05, seed=5)
    config = small_config(population=population, rounds=6, query_budget_per_round=60, ideas_per_round=2)
    inner = loop_module._sense_making
    stored = []

    def checked(config, snap, model, round_index, queries_served, notes, solved):
        row = inner(config, snap, model, round_index, queries_served, notes, solved)
        truth = ground_truth(model)
        shapes = {snap.shape, (len(truth.active), truth.matrix.shape[1])}
        stored.append((len(solved), {entry[2].shape for entry in solved} <= shapes))
        return row

    monkeypatch.setattr(loop_module, "_sense_making", checked)
    run_loop(config)
    assert stored == [(4, True)] * 6


@pytest.mark.parametrize("initial_ideas, exact", [(6, True), (7, False)])
def test_oracle_goes_greedy_above_the_enumeration_cap(monkeypatch, initial_ideas, exact):
    # the loop reads the cap where slates owns it, so patching it there
    # moves the auto rule's switch to C(6, 3) = 20 subsets
    monkeypatch.setattr(slates_module, "ENUMERATION_CAP", comb(6, 3))
    timeline = run_loop(small_config(rounds=2, initial_ideas=initial_ideas, slate_k=3))
    assert [row.oracle_exact for row in timeline.rows] == [exact, exact]
    assert ("oracle-greedy" in timeline.notes) is not exact


def _recompute(solved, fn, approvals, *args):
    return fn(approvals, *args)


@settings(max_examples=30, deadline=None)
@given(
    noise=st.sampled_from([0.0, 0.5]),
    churn=st.booleans(),
    ideas_per_round=st.sampled_from([0, 1]),
    budget=st.sampled_from([15, 10_000]),
    solver=st.sampled_from(["auto", "greedy", "exact"]),
    scoring=st.sampled_from(list(ScoringKind)),
    seed=st.integers(0, 2**16),
)
def test_reuse_leaves_the_timeline_unchanged(noise, churn, ideas_per_round, budget, solver, scoring, seed):
    population = PopulationConfig(n0=10, approval_radius=3.0, mixture=TWO_BLOCS, noise_sigma=noise,
                                  arrival_rate=1.5 * churn, departure_prob=0.1 * churn, seed=seed)
    config = small_config(population=population, rounds=4, query_budget_per_round=budget, initial_ideas=5,
                          ideas_per_round=ideas_per_round, slate_solver=solver, scoring=scoring, seed=seed)
    reused = repr(run_loop(config))  # repr, so that NaN metrics compare equal
    with mock.patch.object(loop_module, "_reuse", _recompute):
        assert repr(run_loop(config)) == reused


# -- policy comparison -----------------------------------------------------------


def test_compare_policies_single_equals_run_loop():
    config = small_config()
    [(label, timeline)] = compare_policies(config, ["uniform"])
    assert label == "uniform"
    assert timeline == run_loop(config)


def test_compare_policies_duplicates_identical():
    config = small_config()
    results = compare_policies(config, ["uncertainty", "uncertainty"])
    assert results[0][1] == results[1][1]


def test_compare_policies_reports_all_mae_curves():
    config = small_config(rounds=3)
    results = compare_policies(config, ["uniform", "uncertainty"])
    assert {label for label, _ in results} == {"uniform", "uncertainty"}
    for _, timeline in results:
        assert len(timeline.metric("support_mae")) == 3


def test_compare_policies_needs_one():
    with pytest.raises(ParameterError):
        compare_policies(small_config(), [])


@pytest.mark.parametrize("ideas_per_round", [0, 1])
def test_loop_runs_with_fewer_than_two_ideas(ideas_per_round):
    # a one- or zero-idea matrix has no 2-d landscape: the round records
    # NaN cluster recovery instead of aborting the run
    config = LoopConfig(
        population=PopulationConfig(n0=20, approval_radius=3.0),
        rounds=2,
        query_budget_per_round=10,
        ideas_per_round=ideas_per_round,
    )
    timeline = run_loop(config)
    assert len(timeline.rows) == 2
    first = timeline.rows[0]
    assert np.isnan(first.cluster_recovery)
    assert first.queries_served == min(10, 20 * ideas_per_round)
