"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Total runtime target is a few minutes on a laptop.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from delib import (
    AttitudeMatrix,
    LoopConfig,
    MixtureComponent,
    PopulationConfig,
    ScoringKind,
    build_landscape,
    elicitation_ranking,
    exact_slate,
    generate_population,
    greedy_slate,
    ground_truth,
    jr_audit,
    kmeans,
    match_accuracy,
    pca_2d,
    plan_ranking_proportional,
    plan_uncertainty,
    plan_uniform,
    proportional_ranking,
    run_loop,
    slate_score,
)
from delib.dataio import export_long_csv, export_wide_csv, import_long_csv, import_wide_csv
from delib.matrix import Attitude

H, C = ScoringKind.HARMONIC, ScoringKind.COVERAGE


def _report(number: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"\nacceptance {number:2d} {name}: FAIL")
        raise
    print(f"\nacceptance {number:2d} {name}: PASS")


def random_instance(rng, n_max=8, m_max=8):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    rows = [
        [int(rng.integers(0, 2)) if rng.random() < 0.7 else None for _ in range(m)]
        for _ in range(n)
    ]
    return AttitudeMatrix.from_dense(rows)


# -- 1: single-participant score curves ---------------------------------------------


def test_criterion_1_score_curves():
    def body():
        harmonic_expected = [0.0, 1.0, 1.5, 1.8333, 2.0833, 2.2833]
        coverage_expected = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        for count, expected in enumerate(harmonic_expected):
            matrix = AttitudeMatrix.from_dense([[1] * max(count, 1)])
            assert slate_score(matrix, range(count), H) == pytest.approx(expected, abs=1e-4)
        for count, expected in enumerate(coverage_expected):
            matrix = AttitudeMatrix.from_dense([[1] * max(count, 1)])
            assert slate_score(matrix, range(count), C) == expected

    _report(1, "single-participant score curves", body)


# -- 2: greedy versus exact ------------------------------------------------------------


def test_criterion_2_greedy_bound():
    def body():
        rng = np.random.default_rng(202)
        bound = 1 - 1 / math.e
        ratios = []
        for _ in range(500):
            matrix = random_instance(rng)
            k = int(rng.integers(1, 4))
            for kind in (H, C):
                greedy = greedy_slate(matrix, k, kind).score
                exact = exact_slate(matrix, k, kind).score
                assert greedy >= bound * exact - 1e-9
                ratios.append(1.0 if exact == 0 else greedy / exact)
        assert float(np.median(ratios)) >= 0.99

    _report(2, "greedy within (1 - 1/e) of exact, median ratio >= 0.99", body)


# -- 3: justified representation -----------------------------------------------------


def synthetic_violation_instances():
    """Bloc constructions whose decoy slates must always be flagged."""
    out = []
    for blocs in (2, 3):
        for size in (1, 2, 3):
            n = blocs * size
            m = blocs + blocs  # one idea per bloc plus decoys
            rows = []
            for i in range(n):
                row = [0] * m
                row[i // size] = 1
                rows.append(row)
            matrix = AttitudeMatrix.from_dense(rows)
            decoys = frozenset(range(blocs, 2 * blocs))
            expected_groups = {
                frozenset(range(j * size, (j + 1) * size)) for j in range(blocs)
            }
            out.append((matrix, decoys, blocs, expected_groups))
    return out


def test_criterion_3_jr_soundness():
    def body():
        rng = np.random.default_rng(303)
        for _ in range(100):
            matrix = random_instance(rng)
            k = int(rng.integers(2, 4))
            slate = exact_slate(matrix, k, H)
            assert jr_audit(matrix, slate) == []
        from delib import Slate

        for matrix, decoys, k, expected_groups in synthetic_violation_instances():
            slate = Slate(ideas=decoys, target_k=k, score=0.0, kind=H)
            found = {violation.group for violation in jr_audit(matrix, slate)}
            assert expected_groups <= found

    _report(3, "exact harmonic slates satisfy justified representation", body)


# -- 4: embedding matches the eigendecomposition oracle --------------------------------


def test_criterion_4_pca_oracle():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(3, 13))
            m = int(rng.integers(2, 13))
            data = rng.random((n, m))
            d = 2 if min(n, m) >= 2 else 1
            embedding = pca_2d(data, d=d)
            centered = data - data.mean(axis=0)
            eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered))
            oracle = eigenvalues.sum() - eigenvalues[-d:].sum()
            assert embedding.objective == pytest.approx(oracle, abs=1e-6)
            explained = (embedding.points**2).sum()
            total = (centered**2).sum()
            assert total == pytest.approx(explained + embedding.objective, abs=1e-8)

    _report(4, "embedding matches eigendecomposition", body)


# -- 5: clustering monotone and deterministic ----------------------------------------


def test_criterion_5_lloyd():
    def body():
        rng = np.random.default_rng(505)
        for seed in range(200):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(1, min(n, 5) + 1))
            points = rng.random((n, 2))
            result = kmeans(points, k, seed=seed)
            history = result.objective_history
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
            rerun = kmeans(points, k, seed=seed)
            assert result.assignment.tobytes() == rerun.assignment.tobytes()
            assert result.centroids.tobytes() == rerun.centroids.tobytes()
            assert result.objective == rerun.objective

    _report(5, "Lloyd objective monotone, clustering byte-deterministic", body)


# -- 6: ranking prefixes are greedy slates ---------------------------------------------


def test_criterion_6_prefix_consistency():
    def body():
        rng = np.random.default_rng(606)
        for _ in range(200):
            matrix = random_instance(rng)
            ranking = proportional_ranking(matrix)
            for k in range(1, matrix.n_ideas + 1):
                slate = greedy_slate(matrix, k, H)
                assert set(ranking.order[:k]) == slate.ideas

    _report(6, "proportional-ranking prefixes equal greedy slates", body)


# -- 7: routing hygiene and position frequencies ----------------------------------------


def test_criterion_7_routing():
    def body():
        rng = np.random.default_rng(707)
        matrix = AttitudeMatrix()
        for _ in range(25):
            matrix.add_participant()
        for j in range(20):
            matrix.add_idea(f"i{j}", 0)
        verified = 0
        step = 0
        while verified < 100_000:
            step += 1
            known = matrix.known_mask()
            active = matrix.active_participants
            policy = step % 3
            if policy == 0:
                plan = plan_uniform(matrix, active, 40, seed=step)
            elif policy == 1:
                plan = plan_ranking_proportional(
                    matrix, elicitation_ranking(matrix), active, 40, seed=step
                )
            else:
                plan = plan_uncertainty(matrix, active, 40, seed=step)
            seen = set()
            for i, p in plan.pairs:
                assert i in active
                assert not known[i, p]
                assert (i, p) not in seen
                seen.add((i, p))
            verified += len(plan.pairs)
            for i, p in plan.pairs[:3]:
                matrix.record_attitude(
                    i, p, Attitude.APPROVE if rng.random() < 0.5 else Attitude.DISAPPROVE,
                    served=True,
                )
            if rng.random() < 0.02 and len(matrix.active_participants) > 5:
                matrix.depart(sorted(matrix.active_participants)[0])
            if step % 6 == 0:
                matrix.add_idea("fresh", sorted(matrix.active_participants)[0])
            if step % 9 == 0:
                matrix.add_participant()

        # position frequencies for m = 5: (1/r) / H_5
        single = AttitudeMatrix()
        single.add_participant()
        for j in range(5):
            single.add_idea(f"i{j}", 0)
        ranking = proportional_ranking(single)
        h5 = sum(1.0 / r for r in range(1, 6))
        counts = np.zeros(5)
        draws = 100_000
        for seed in range(draws):
            plan = plan_ranking_proportional(single, ranking, single.active_participants, 1, seed=seed)
            counts[plan.pairs[0][1]] += 1
        for rank, idea in enumerate(ranking.order, start=1):
            assert abs(counts[idea] / draws - (1.0 / rank) / h5) < 0.02

    _report(7, "plans stay on unknown active pairs; 1/rank frequencies", body)


# -- 8: estimation under incompleteness ---------------------------------------------------


def standard_population(seed):
    return PopulationConfig(
        n0=200,
        approval_radius=3.0,
        mixture=(
            MixtureComponent(0.5, (-3.0, 0.0), 1.0),
            MixtureComponent(0.5, (3.0, 0.0), 1.0),
        ),
        noise_sigma=0.0,
        seed=seed,
    )


def standard_config(seed, policy, budget=400, solver="greedy"):
    return LoopConfig(
        population=standard_population(seed),
        rounds=30,
        query_budget_per_round=budget,
        routing_policy=policy,
        initial_ideas=50,
        slate_k=3,
        slate_solver=solver,
        landscape_k=2,
        seed=seed,
    )


def test_criterion_8_estimation_under_incompleteness():
    def body():
        seeds = range(20)
        for policy in ("uniform", "ranking", "uncertainty"):
            wins = 0
            for seed in seeds:
                timeline = run_loop(standard_config(seed, policy))
                mae = timeline.metric("support_mae")
                wins += mae[-1] < mae[0]
            assert stats.binomtest(wins, len(list(seeds)), 0.5, alternative="greater").pvalue < 0.01

        # full budget, zero noise: the estimated slate is the oracle slate
        # from round 1 on, under the exact solver
        for seed in (0, 1, 2):
            config = standard_config(seed, "uniform", budget=200 * 50, solver="auto")
            timeline = run_loop(config)
            for row in timeline.rows:
                assert row.slate_symmetric_difference == 0
                assert row.slate_score_estimated == pytest.approx(row.slate_score_oracle)
                assert row.support_mae == pytest.approx(0.0, abs=1e-12)

    _report(8, "support error falls with elicitation; full data is oracle-equal", body)


# -- 9: cluster recovery through the full pipeline -----------------------------------------


def test_criterion_9_cluster_recovery():
    def body():
        recoveries = []
        for seed in range(20):
            config = PopulationConfig(
                n0=60,
                approval_radius=3.0,
                mixture=(
                    MixtureComponent(0.5, (-3.0, 0.0), 1.0),  # separation 6 sigma
                    MixtureComponent(0.5, (3.0, 0.0), 1.0),
                ),
                idea_jitter=0.25,
                seed=seed,
            )
            model = generate_population(config, seed)
            rng = np.random.default_rng(seed)
            matrix = AttitudeMatrix()
            for _ in range(60):
                matrix.add_participant()
            for j in range(40):
                author = int(rng.integers(60))
                model.spawn_idea(author, rng)
                matrix.add_idea(f"i{j}", author)
            truth = ground_truth(model)
            cells = [(i, p) for i in range(60) for p in range(40)]
            chosen = rng.permutation(len(cells))[: len(cells) // 2]  # completion 0.5
            for index in chosen:
                i, p = cells[index]
                value = Attitude.APPROVE if truth.matrix[i, p] else Attitude.DISAPPROVE
                matrix.record_attitude(i, p, value, served=True)
            assert matrix.completion_rate() >= 0.5
            scape = build_landscape(matrix, k=2, seed=seed)
            recoveries.append(match_accuracy(scape.clustering.assignment, truth.blocs))
        assert float(np.mean(recoveries)) >= 0.95

    _report(9, "two-bloc recovery >= 95% at half-elicited matrices", body)


# -- 10: round-trips and reproducibility -------------------------------------------------


def test_criterion_10_round_trips(tmp_path):
    def body():
        rng = np.random.default_rng(1010)
        for trial in range(1000):
            n = int(rng.integers(0, 7))
            m = int(rng.integers(1, 7))
            rows = [
                [int(rng.integers(0, 2)) if rng.random() < 0.6 else None for _ in range(m)]
                for _ in range(n)
            ]
            matrix = AttitudeMatrix.from_dense(rows)
            wide = tmp_path / "wide.csv"
            long = tmp_path / "long.csv"
            export_wide_csv(matrix, wide)
            export_long_csv(matrix, long)
            assert import_wide_csv(wide)[0] == matrix
            assert import_long_csv(long)[0] == matrix

        # CLI outputs are a pure function of (input, seed)
        matrix_csv = tmp_path / "matrix.csv"
        matrix_csv.write_text("p,a,b,c\n0,1,,0\n1,1,1,\n2,,0,1\n3,0,1,1\n")
        config = {
            "population": {
                "n0": 6,
                "approval_radius": 3.0,
                "mixture": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": 1.0}],
                "seed": 1,
            },
            "rounds": 2,
            "query_budget_per_round": 6,
            "initial_ideas": 3,
            "slate_k": 1,
            "landscape_k": 2,
            "seed": 4,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        def run(*args):
            result = subprocess.run(
                [sys.executable, "-m", "delib.cli", *args], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        pairs = [
            ("slate", "--k", "2", "--exact", "--input", str(matrix_csv)),
            ("rank", "--mode", "proportional", "--input", str(matrix_csv)),
            ("route", "--policy", "uncertainty", "--budget", "4", "--seed", "5", "--input", str(matrix_csv)),
        ]
        for args in pairs:
            assert run(*args) == run(*args)
        for out_name in ("sim_a", "sim_b"):
            run("simulate", "--config", str(config_path), "--out", str(tmp_path / out_name))
        for name in ("timeline.csv", "summary.json", "timeline_long.csv"):
            assert (tmp_path / "sim_a" / name).read_bytes() == (tmp_path / "sim_b" / name).read_bytes()
        for out_name in ("scape_a", "scape_b"):
            run("landscape", "--k", "2", "--seed", "9", "--input", str(matrix_csv), "--out", str(tmp_path / out_name))
        for name in ("embedding.csv", "components.csv", "audit.json"):
            assert (tmp_path / "scape_a" / name).read_bytes() == (tmp_path / "scape_b" / name).read_bytes()

    _report(10, "matrix formats round-trip; CLI reproducible from (input, seed)", body)
