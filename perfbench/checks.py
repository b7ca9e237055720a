"""Output checks computed apart from the program.

Each check recomputes what a correct answer must satisfy from the
benchmark's own copy of the inputs (the generated votes and the answers it
handed out), with plain NumPy, and reports every disagreement as a line of
text. None of them compares against stored output of an earlier run.
"""

from __future__ import annotations

from math import ceil, log, sqrt

import numpy as np

from delib import population


class Problems(list):
    """Failed checks, as readable lines."""

    def require(self, ok, message: str) -> None:
        if not ok:
            self.append(message)


def ingest(problems: Problems, votes, report: dict, matrix, load_report) -> None:
    """The import report and the loaded matrix match the generated votes."""
    n, m = votes.codes.shape
    known = int((votes.codes >= 0).sum())
    expected = {
        "rows_read": votes.rows, "participants_created": n, "ideas_created": m,
        "cells_set": known, "cells_skipped": 0, "passes": votes.passes,
    }
    for key, value in expected.items():
        problems.require(report.get(key) == value, f"import-polis {key} = {report.get(key)}, expected {value}")
    problems.require(matrix.shape == (n, m), f"loaded shape {matrix.shape}, expected {(n, m)}")
    if matrix.shape != (n, m):
        return
    problems.require(np.array_equal(matrix.codes(), votes.codes), "loaded cells differ from the generated votes")
    texts = [idea.text for idea in matrix.ideas]
    problems.require(texts == [f"comment {c}" for c in votes.comment_labels],
                     "idea columns are not the comments in first-appearance order")
    problems.require(load_report.cells_set == known and load_report.cells_skipped == 0,
                     f"load set {load_report.cells_set} cells and skipped {load_report.cells_skipped}")
    problems.require(np.array_equal(matrix.exposures, (votes.codes >= 0).sum(axis=0)),
                     "exposure after load differs from the known cells per idea")


def _in(value, low, high) -> bool:
    return low <= value <= high  # False for NaN


def churn_timeline(problems: Problems, config, timeline) -> None:
    """Bookkeeping identities and metric ranges of a churning loop."""
    model = population.generate_population(config.population, config.population.seed)
    k, budget = config.slate_k, config.query_budget_per_round
    problems.require(len(timeline.rows) == config.rounds, f"{len(timeline.rows)} rounds, expected {config.rounds}")
    served = 0
    for r, row in enumerate(timeline.rows, start=1):
        where = f"{config.routing_policy} seed {config.seed} round {r}"
        n_r = model.n_participants
        m_r = config.initial_ideas + config.ideas_per_round * r
        served += row.queries_served
        problems.require(row.round == r, f"{where}: row numbered {row.round}")
        problems.require(row.queries_served == budget, f"{where}: served {row.queries_served} of {budget}")
        problems.require(row.total_exposure == served, f"{where}: exposure {row.total_exposure} != served {served}")
        problems.require(abs(row.completion_rate * n_r * m_r - served) <= 1e-6,
                         f"{where}: completion {row.completion_rate} on {n_r}x{m_r} != {served} cells")
        problems.require(not row.oracle_exact, f"{where}: exact solver ran under slate_solver=greedy")
        problems.require(_in(row.cluster_recovery, 0.5, 1.0), f"{where}: cluster_recovery {row.cluster_recovery}")
        problems.require(_in(row.slate_symmetric_difference, 0, 2 * k),
                         f"{where}: slate_symmetric_difference {row.slate_symmetric_difference}")
        for name, low, high in (
            ("completion_rate", 0.0, 1.0), ("slate_coverage", 0.0, 1.0), ("support_mae", 0.0, 1.0),
            ("exposure_gini", 0.0, 1.0), ("ranking_displacement", 0.0, m_r - 1.0),
            ("slate_score_estimated", 0.0, np.inf), ("slate_score_oracle", 0.0, np.inf),
        ):
            value = getattr(row, name)
            problems.require(_in(value, low, high), f"{where}: {name} {value} outside [{low}, {high}]")
        population.step_churn(model, r, config.population.seed)


def exact_timeline(problems: Problems, config, timeline) -> None:
    """Full budget and no noise: every round sees the oracle exactly."""
    problems.require(len(timeline.rows) == config.rounds, f"{len(timeline.rows)} rounds, expected {config.rounds}")
    for row in timeline.rows:
        where = f"{config.routing_policy} seed {config.seed} round {row.round}"
        problems.require(row.completion_rate == 1.0, f"{where}: completion {row.completion_rate}")
        problems.require(abs(row.support_mae) <= 1e-12, f"{where}: support_mae {row.support_mae}")
        problems.require(row.slate_symmetric_difference == 0, f"{where}: slates differ")
        problems.require(abs(row.slate_score_estimated - row.slate_score_oracle) <= 1e-9,
                         f"{where}: score {row.slate_score_estimated} != oracle {row.slate_score_oracle}")
        problems.require(row.oracle_exact, f"{where}: oracle slate not exact")


def plan(problems: Problems, plan, codes: np.ndarray, budget: int) -> None:
    """Distinct pairs on unknown cells (everyone is active), as many as fit."""
    pairs = np.asarray(plan.pairs, dtype=np.int64).reshape(-1, 2)
    open_cells = int((codes < 0).sum())
    problems.require(len(pairs) == min(budget, open_cells),
                     f"{plan.policy_name} plan has {len(pairs)} pairs, expected {min(budget, open_cells)}")
    problems.require(len(np.unique(pairs, axis=0)) == len(pairs), f"{plan.policy_name} plan repeats a pair")
    inside = ((pairs >= 0) & (pairs < codes.shape)).all()
    problems.require(inside and (codes[pairs[:, 0], pairs[:, 1]] < 0).all(),
                     f"{plan.policy_name} plan targets a known or missing cell")


def proportional_ranking(problems: Problems, ranking, approvals: np.ndarray) -> None:
    """Each step takes a maximal harmonic gain (to 1e-9) and records it."""
    dense = approvals.astype(float)
    n, m = dense.shape
    order = list(ranking.order)
    problems.require(sorted(order) == list(range(m)), "proportional ranking is not a permutation")
    if sorted(order) != list(range(m)):
        return
    counts = np.zeros(n)
    taken = np.zeros(m, dtype=bool)
    for step, p in enumerate(order):
        gains = (1.0 / (counts + 1.0)) @ dense
        gains[taken] = -np.inf
        if gains[p] < gains.max() - 1e-9 or abs(ranking.provenance[step] - gains[p]) > 1e-9:
            problems.append(f"proportional ranking step {step}: idea {p} gain {gains[p]}, best {gains.max()}")
            return
        taken[p] = True
        counts += dense[:, p]


def elicitation_ranking(problems: Problems, ranking, codes: np.ndarray, weights) -> None:
    """Priorities follow the docstring formula from counts and exposures."""
    m = codes.shape[1]
    approvals = (codes == 1).sum(axis=0)
    responses = (codes >= 0).sum(axis=0)
    exposures = responses  # on desk every exposure is an answered query
    log_term = log(float(exposures.sum()) + 1.0)
    priority = []
    for p in range(m):
        denominator = responses[p] + weights.prior_weight
        mean = (weights.prior_mean if denominator == 0 else
                (approvals[p] + weights.prior_mean * weights.prior_weight) / denominator)
        priority.append(mean + weights.c_explore * sqrt(log_term / (exposures[p] + 1.0)))
    order, provenance = list(ranking.order), list(ranking.provenance)
    problems.require(sorted(order) == list(range(m)), "elicitation ranking is not a permutation")
    if sorted(order) != list(range(m)):
        return
    problems.require(all(abs(provenance[j] - priority[p]) <= 1e-12 for j, p in enumerate(order)),
                     "elicitation priorities differ from the formula")
    problems.require(all((provenance[j], -order[j]) > (provenance[j + 1], -order[j + 1]) for j in range(m - 1)),
                     "elicitation ranking is not sorted by priority, then idea id")


def slate_and_audit(problems: Problems, slate, violations, approvals: np.ndarray, k: int) -> None:
    """Slate score recomputed; the JR audit is sound and complete."""
    n, m = approvals.shape
    ideas = sorted(slate.ideas)
    problems.require(len(ideas) == min(k, m), f"slate has {len(ideas)} ideas, expected {min(k, m)}")
    counts = approvals[:, ideas].sum(axis=1)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, len(ideas) + 1))])
    score = float(harmonic[counts].sum())
    problems.require(abs(score - slate.score) <= 1e-9 * max(1.0, score), f"slate score {slate.score} != {score}")

    deprived = counts == 0
    expected = set()
    for p in range(m):
        members = np.flatnonzero(deprived & approvals[:, p])
        if members.size and members.size >= n / k:
            expected.add(frozenset(members.tolist()))
    reported = {v.group for v in violations}
    problems.require(reported <= expected, "JR audit reports a group that is not a violation")
    problems.require(expected <= reported, "JR audit misses a violating group")
    for v in violations:
        witnesses = set(np.flatnonzero(approvals[sorted(v.group)].all(axis=0)).tolist())
        problems.require(set(v.witness_ideas) == witnesses, "JR witness ideas differ")


def landscape(problems: Problems, scape, codes: np.ndarray, k: int) -> None:
    """Imputation, PCA against eigh, Lloyd fixpoint and blocking coalitions."""
    known = codes >= 0
    values = codes.astype(float)
    for p in range(codes.shape[1]):
        values[~known[:, p], p] = values[known[:, p], p].mean() if known[:, p].any() else 0.5
    problems.require(np.allclose(scape.complete.values, values, rtol=0, atol=1e-12), "imputed values differ")

    components = scape.embedding.components
    d = components.shape[0]
    problems.require(np.allclose(components @ components.T, np.eye(d), rtol=0, atol=1e-9),
                     "principal components are not orthonormal")
    centered = values - values.mean(axis=0)
    scatter = centered.T @ centered
    top = np.linalg.eigh(scatter)[0][::-1][:d]
    variance = np.einsum("dm,mn,dn->d", components, scatter, components)
    problems.require(np.all(np.abs(variance - top) <= 1e-6 * np.abs(top)),
                     f"component variances {variance} differ from eigenvalues {top}")
    points = scape.embedding.points
    problems.require(np.allclose(points, centered @ components.T, rtol=0, atol=1e-8),
                     "embedded points are not the projections")

    clustering = scape.clustering
    centroids, assignment = clustering.centroids, clustering.assignment
    n = points.shape[0]
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    problems.require(np.all(d2[np.arange(n), assignment] <= d2.min(axis=1) + 1e-9),
                     "a point is not assigned to its nearest centroid")
    for c in range(centroids.shape[0]):
        members = points[assignment == c]
        problems.require(members.size and np.allclose(centroids[c], members.mean(axis=0), rtol=0, atol=1e-9),
                         f"centroid {c} is not the mean of its members")
    history = clustering.objective_history
    problems.require(all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:])),
                     "Lloyd objective increased")

    own = np.sqrt(((points - centroids[assignment]) ** 2).sum(axis=1))
    threshold = ceil(n / k)
    for coalition in scape.audit.blocking_coalitions:
        members = np.asarray(coalition.members)
        to_candidate = np.sqrt(((points[members] - points[coalition.candidate]) ** 2).sum(axis=1))
        problems.require(members.size >= threshold and np.all(to_candidate < own[members]),
                         f"coalition at candidate {coalition.candidate} does not block")
