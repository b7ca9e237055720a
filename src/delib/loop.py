"""Round-based simulator of the idea / attitude / sense-making cycle.

Each round first lets sampled authors contribute ideas, then plans and
serves attitude queries under the configured routing policy, and finally
runs sense-making (slates, rankings, landscape) on the partial matrix,
scoring everything against the population's ground truth. Churn is applied
between rounds. The whole timeline is a pure function of the config.

Sense-making always works on a snapshot of all elicited data, including
rows of departed participants; oracle quantities are computed over the
currently active population only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .landscape import CLUSTER_SPACES, impute_mean, kmeans, pca_2d
from .matrix import AttitudeMatrix
from .population import (
    PopulationConfig,
    PopulationModel,
    _sampled_approvals,
    config_to_dict,
    generate_population,
    ground_truth,
    parse_config,
    step_churn,
)
from .rankings import elicitation_ranking
from .routing import (
    POLICY_NAMES,
    ElicitationWeights,
    QueryPlan,
    estimate_all_supports,
    plan_ranking_proportional,
    plan_uncertainty,
    plan_uniform,
)
from .slates import ScoringKind, _solve_slate, greedy_order, score_from_approvals

_TAG_AUTHORS = 11
_TAG_PLAN = 22
_TAG_LANDSCAPE = 33

_LABEL_CAP = 10  # match_accuracy enumerates label permutations up to this many clusters


@dataclass(frozen=True)
class LoopConfig:
    """Everything one simulated deliberation needs.

    ``weights`` defaults to an unsmoothed estimator (prior_weight 0) so
    that with full elicitation the support estimates match the oracle
    exactly; pass explicit weights to get the smoothed default instead.
    """

    population: PopulationConfig
    rounds: int
    query_budget_per_round: int
    routing_policy: str = "uniform"
    initial_ideas: int = 0
    ideas_per_round: int = 0
    slate_k: int = 3
    scoring: ScoringKind = ScoringKind.HARMONIC
    slate_solver: str = "auto"  # auto | greedy | exact
    landscape_k: int = 2
    landscape_space: str = "embedded"
    weights: ElicitationWeights = field(
        default_factory=lambda: ElicitationWeights(prior_weight=0.0)
    )
    seed: int = 0

    def validate(self) -> None:
        self.population.validate()
        if self.routing_policy not in POLICY_NAMES:
            raise ParameterError(f"unknown routing policy {self.routing_policy!r}")
        if self.slate_solver not in ("auto", "greedy", "exact"):
            raise ParameterError(f"unknown slate solver {self.slate_solver!r}")
        if self.landscape_space not in CLUSTER_SPACES:
            raise ParameterError(f"unknown clustering space {self.landscape_space!r}")
        if self.rounds < 0 or self.query_budget_per_round < 0:
            raise ParameterError("rounds and budget must be non-negative")
        if self.initial_ideas < 0 or self.ideas_per_round < 0:
            raise ParameterError("idea counts must be non-negative")
        if self.slate_k < 1 or self.landscape_k < 1:
            raise ParameterError("slate_k and landscape_k must be positive")
        if max(self.landscape_k, len(self.population.mixture)) > _LABEL_CAP:  # cluster_recovery matches them
            raise ParameterError(f"landscape_k and the number of mixture components may not exceed {_LABEL_CAP}")

    @classmethod
    def from_dict(cls, raw: dict) -> "LoopConfig":
        """Parse the JSON form; a missing or malformed field raises FormatError."""
        return parse_config(cls, raw)

    def to_dict(self) -> dict:
        return config_to_dict(self)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    completion_rate: float
    slate_score_estimated: float
    slate_score_oracle: float
    slate_coverage: float
    slate_symmetric_difference: int
    ranking_displacement: float
    support_mae: float
    cluster_recovery: float
    exposure_gini: float
    queries_served: int
    oracle_exact: bool
    total_exposure: int = 0

    METRIC_FIELDS = (
        "completion_rate",
        "slate_score_estimated",
        "slate_score_oracle",
        "slate_coverage",
        "slate_symmetric_difference",
        "ranking_displacement",
        "support_mae",
        "cluster_recovery",
        "exposure_gini",
        "queries_served",
    )


@dataclass(frozen=True)
class MetricsTimeline:
    policy: str
    seed: int
    rows: tuple[RoundMetrics, ...]
    notes: tuple[str, ...] = ()

    def metric(self, name: str) -> list[float]:
        return [getattr(row, name) for row in self.rows]

    def to_long_rows(self) -> list[tuple[int, str, float]]:
        """(round, metric, value) triples, one per round per metric."""
        out = []
        for row in self.rows:
            for name in RoundMetrics.METRIC_FIELDS:
                out.append((row.round, name, float(getattr(row, name))))
        return out

    def summary(self) -> dict:
        if not self.rows:
            return {"policy": self.policy, "seed": self.seed, "rounds": 0}
        first, last = self.rows[0], self.rows[-1]
        return {
            "policy": self.policy,
            "seed": self.seed,
            "rounds": len(self.rows),
            "final_completion_rate": last.completion_rate,
            "support_mae_first_round": first.support_mae,
            "support_mae_final_round": last.support_mae,
            "final_slate_score_estimated": last.slate_score_estimated,
            "final_slate_score_oracle": last.slate_score_oracle,
            "final_cluster_recovery": last.cluster_recovery,
            "final_exposure_gini": last.exposure_gini,
            "notes": list(self.notes),
        }


# -- metric helpers -----------------------------------------------------------


def exposure_gini(exposures) -> float:
    """Gini coefficient of per-idea exposure; 0 for an empty or flat profile."""
    x = np.sort(np.asarray(exposures, dtype=float))
    n = x.size
    if n == 0 or x.sum() <= 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(((2 * ranks - n - 1) * x).sum() / (n * x.sum()))


def match_accuracy(predicted, truth) -> float:
    """Best label-permutation agreement between two clusterings.

    Enumerates assignments of predicted labels onto true labels over the
    confusion matrix. Both label sequences must have the same length, and
    labels must lie in [0, 10).
    """
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.shape != truth.shape:
        raise ParameterError(f"label sequences differ in shape: {predicted.shape} and {truth.shape}")
    if predicted.size == 0:
        return 1.0
    if min(predicted.min(), truth.min()) < 0:
        raise ParameterError("labels must be non-negative")
    k_pred = int(predicted.max()) + 1
    k_true = int(truth.max()) + 1
    if max(k_pred, k_true) > _LABEL_CAP:
        raise ParameterError(f"label matching is enumerated and capped at {_LABEL_CAP} clusters")
    confusion = np.bincount(predicted * k_true + truth, minlength=k_pred * k_true).reshape(k_pred, k_true)
    best = 0
    if k_pred <= k_true:
        for mapping in itertools.permutations(range(k_true), k_pred):
            best = max(best, sum(confusion[a, mapping[a]] for a in range(k_pred)))
    else:
        for mapping in itertools.permutations(range(k_pred), k_true):
            best = max(best, sum(confusion[mapping[b], b] for b in range(k_true)))
    return float(best / predicted.size)


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([p & ((1 << 63) - 1) for p in parts]).generate_state(1)[0])


# -- the loop itself ------------------------------------------------------------


def _reuse(solved: list, fn, approvals: np.ndarray, *args):
    """``fn(approvals, *args)``, or the result of an entry of ``solved`` with equal inputs.

    ``fn`` is pure, so a reused result is the one a fresh call returns; it is
    shared, so callers treat it as read-only. Shapes are compared before
    contents, so a miss on a grown matrix costs no element compare. The
    call's entry, (fn, args, approvals, result), is appended to ``solved``.
    """
    for entry in solved:
        if entry[:2] == (fn, args) and entry[2].shape == approvals.shape and np.array_equal(entry[2], approvals):
            break
    else:
        entry = (fn, args, approvals, fn(approvals, *args))
    solved.append(entry)
    return entry[3]


def plan_for_policy(policy: str, matrix: AttitudeMatrix, budget: int, weights: ElicitationWeights,
                    seed: int) -> QueryPlan:
    """The query plan of a routing policy over the active participants."""
    active = matrix.active_participants
    if policy == "uniform":
        return plan_uniform(matrix, active, budget, seed)
    if policy == "ranking":
        ranking = elicitation_ranking(matrix, weights)
        return plan_ranking_proportional(matrix, ranking, active, budget, seed)
    return plan_uncertainty(matrix, active, budget, weights, seed=seed)


def _sense_making(config: LoopConfig, snap: AttitudeMatrix, model: PopulationModel,
                  round_index: int, queries_served: int, notes: list[str],
                  solved: list | None = None) -> RoundMetrics:
    """Compute one round's metrics from a frozen snapshot.

    - Changes nothing but ``solved`` and the model's cached truth matrix,
      which ``ground_truth`` extends to the model's current size.
    - A slate or full order is reused only for an approval matrix
      bit-identical to one solved this round or in the previous round's
      entries of ``solved`` (see ``_reuse``), so the metrics do not change.
      Entries whose shape no input of this round has cannot match and
      are dropped before any solve.
    """
    solved = [] if solved is None else solved
    truth = ground_truth(model)
    active = list(truth.active)
    truth_active = truth.matrix[active].astype(bool)
    approvals_est = snap.approvals()
    # of the previous round's four entries, keep those an input of this round can equal
    shapes = (approvals_est.shape, truth_active.shape)
    solved[:] = [entry for entry in solved[-4:] if entry[2].shape in shapes]

    slate_args = (config.slate_k, config.scoring, config.slate_solver)
    est_ids, _, _ = _reuse(solved, _solve_slate, approvals_est, *slate_args)
    oracle_ids, oracle_score, oracle_exact = _reuse(solved, _solve_slate, truth_active, *slate_args)
    if not oracle_exact and "oracle-greedy" not in notes:
        notes.append("oracle-greedy")

    est_score_on_truth = score_from_approvals(truth_active, est_ids, config.scoring)
    covered = truth_active[:, sorted(est_ids)].any(axis=1).mean() if est_ids and active else 0.0
    symmetric_difference = len(set(est_ids) ^ set(oracle_ids))

    est_order, _ = _reuse(solved, greedy_order, approvals_est, snap.n_ideas, ScoringKind.HARMONIC)
    oracle_order, _ = _reuse(solved, greedy_order, truth_active, snap.n_ideas, ScoringKind.HARMONIC)
    position_est = np.empty(snap.n_ideas)
    position_oracle = np.empty(snap.n_ideas)
    position_est[est_order] = np.arange(snap.n_ideas)
    position_oracle[oracle_order] = np.arange(snap.n_ideas)
    displacement = float(np.abs(position_est - position_oracle).mean()) if snap.n_ideas else 0.0

    means = estimate_all_supports(snap, config.weights)
    support_mae = float(np.abs(means - truth.support).mean()) if snap.n_ideas and active else float("nan")

    # the landscape needs a 2-d embedding: at least two participants and
    # two ideas, and no more clusters than participants
    if snap.n_participants >= 2 and snap.n_ideas >= 2 and config.landscape_k <= snap.n_participants:
        # build_landscape's clustering, without its fairness audit (and its PCA in the full space)
        complete = impute_mean(snap)
        points = pca_2d(complete).points if config.landscape_space == "embedded" else complete.values
        clustering = kmeans(points, config.landscape_k, _derive_seed(config.seed, _TAG_LANDSCAPE, round_index))
        recovery = match_accuracy(clustering.assignment, truth.blocs[: snap.n_participants])
    else:
        recovery = float("nan")

    return RoundMetrics(
        round=round_index,
        completion_rate=snap.completion_rate() if snap.n_participants and snap.n_ideas else 0.0,
        slate_score_estimated=est_score_on_truth,
        slate_score_oracle=oracle_score,
        slate_coverage=float(covered),
        slate_symmetric_difference=symmetric_difference,
        ranking_displacement=displacement,
        support_mae=support_mae,
        cluster_recovery=recovery,
        exposure_gini=exposure_gini(snap.exposures),
        queries_served=queries_served,
        oracle_exact=oracle_exact,
        total_exposure=snap.total_exposure,
    )


def run_loop(config: LoopConfig) -> MetricsTimeline:
    """Simulate the configured number of rounds; see the module docstring."""
    config.validate()
    model = generate_population(config.population, config.population.seed)
    matrix = AttitudeMatrix()
    for _ in range(model.n_participants):
        matrix.add_participant()

    idea_rng = np.random.default_rng(_derive_seed(config.seed, _TAG_AUTHORS))

    def contribute_ideas(count: int) -> None:
        actives = sorted(matrix.active_participants)
        for _ in range(count):
            author = int(idea_rng.choice(actives)) if actives else None
            p = model.spawn_idea(author, idea_rng)
            matrix.add_idea(f"idea {p}", author)

    contribute_ideas(config.initial_ideas)

    notes: list[str] = []
    rows: list[RoundMetrics] = []
    solved: list = []  # solver results that _sense_making may reuse in the next round
    for round_index in range(1, config.rounds + 1):
        contribute_ideas(config.ideas_per_round)

        # planners only read, so the live matrix serves
        plan = plan_for_policy(config.routing_policy, matrix, config.query_budget_per_round, config.weights,
                               _derive_seed(config.seed, _TAG_PLAN, round_index))
        approves = _sampled_approvals(model, plan.pairs, round_index)
        cells = np.array(plan.pairs, dtype=np.intp).reshape(-1, 2)
        matrix._write_cells(cells[:, 0], cells[:, 1], approves.view(np.int8), served=True)

        rows.append(
            _sense_making(config, matrix.snapshot(), model, round_index, len(plan.pairs), notes, solved)
        )

        arrivals, departures = step_churn(model, round_index, config.population.seed)
        for i in sorted(departures):
            matrix.depart(i)
        for _ in sorted(arrivals):
            matrix.add_participant()

    return MetricsTimeline(
        policy=config.routing_policy, seed=config.seed, rows=tuple(rows), notes=tuple(notes)
    )


def compare_policies(config: LoopConfig, policies) -> list[tuple[str, MetricsTimeline]]:
    """Run the same population under each policy; only routing differs."""
    policies = list(policies)
    if not policies:
        raise ParameterError("compare_policies needs at least one policy")
    return [(p, run_loop(replace(config, routing_policy=p))) for p in policies]
