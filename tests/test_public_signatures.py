"""Pinned parameter names of the public API.

Every name in ``delib.__all__`` and every public ``AttitudeMatrix``
member is listed with the parameter names of its signature, so that
adding, removing or renaming an option shows up as an edit here. Enums,
constants, properties and exceptions without an ``__init__`` of their own
have no parameters to pin and are listed as ``None``.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from enum import Enum
from pathlib import Path

import pytest

import delib
import delib.cli
from delib import AttitudeMatrix

PUBLIC = {
    "Attitude": None,
    "AttitudeMatrix": (),
    "BlockingCoalition": ("candidate", "members"),
    "build_landscape": ("matrix", "k", "seed", "space"),
    "CapacityError": None,
    "Clustering": ("assignment", "centroids", "objective", "objective_history", "seed"),
    "compare_policies": ("config", "policies"),
    "CompleteMatrix": ("values", "imputed_mask"),
    "DelibError": None,
    "elicitation_ranking": ("matrix", "weights"),
    "ElicitationWeights": ("c_explore", "prior_mean", "prior_weight"),
    "Embedding": ("points", "components", "column_means", "objective"),
    "ENUMERATION_CAP": None,
    "estimate_support": ("matrix", "p", "weights"),
    "exact_slate": ("matrix", "k", "kind"),
    "exposure_gini": ("exposures",),
    "fairness_audit": ("clustering", "data"),
    "FairnessAudit": ("centroid_distance", "nearest_other_distance", "blocking_coalitions"),
    "FormatError": ("message", "line", "column"),
    "FrozenMatrixError": None,
    "generate_population": ("config", "seed"),
    "greedy_slate": ("matrix", "k", "kind", "lazy"),
    "ground_truth": ("model",),
    "GroundTruth": ("matrix", "support", "blocs", "active"),
    "Idea": ("id", "text", "author"),
    "IdeaId": None,
    "IdentityError": None,
    "impute_mean": ("matrix",),
    "jr_audit": ("matrix", "slate", "level"),
    "JrViolation": ("group", "witness_ideas", "group_share"),
    "kmeans": ("data", "k", "seed"),
    "Landscape": ("complete", "embedding", "clustering", "audit"),
    "LoopConfig": (
        "population", "rounds", "query_budget_per_round", "routing_policy", "initial_ideas",
        "ideas_per_round", "slate_k", "scoring", "slate_solver", "landscape_k", "landscape_space",
        "weights", "seed",
    ),
    "match_accuracy": ("predicted", "truth"),
    "MetricsTimeline": ("policy", "seed", "rows", "notes"),
    "MixtureComponent": ("weight", "mean", "cov"),
    "NumericalError": None,
    "ParameterError": None,
    "ParticipantId": None,
    "pca_2d": ("complete", "d"),
    "plan_ranking_proportional": ("matrix", "ranking", "active", "budget", "seed"),
    "plan_uncertainty": ("matrix", "active", "budget", "weights", "seed"),
    "plan_uniform": ("matrix", "active", "budget", "seed"),
    "PopulationConfig": (
        "n0", "approval_radius", "latent_dim", "mixture", "noise_sigma", "arrival_rate",
        "departure_prob", "idea_jitter", "seed",
    ),
    "PopulationModel": (
        "config", "seed", "participant_positions", "bloc_labels", "active", "idea_positions",
        "idea_authors",
    ),
    "proportional_ranking": ("matrix",),
    "QueryPlan": ("pairs", "policy_name", "seed", "shortfall"),
    "Ranking": ("order", "provenance"),
    "RoundMetrics": (
        "round", "completion_rate", "slate_score_estimated", "slate_score_oracle", "slate_coverage",
        "slate_symmetric_difference", "ranking_displacement", "support_mae", "cluster_recovery",
        "exposure_gini", "queries_served", "oracle_exact", "total_exposure",
    ),
    "run_loop": ("config",),
    "sample_attitudes": ("model", "pairs", "round_seed"),
    "ScoringKind": None,
    "Slate": ("ideas", "target_k", "score", "kind"),
    "slate_score": ("matrix", "ideas", "kind"),
    "step_churn": ("model", "round_index", "seed"),
    "SupportEstimate": ("idea", "mean", "ci_low", "ci_high", "sample_size"),
    "UndefinedRateError": None,
    "wilson_interval": ("approvals", "responses"),
}

MATRIX_MEMBERS = {
    "active_participants": None,
    "add_idea": ("self", "text", "author"),
    "add_participant": ("self",),
    "approvals": ("self",),
    "audit_log": None,
    "codes": ("self",),
    "column_counts_all": ("self",),
    "completion_rate": ("self",),
    "depart": ("self", "i"),
    "exposures": None,
    "from_dense": ("rows", "texts"),
    "frozen": None,
    "get": ("self", "i", "p"),
    "ideas": None,
    "known_mask": ("self",),
    "n_ideas": None,
    "n_known": None,
    "n_participants": None,
    "note_exposure": ("self", "p", "count"),
    "record_attitude": ("self", "i", "p", "attitude", "served"),
    "shape": None,
    "snapshot": ("self",),
    "total_exposure": None,
}


def _parameters(obj):
    if isinstance(obj, property) or not callable(obj):
        return None
    if isinstance(obj, type) and (
        issubclass(obj, Enum)
        or obj.__module__ == "builtins"  # IdeaId and ParticipantId are int
        or (issubclass(obj, BaseException) and "__init__" not in vars(obj))
    ):
        return None
    return tuple(inspect.signature(obj).parameters)


def _matrix_member(name):
    member = inspect.getattr_static(AttitudeMatrix, name)
    return member if isinstance(member, property) else getattr(AttitudeMatrix, name)


def test_every_public_name_is_pinned():
    assert set(PUBLIC) == set(delib.__all__)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_parameters(name):
    assert _parameters(getattr(delib, name)) == PUBLIC[name]


def test_every_public_matrix_member_is_pinned():
    assert set(MATRIX_MEMBERS) == {name for name in vars(AttitudeMatrix) if not name.startswith("_")}


@pytest.mark.parametrize("name", sorted(MATRIX_MEMBERS))
def test_matrix_member_parameters(name):
    assert _parameters(_matrix_member(name)) == MATRIX_MEMBERS[name]


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/spans.py wraps public names it looks up at run time, so a
    # removed or renamed one would break only a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up there
    spec.loader.exec_module(spans)
    # "matrix" targets are AttitudeMatrix methods
    owners = [(AttitudeMatrix if layer == "matrix" else sys.modules[f"delib.{layer}"], attr)
              for layer, attr, _ in spans.TARGETS]
    originals = [getattr(owner, attr) for owner, attr in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert [getattr(owner, attr) is not fn for (owner, attr), fn in zip(owners, originals)] == [True] * len(owners)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in owners] == originals
