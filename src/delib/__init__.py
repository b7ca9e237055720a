"""Deliberation-support engine.

Building blocks for platforms that loop between collecting ideas,
collecting attitudes toward those ideas, and feeding an aggregate view
back to the group: a ternary attitude matrix, representative slate
selection with a proportionality audit, proportional and
elicitation-aware rankings, an opinion-landscape pipeline, adaptive query
routing under partial elicitation, and a synthetic-population simulator
that scores all of it against ground truth.
"""

from .errors import (
    CapacityError,
    DelibError,
    FormatError,
    FrozenMatrixError,
    IdentityError,
    NumericalError,
    ParameterError,
    UndefinedRateError,
)
from .landscape import (
    BlockingCoalition,
    Clustering,
    CompleteMatrix,
    Embedding,
    FairnessAudit,
    Landscape,
    build_landscape,
    fairness_audit,
    impute_mean,
    kmeans,
    pca_2d,
)
from .loop import (
    LoopConfig,
    MetricsTimeline,
    RoundMetrics,
    compare_policies,
    exposure_gini,
    match_accuracy,
    run_loop,
)
from .matrix import Attitude, AttitudeMatrix, Idea, IdeaId, ParticipantId
from .population import (
    GroundTruth,
    MixtureComponent,
    PopulationConfig,
    PopulationModel,
    generate_population,
    ground_truth,
    sample_attitudes,
    step_churn,
)
from .rankings import Ranking, elicitation_ranking, proportional_ranking
from .routing import (
    ElicitationWeights,
    QueryPlan,
    SupportEstimate,
    estimate_support,
    plan_ranking_proportional,
    plan_uncertainty,
    plan_uniform,
    wilson_interval,
)
from .slates import (
    ENUMERATION_CAP,
    JrViolation,
    ScoringKind,
    Slate,
    exact_slate,
    greedy_slate,
    jr_audit,
    slate_score,
)

__version__ = "0.1.0"

__all__ = [
    "Attitude",
    "AttitudeMatrix",
    "BlockingCoalition",
    "CapacityError",
    "Clustering",
    "CompleteMatrix",
    "DelibError",
    "ElicitationWeights",
    "Embedding",
    "ENUMERATION_CAP",
    "FairnessAudit",
    "FormatError",
    "FrozenMatrixError",
    "GroundTruth",
    "Idea",
    "IdeaId",
    "IdentityError",
    "JrViolation",
    "Landscape",
    "LoopConfig",
    "MetricsTimeline",
    "MixtureComponent",
    "NumericalError",
    "ParameterError",
    "ParticipantId",
    "PopulationConfig",
    "PopulationModel",
    "QueryPlan",
    "Ranking",
    "RoundMetrics",
    "ScoringKind",
    "Slate",
    "SupportEstimate",
    "UndefinedRateError",
    "build_landscape",
    "compare_policies",
    "elicitation_ranking",
    "estimate_support",
    "exact_slate",
    "exposure_gini",
    "fairness_audit",
    "generate_population",
    "greedy_slate",
    "ground_truth",
    "impute_mean",
    "jr_audit",
    "kmeans",
    "match_accuracy",
    "pca_2d",
    "plan_ranking_proportional",
    "plan_uncertainty",
    "plan_uniform",
    "proportional_ranking",
    "run_loop",
    "sample_attitudes",
    "slate_score",
    "step_churn",
    "wilson_interval",
]
