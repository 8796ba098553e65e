"""Evaluation substrate: metrics, protocol, attacks, experiment suite."""

from .attacks import (
    ProfileCopyAttack,
    SybilRegion,
    inject_profile_copy_attack,
    inject_sybil_region,
)
from .dynamics import (
    AgentChurn,
    ColdStartWave,
    EpochSnapshot,
    EpochState,
    EpochTruth,
    InterestDrift,
    PopulationEvent,
    SybilRingGrowth,
    Timeline,
    TrustSpamCampaign,
)
from .metrics import (
    catalog_coverage,
    f1_score,
    hit_rate,
    kendall_tau,
    mean,
    mean_absolute_error,
    precision_at,
    recall_at,
    spearman_rho,
    standard_error,
    stdev,
)
from .protocol import (
    HoldoutSplit,
    QualityReport,
    Table,
    evaluate_recommender,
    holdout_split,
)
from .significance import (
    ComparisonResult,
    SeriesComparison,
    bootstrap_confidence_interval,
    compare_epoch_series,
    holm_bonferroni,
    paired_permutation_test,
)

# The experiment suites and their registry are imported by the callers
# that run them (repro.cli, scripts/generate_experiments_md.py) to keep
# `import repro.evaluation` light; see repro.evaluation.registry.

__all__ = [
    "AgentChurn",
    "ColdStartWave",
    "ComparisonResult",
    "EpochSnapshot",
    "EpochState",
    "EpochTruth",
    "HoldoutSplit",
    "InterestDrift",
    "PopulationEvent",
    "ProfileCopyAttack",
    "QualityReport",
    "SeriesComparison",
    "SybilRegion",
    "SybilRingGrowth",
    "Table",
    "Timeline",
    "TrustSpamCampaign",
    "bootstrap_confidence_interval",
    "catalog_coverage",
    "compare_epoch_series",
    "evaluate_recommender",
    "f1_score",
    "hit_rate",
    "holdout_split",
    "holm_bonferroni",
    "inject_profile_copy_attack",
    "inject_sybil_region",
    "kendall_tau",
    "mean",
    "mean_absolute_error",
    "paired_permutation_test",
    "precision_at",
    "recall_at",
    "spearman_rho",
    "standard_error",
    "stdev",
]
