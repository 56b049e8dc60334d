"""Cold-start threshold estimation for cluster-based collaborative filtering.

The package fits k-means over users' full rating histories, replays each
user's ratings as growing prefixes against the frozen centroids, and locates
the prefix length where cluster assignment stabilizes: the number of ratings
after which a new user stops being a cold-start case.
"""

from .dataset import (
    BY_ITEM_INDEX,
    BY_TIMESTAMP,
    IDENTITY_1_TO_5,
    JESTER_AFFINE,
    NormalizationScheme,
    PrefixOrdering,
    RatingEvents,
    RatingMatrix,
    build_matrix,
    export_canonical_csv,
    filter_min_ratings,
    parse_jester,
    parse_movielens,
    sample_users,
)
from .errors import (
    DegenerateModelError,
    EmptyResultError,
    MethodologyError,
    ParseError,
    RatingRangeError,
)
from .experiment import (
    BreakpointReport,
    IntersectionReport,
    QualityCurve,
    SuccessCurve,
    detect_breakpoint,
    quality_curve,
    regression_intersection,
    split_by_min_count,
    success_curve,
)
from .kmeans import (
    ClusterModel,
    KMeansConfig,
    RestartRecord,
    assign,
    fit,
    load_model,
    n_clusters_from_coeff,
    save_model,
    sse,
)
from .quality import ClusterQuality, davies_bouldin
from .recsys_eval import (
    EvalConfig,
    SweepResult,
    SweepRow,
    average_precision,
    ndcg_at_n,
    sweep_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "BY_ITEM_INDEX",
    "BY_TIMESTAMP",
    "BreakpointReport",
    "ClusterModel",
    "ClusterQuality",
    "DegenerateModelError",
    "EmptyResultError",
    "EvalConfig",
    "IDENTITY_1_TO_5",
    "IntersectionReport",
    "JESTER_AFFINE",
    "KMeansConfig",
    "MethodologyError",
    "NormalizationScheme",
    "ParseError",
    "PrefixOrdering",
    "QualityCurve",
    "RatingEvents",
    "RatingMatrix",
    "RatingRangeError",
    "RestartRecord",
    "SuccessCurve",
    "SweepResult",
    "SweepRow",
    "assign",
    "average_precision",
    "build_matrix",
    "davies_bouldin",
    "detect_breakpoint",
    "export_canonical_csv",
    "filter_min_ratings",
    "fit",
    "load_model",
    "n_clusters_from_coeff",
    "ndcg_at_n",
    "parse_jester",
    "parse_movielens",
    "quality_curve",
    "regression_intersection",
    "sample_users",
    "save_model",
    "split_by_min_count",
    "sse",
    "success_curve",
    "sweep_coefficient",
]
