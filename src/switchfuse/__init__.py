"""Switch-Fuse: per-query Bayesian technique switching plus late fusion
for visual place recognition."""

from .calibration import (
    CalibrationStore,
    LikelihoodHistogram,
    PairCalibration,
    TechniqueCalibration,
    build_store,
    calibrate_pair,
    calibrate_technique,
    load_store,
    save_store,
)
from .descriptors import (
    DescriptorSet,
    DescriptorVector,
    ImageGray,
    MatchScore,
    SimilarityVector,
    compute_descriptor,
    load_descriptor_set,
    raw_match_score,
    save_descriptor_set,
    similarity_block,
    similarity_vector,
)
from .evaluation import (
    EvaluationReport,
    GroundTruth,
    Outcomes,
    QueryOutcome,
    compare,
    pr_curve,
    pr_points,
    run_method,
    score_outcomes,
    score_predictions,
)
from .fusion import FusionParams, FusedVector, NormalizedVector, best_match, fuse, normalize
from .switching import (
    ComplementarityScore,
    SelectedTechniques,
    TripartiteConfig,
    UnitConfig,
    UnitDecision,
    complementarity,
    posterior_match,
    run_tripartite,
    select_technique,
)

__version__ = "0.1.0"
