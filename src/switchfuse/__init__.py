"""Switch-Fuse: per-query Bayesian technique switching plus late fusion
for visual place recognition."""

from .calibration import (
    CalibrationStore,
    LikelihoodHistogram,
    TechniqueCalibration,
    build_store,
    load_store,
    save_store,
)
from .descriptors import (
    DescriptorSet,
    ImageGray,
    compute_descriptor,
    load_descriptor_set,
    save_descriptor_set,
    similarity_block,
)
from .evaluation import (
    EvaluationReport,
    GroundTruth,
    compare_methods,
    pr_points,
    run_method,
    score_outcomes,
)
from .switching import TripartiteConfig, UnitConfig

__version__ = "0.1.0"
