"""Decision support for inserting an ML pre-screening filter in front of a
slower test-based patch validator.

Given published precision/recall/FPR/latency figures for a binary classifier
and the per-patch time of a traditional validator, the package answers two
planning questions in closed form (how many extra candidate patches are
needed, and how fast the classifier must be for the insertion to pay off) and
cross-checks every closed-form answer with a seeded Monte Carlo simulation.
"""

from pipegate.metrics import (
    ClassifierSpec,
    ConfusionCounts,
    RateTriple,
    bayes_fpr,
    counts_from_rates,
    invert_detector_fpr,
    invert_detector_precision,
    invert_detector_recall,
    precision_at_prevalence,
    swap_labels,
)
from pipegate.bounds import (
    BoundsReport,
    PipelineConfig,
    augmented_time,
    augmented_tp,
    baseline_time,
    baseline_tp,
    evaluate,
    max_model_time,
    min_extra_ratio,
    min_validator_time,
)
from pipegate.catalog import builtin_benchmark, builtin_catalog, load_catalog
from pipegate.simulate import SimConfig, SimOutcome, compare

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "ConfusionCounts",
    "RateTriple",
    "bayes_fpr",
    "counts_from_rates",
    "invert_detector_fpr",
    "invert_detector_precision",
    "invert_detector_recall",
    "precision_at_prevalence",
    "swap_labels",
    "BoundsReport",
    "PipelineConfig",
    "augmented_time",
    "augmented_tp",
    "baseline_time",
    "baseline_tp",
    "evaluate",
    "max_model_time",
    "min_extra_ratio",
    "min_validator_time",
    "builtin_benchmark",
    "builtin_catalog",
    "load_catalog",
    "SimConfig",
    "SimOutcome",
    "compare",
]
