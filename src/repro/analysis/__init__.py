"""Analysis: empirical ratios, aggregation, sweeps, theory, reporting."""

from .aggregate import SampleStats, summarize
from .augmentation import AugmentationPoint, augmentation_curve, augmented_run
from .competitive import SearchResult, certified_ratio, mutate_instance, random_search
from .proofs import ProofCheck, Theorem2Report, Theorem4Report, verify_theorem2, verify_theorem4
from .report import format_interval_diagram, format_series_chart, format_table
from .sweep import SweepCell, sweep_cell
from .theory import (
    TABLE1,
    BoundEntry,
    any_fit_lower_bound,
    first_fit_upper_bound,
    lower_bound,
    move_to_front_lower_bound,
    move_to_front_upper_bound,
    next_fit_lower_bound,
    next_fit_upper_bound,
    upper_bound,
)

__all__ = [
    "BoundEntry",
    "ProofCheck",
    "SearchResult",
    "Theorem2Report",
    "Theorem4Report",
    "AugmentationPoint",
    "augmentation_curve",
    "augmented_run",
    "certified_ratio",
    "mutate_instance",
    "random_search",
    "verify_theorem2",
    "verify_theorem4",
    "SampleStats",
    "SweepCell",
    "TABLE1",
    "any_fit_lower_bound",
    "first_fit_upper_bound",
    "format_interval_diagram",
    "format_series_chart",
    "format_table",
    "lower_bound",
    "move_to_front_lower_bound",
    "move_to_front_upper_bound",
    "next_fit_lower_bound",
    "next_fit_upper_bound",
    "summarize",
    "sweep_cell",
    "upper_bound",
]
