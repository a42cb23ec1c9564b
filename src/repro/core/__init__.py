"""Core data model for MinUsageTime Dynamic Vector Bin Packing.

Exports the problem's building blocks: items, instances, bins, packings,
intervals, the event stream, and the vector helpers used throughout the
library.
"""

from .errors import (
    AlgorithmError,
    CapacityExceededError,
    CheckpointError,
    ConfigurationError,
    DVBPError,
    InvalidInstanceError,
    InvalidItemError,
    PackingAuditError,
    SolverLimitError,
    UnitFailedError,
)
from .events import Event, EventKind, event_order, event_stream, iter_arrivals
from .instance import Instance
from .intervals import (
    Interval,
    breakpoints,
    intervals_partition,
    merge_intervals,
    total_span,
    union_length,
)
from .items import Item, make_item
from .bins import Bin
from .packing import BinRecord, Packing
from .vectors import EPS, as_size_vector, check_proposition1, fits, fits_batch, l1, linf, lp

__all__ = [
    "AlgorithmError",
    "Bin",
    "BinRecord",
    "CapacityExceededError",
    "CheckpointError",
    "ConfigurationError",
    "DVBPError",
    "EPS",
    "Event",
    "EventKind",
    "Instance",
    "Interval",
    "InvalidInstanceError",
    "InvalidItemError",
    "Item",
    "Packing",
    "PackingAuditError",
    "SolverLimitError",
    "UnitFailedError",
    "as_size_vector",
    "breakpoints",
    "check_proposition1",
    "event_order",
    "event_stream",
    "fits",
    "fits_batch",
    "intervals_partition",
    "iter_arrivals",
    "l1",
    "linf",
    "lp",
    "make_item",
    "merge_intervals",
    "total_span",
    "union_length",
]
