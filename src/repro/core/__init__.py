"""The paper's primary contribution: fault-tolerant cost-based repairing."""

from repro.core.cfd_repair import CFDRepairer
from repro.core.detection import DetectionReport, detect
from repro.core.incremental import IncrementalRepairer
from repro.core.constraints import CFD, FD, PatternRow, parse_fds
from repro.core.distances import (
    DistanceModel,
    Weights,
    jaccard_distance,
    levenshtein,
    normalized_edit_distance,
    normalized_euclidean,
)
from repro.core.engine import ALGORITHMS, Repairer
from repro.core.repair import CellEdit, RepairResult, apply_edits
from repro.core.thresholds import suggest_threshold, suggest_thresholds
from repro.core.violation import (
    FTViolation,
    Pattern,
    group_patterns,
    is_consistent,
    is_consistent_all,
)

__all__ = [
    "FD",
    "CFD",
    "PatternRow",
    "parse_fds",
    "DistanceModel",
    "Weights",
    "levenshtein",
    "normalized_edit_distance",
    "normalized_euclidean",
    "jaccard_distance",
    "Repairer",
    "CFDRepairer",
    "DetectionReport",
    "IncrementalRepairer",
    "detect",
    "ALGORITHMS",
    "CellEdit",
    "RepairResult",
    "apply_edits",
    "suggest_threshold",
    "suggest_thresholds",
    "Pattern",
    "FTViolation",
    "group_patterns",
    "is_consistent",
    "is_consistent_all",
]
