"""repro — fault-tolerant, cost-based data repairing.

A from-scratch reproduction of *"A Novel Cost-Based Model for Data
Repairing"* (Hao, Tang, Li, He, Ta, Feng — ICDE 2017): functional
dependencies are enforced under a similarity-based violation semantics
("FT-violations"), repairs come from the data's own active domain, and
the minimum-cost repair is found via (maximal-independent-set) search on
a weighted violation graph.

Quickstart::

    from repro import FD, Repairer
    from repro.dataset import citizens_dirty, CITIZENS_FDS, CITIZENS_THRESHOLDS

    repairer = Repairer(CITIZENS_FDS, algorithm="greedy-m",
                        thresholds=CITIZENS_THRESHOLDS)
    result = repairer.repair(citizens_dirty())
    print(result.summary())
    print(result.relation.to_text())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every reproduced table and figure.
"""

from repro.core import (
    ALGORITHMS,
    CFD,
    FD,
    CFDRepairer,
    CellEdit,
    DistanceModel,
    Repairer,
    RepairResult,
    Weights,
    parse_fds,
    suggest_threshold,
    suggest_thresholds,
)
from repro.core.incremental import IncrementalRepairer
from repro.dataset import (
    Attribute,
    Relation,
    Schema,
    ValueDictionary,
    read_csv,
    write_csv,
)
from repro.discovery import discover_fds
from repro.exec import (
    DegradedRepairWarning,
    ExecutionStats,
    RepairConfig,
    RepairExecutor,
)

__version__ = "2.9.0"

__all__ = [
    "FD",
    "CFD",
    "parse_fds",
    "Repairer",
    "RepairConfig",
    "RepairExecutor",
    "ExecutionStats",
    "DegradedRepairWarning",
    "CFDRepairer",
    "IncrementalRepairer",
    "discover_fds",
    "RepairResult",
    "CellEdit",
    "DistanceModel",
    "Weights",
    "ALGORITHMS",
    "suggest_threshold",
    "suggest_thresholds",
    "Attribute",
    "Schema",
    "Relation",
    "ValueDictionary",
    "read_csv",
    "write_csv",
    "__version__",
]
