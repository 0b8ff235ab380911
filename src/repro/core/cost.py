"""The repair cost model and repair validity (Section 2.2).

* :func:`tuple_repair_cost` / :func:`database_repair_cost` implement
  Eqs. (3)-(4): unweighted sums of normalized per-attribute distances
  between original and repaired values.
* :func:`is_valid_tuple_repair` / :func:`is_valid_database_repair`
  enforce the **closed-world** model: a repaired tuple's projection on
  each FD must already occur in the *original* database ("valid tuple
  repair"); the repaired database must additionally be FT-consistent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.detection import fd_violations
from repro.dataset.relation import Relation


def tuple_repair_cost(
    model: DistanceModel,
    attributes: Sequence[str],
    original: Sequence,
    repaired: Sequence,
) -> float:
    """Eq. (3): sum of per-attribute distances between two value rows."""
    return model.repair_cost(attributes, tuple(original), tuple(repaired))


def database_repair_cost(
    model: DistanceModel, original: Relation, repaired: Relation
) -> float:
    """Eq. (4): sum of tuple repair costs over the whole instance."""
    if original.schema != repaired.schema or len(original) != len(repaired):
        raise ValueError("relations must share schema and cardinality")
    names = original.schema.names
    total = 0.0
    for tid in original.tids():
        total += model.repair_cost(names, original.row(tid), repaired.row(tid))
    return total


def original_projections(relation: Relation, fd: FD) -> Set[Tuple]:
    """The set of projections of *relation* on *fd* — valid repair targets."""
    bound = fd.bind(relation.schema)
    return {relation.project_indexes(tid, bound.indexes) for tid in relation.tids()}


def is_valid_tuple_repair(
    original: Relation,
    fds: Sequence[FD],
    repaired_row: Dict[str, object],
) -> bool:
    """Closed-world validity of a single repaired tuple.

    For every FD the repaired tuple's projection must exist somewhere in
    the original database (the whole tuple may be new; the projected
    value combination must not be).
    """
    for fd in fds:
        projection = tuple(repaired_row[a] for a in fd.attributes)
        if projection not in original_projections(original, fd):
            return False
    return True


def invalid_repair_tids(
    original: Relation,
    repaired: Relation,
    fds: Sequence[FD],
) -> List[int]:
    """Tuple ids whose repair violates the closed-world model."""
    pools = {fd: original_projections(original, fd) for fd in fds}
    bad: List[int] = []
    for tid in repaired.tids():
        record = repaired.as_record(tid)
        for fd in fds:
            projection = tuple(record[a] for a in fd.attributes)
            if projection not in pools[fd]:
                bad.append(tid)
                break
    return bad


def is_valid_database_repair(
    original: Relation,
    repaired: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
) -> bool:
    """Section 2.2's "valid database repair": closed-world + FT-consistent."""
    if invalid_repair_tids(original, repaired, fds):
        return False
    return not any(
        fd_violations(repaired, fd, model, thresholds[fd])[0] for fd in fds
    )
