"""Fault-tolerant violation semantics (Section 2.1).

Two tuples are in an **FT-violation** w.r.t. an FD ``phi: X -> Y`` when

1. their projections on ``X ∪ Y`` differ, and
2. the weighted projection distance (Eq. 2) is at most the threshold
   ``tau``.

A database is **FT-consistent** w.r.t. ``phi`` when no FT-violating pair
exists, and FT-consistent w.r.t. a set of FDs when it is FT-consistent
w.r.t. each.

Tuples sharing the exact projection behave identically, so detection
works on grouped **patterns** (distinct projections with their
multiplicity and member tuple ids) — the paper's tuple-grouping
optimization (Section 3.1), which also shrinks the violation graph.

Classic (equality-based) violations are provided alongside for the
baselines and for Theorem 1 checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.dataset.relation import Relation


@dataclass(frozen=True)
class Pattern:
    """A distinct projection of the relation on an FD's attributes.

    ``values`` are in ``lhs + rhs`` order; ``tids`` are the tuples that
    carry this projection; ``multiplicity == len(tids)``.

    ``ids`` carries the projection as relation value ids when the
    pattern came from :func:`group_patterns` over a dictionary-encoded
    relation (``None`` for hand-built patterns). By the intern
    invariant, equal id tuples mean equal value tuples, so id-keyed
    consumers (the blocker's partitioning) group identically to
    value-keyed ones. Excluded from equality/hashing: two patterns with
    the same values and tids are the same pattern regardless of the
    relation's id assignment.
    """

    values: Tuple
    tids: Tuple[int, ...]
    ids: Optional[Tuple[int, ...]] = field(default=None, compare=False)

    @property
    def multiplicity(self) -> int:
        return len(self.tids)

    def lhs_values(self, fd: FD) -> Tuple:
        return self.values[: len(fd.lhs)]

    def rhs_values(self, fd: FD) -> Tuple:
        return self.values[len(fd.lhs) :]


def group_patterns(relation: Relation, fd: FD) -> List[Pattern]:
    """Group tuples by their projection on *fd*'s attributes.

    Patterns are ordered by descending multiplicity (ties broken by first
    occurrence), the access order Section 3.1 recommends for the
    expansion algorithm: frequent patterns tend to be correct and make
    good early independent sets for pruning.
    """
    bound = fd.bind(relation.schema)
    indexes = bound.indexes
    project_ids = getattr(relation, "project_ids", None)
    if project_ids is not None:
        # Group on value-id tuples: int hashing instead of re-hashing the
        # raw strings of every tuple, and each distinct projection is
        # decoded exactly once. The intern invariant makes this grouping
        # identical to the value-keyed one.
        by_ids: Dict[Tuple[int, ...], List[int]] = {}
        for tid in relation.tids():
            by_ids.setdefault(project_ids(tid, indexes), []).append(tid)
        patterns = [
            Pattern(relation.project_indexes(tids[0], indexes), tuple(tids), key)
            for key, tids in by_ids.items()
        ]
    else:
        by_values: Dict[Tuple, List[int]] = {}
        for tid in relation.tids():
            key = relation.project_indexes(tid, indexes)
            by_values.setdefault(key, []).append(tid)
        patterns = [
            Pattern(values, tuple(tids)) for values, tids in by_values.items()
        ]
    patterns.sort(key=lambda p: (-p.multiplicity, p.tids[0]))
    return patterns


# ----------------------------------------------------------------------
# Distance with sound cheap filters
# ----------------------------------------------------------------------
def _length_lower_bound(model: DistanceModel, fd: FD, v1: Tuple, v2: Tuple) -> float:
    """A cheap lower bound on the weighted projection distance.

    For string attributes ``ned >= |len_a - len_b| / max(len_a, len_b)``;
    numerics and attributes with a distance override (which the length
    bound says nothing about) contribute their exact distance. Summing the
    weighted per-attribute lower bounds lower-bounds Eq. (2), so a pair
    whose bound exceeds tau can be skipped without any edit-distance
    computation.
    """
    total = 0.0
    n_lhs = len(fd.lhs)
    for pos, attr in enumerate(fd.attributes):
        a, b = v1[pos], v2[pos]
        if a == b:
            continue
        weight = model.weights.lhs if pos < n_lhs else model.weights.rhs
        if isinstance(a, str) and not model.has_override(attr):
            la, lb = len(a), len(b)
            longest = la if la > lb else lb
            if longest:
                total += weight * abs(la - lb) / longest
        else:
            total += weight * model.attribute_distance(attr, a, b)
    return total


def projection_distance_within(
    model: DistanceModel,
    fd: FD,
    v1: Tuple,
    v2: Tuple,
    tau: float,
    use_filters: bool = True,
) -> Optional[float]:
    """Eq. (2) distance if it is ``<= tau``, else ``None``.

    With *use_filters* the length lower bound rejects hopeless pairs
    before any edit-distance work, and the exact accumulation aborts as
    soon as the running weighted sum exceeds *tau*.
    """
    if use_filters and _length_lower_bound(model, fd, v1, v2) > tau:
        return None
    total = 0.0
    n_lhs = len(fd.lhs)
    for pos, attr in enumerate(fd.attributes):
        a, b = v1[pos], v2[pos]
        if a == b:
            continue
        weight = model.weights.lhs if pos < n_lhs else model.weights.rhs
        total += weight * model.attribute_distance(attr, a, b)
        if total > tau:
            return None
    return total


class PreparedProjection:
    """One-vs-many Eq. (2): fix the left projection, stream the rights.

    Wraps :meth:`DistanceModel.prepare_distance` comparers — one per FD
    attribute, each with its Myers PEQ table prepared once — so
    verifying one pattern against a whole candidate list (the shape of
    the scan fallback and the greedy conflict loops) pays the per-value
    preparation once instead of per pair. Returned distances, accepted
    pairs, and cache/counter traffic are identical to the pairwise
    :func:`projection_distance_within`.
    """

    __slots__ = ("model", "fd", "values", "_weights", "_exact", "_bound")

    def __init__(self, model: DistanceModel, fd: FD, values: Tuple) -> None:
        self.model = model
        self.fd = fd
        self.values = values
        n_lhs = len(fd.lhs)
        w_lhs, w_rhs = model.weights.lhs, model.weights.rhs
        self._weights = tuple(
            w_lhs if pos < n_lhs else w_rhs for pos in range(len(fd.attributes))
        )
        self._exact = tuple(
            model.prepare_distance(attr, values[pos])
            for pos, attr in enumerate(fd.attributes)
        )
        # length-bound spec: left lengths resolved once (-1 = the exact
        # distance: non-strings and overridden attributes)
        self._bound = tuple(
            (
                pos,
                attr,
                self._weights[pos],
                values[pos],
                len(values[pos])
                if isinstance(values[pos], str) and not model.has_override(attr)
                else -1,
            )
            for pos, attr in enumerate(fd.attributes)
        )

    def length_lower_bound(self, other: Tuple) -> float:
        """Prepared :func:`_length_lower_bound` — identical arithmetic
        (same accumulation order), with the left lengths precomputed."""
        total = 0.0
        model = self.model
        for pos, attr, weight, a, la in self._bound:
            b = other[pos]
            if a == b:
                continue
            if la >= 0:
                lb = len(b)
                longest = la if la > lb else lb
                if longest:
                    total += weight * abs(la - lb) / longest
            else:
                total += weight * model.attribute_distance(attr, a, b)
        return total

    def distance_within(
        self, other: Tuple, tau: float, use_filters: bool = True
    ) -> Optional[float]:
        """One-vs-many :func:`projection_distance_within`."""
        if use_filters and self.length_lower_bound(other) > tau:
            return None
        total = 0.0
        values = self.values
        weights = self._weights
        exact = self._exact
        for pos in range(len(values)):
            a, b = values[pos], other[pos]
            if a == b:
                continue
            total += weights[pos] * exact[pos](b)
            if total > tau:
                return None
        return total


@dataclass(frozen=True)
class FTViolation:
    """An FT-violating pattern pair with its Eq. (2) distance."""

    left: Pattern
    right: Pattern
    distance: float


def ft_violation_pairs(
    patterns: Sequence[Pattern],
    fd: FD,
    model: DistanceModel,
    tau: float,
    use_filters: bool = True,
) -> List[FTViolation]:
    """All FT-violating pairs among *patterns* (Section 2.1).

    Distinct patterns necessarily differ somewhere, so condition (1) of
    the definition holds by construction; only the distance test remains.
    """
    violations: List[FTViolation] = []
    for i, left in enumerate(patterns):
        for right in patterns[i + 1 :]:
            dist = projection_distance_within(
                model, fd, left.values, right.values, tau, use_filters
            )
            if dist is not None:
                violations.append(FTViolation(left, right, dist))
    return violations


def iter_tuple_violations(
    relation: Relation,
    fd: FD,
    model: DistanceModel,
    tau: float,
) -> Iterator[Tuple[int, int, float]]:
    """Tuple-level FT-violations ``(tid1, tid2, distance)``, tid1 < tid2.

    Expands pattern-level violations back to tuples; useful for
    reporting and for small examples. Quadratic in group sizes — prefer
    the pattern level for algorithmic work.
    """
    patterns = group_patterns(relation, fd)
    for violation in ft_violation_pairs(patterns, fd, model, tau):
        for t1 in violation.left.tids:
            for t2 in violation.right.tids:
                lo, hi = (t1, t2) if t1 < t2 else (t2, t1)
                yield lo, hi, violation.distance


def is_ft_consistent(
    relation: Relation,
    fd: FD,
    model: DistanceModel,
    tau: float,
) -> bool:
    """Whether *relation* is FT-consistent w.r.t. *fd* at threshold *tau*."""
    patterns = group_patterns(relation, fd)
    for i, left in enumerate(patterns):
        for right in patterns[i + 1 :]:
            if (
                projection_distance_within(model, fd, left.values, right.values, tau)
                is not None
            ):
                return False
    return True


def is_ft_consistent_all(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
) -> bool:
    """FT-consistency w.r.t. a whole set of FDs (``D |= Sigma``)."""
    return all(
        is_ft_consistent(relation, fd, model, thresholds[fd]) for fd in fds
    )


# ----------------------------------------------------------------------
# Classic (equality) semantics, for baselines and Theorem 1
# ----------------------------------------------------------------------
def classic_violation_pairs(relation: Relation, fd: FD) -> List[Tuple[int, int]]:
    """Tuple pairs violating *fd* under standard FD semantics.

    ``(t1, t2)`` violates ``X -> Y`` when ``t1[X] == t2[X]`` but
    ``t1[Y] != t2[Y]``.
    """
    bound = fd.bind(relation.schema)
    by_lhs: Dict[Tuple, List[int]] = {}
    for tid in relation.tids():
        key = relation.project_indexes(tid, bound.lhs_indexes)
        by_lhs.setdefault(key, []).append(tid)
    pairs: List[Tuple[int, int]] = []
    for tids in by_lhs.values():
        if len(tids) < 2:
            continue
        rhs = {tid: relation.project_indexes(tid, bound.rhs_indexes) for tid in tids}
        for i, t1 in enumerate(tids):
            for t2 in tids[i + 1 :]:
                if rhs[t1] != rhs[t2]:
                    pairs.append((t1, t2))
    return pairs


def is_consistent(relation: Relation, fd: FD) -> bool:
    """Classic consistency: every LHS group has a single RHS value."""
    bound = fd.bind(relation.schema)
    seen: Dict[Tuple, Tuple] = {}
    for tid in relation.tids():
        lhs = relation.project_indexes(tid, bound.lhs_indexes)
        rhs = relation.project_indexes(tid, bound.rhs_indexes)
        if lhs in seen:
            if seen[lhs] != rhs:
                return False
        else:
            seen[lhs] = rhs
    return True


def is_consistent_all(relation: Relation, fds: Sequence[FD]) -> bool:
    """Classic consistency w.r.t. a set of FDs."""
    return all(is_consistent(relation, fd) for fd in fds)


def subsumes_classic_threshold(fd: FD, model: DistanceModel) -> float:
    """The Theorem 1 bound ``w_r * |Y|``.

    Any ``tau`` at or above this value makes FT-consistency imply classic
    consistency: a classic violation agrees on X (distance 0 there) and
    its RHS contributes at most ``w_r * |Y|``.
    """
    return model.weights.rhs * len(fd.rhs)
