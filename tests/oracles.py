"""Reference implementations that only the tests call.

Each oracle is a slow, obviously-correct version of a production path,
kept so differential suites can assert the fast path reproduces it:

* :func:`levenshtein_two_row` / :func:`levenshtein_banded` — the classic
  DP and Ukkonen's banded DP, against the Myers bit-parallel kernel in
  :mod:`repro.core.distances` (``tests/test_kernels.py``,
  ``tests/test_distances.py``);
* :func:`enumerate_maximal_independent_sets_setbased` — the pre-bitset
  expansion of Section 3.1, against the bitset engine in
  :mod:`repro.core.single.mis` (``tests/test_search_bitset.py``);
* :func:`brute_force_maximal_independent_sets` — subset enumeration,
  against the expansion algorithm (``tests/test_mis.py``);
* :class:`ScalarTargetTree` — the node-object target tree searched one
  scalar distance at a time, against the array-laid
  :class:`repro.core.multi.target_tree.TargetTree`
  (``tests/test_target_tree.py``);
* :func:`scan_detection` — detection by the definition-level pair scan
  :func:`repro.core.violation.ft_violation_pairs`, against the
  similarity join every detection runs (``tests/test_detection.py``,
  ``tests/test_detect.py``);
* :func:`scan_consistent_everywhere` / :func:`scan_repair_record` — the
  per-record repair with the linear consistency scan over every fitted
  element, against the candidate-indexed check of
  :class:`repro.core.incremental.IncrementalRepairer`
  (``tests/test_serve_equivalence.py``, ``tests/test_serve.py``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.constraints import FD
from repro.core.detection import DetectionReport, detection_report
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph
from repro.core.incremental import IncrementalRepairer, _Component
from repro.core.multi.fdgraph import component_attributes
from repro.core.multi.targets import Target, TargetJoinError
from repro.core.repair import CellEdit
from repro.core.single.frontier import (
    ExpansionLimitError,
    ExpansionStats,
    min_outgoing_costs,
)
from repro.core.violation import (
    PreparedProjection,
    ft_violation_pairs,
    group_patterns,
)
from repro.dataset.relation import Relation


# ----------------------------------------------------------------------
# Levenshtein
# ----------------------------------------------------------------------
def levenshtein_two_row(a: str, b: str, upper_bound: Optional[int] = None) -> int:
    """The classic O(len_a * len_b) two-row dynamic program.

    Same early-abort contract as :func:`repro.core.distances.levenshtein`:
    exact whenever the result is ``<= upper_bound``, some value
    ``> upper_bound`` otherwise. The reference the Myers kernel is
    differentially tested and timed against (``tests/test_kernels.py``).
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la > lb:  # keep the inner loop over the shorter string
        a, b, la, lb = b, a, lb, la
    if upper_bound is not None:
        # Bound checks come before the empty-string returns so the
        # degenerate corners (empty vs long, negative bounds) honor the
        # "exact iff result <= upper_bound" contract like every kernel.
        if upper_bound < 0:
            return 1  # distinct strings differ by at least one edit
        if lb - la > upper_bound:
            return upper_bound + 1
    if la == 0:
        return lb
    if lb == 0:
        return la

    previous = list(range(la + 1))
    current = [0] * (la + 1)
    for j in range(1, lb + 1):
        current[0] = j
        bj = b[j - 1]
        row_min = current[0]
        for i in range(1, la + 1):
            cost = 0 if a[i - 1] == bj else 1
            value = min(
                previous[i] + 1,  # delete from b
                current[i - 1] + 1,  # insert into b
                previous[i - 1] + cost,  # substitute
            )
            current[i] = value
            if value < row_min:
                row_min = value
        if upper_bound is not None and row_min > upper_bound:
            return upper_bound + 1
        previous, current = current, previous
    return previous[la]


def levenshtein_banded(a: str, b: str, max_edits: int) -> int:
    """Ukkonen banded edit distance: O(max_edits * min(len_a, len_b)).

    Only the diagonal band ``|i - j| <= max_edits`` of the DP matrix is
    materialized. Any alignment of cost ``<= max_edits`` stays inside
    that band (each cell value is at least ``|i - j|``), so the result
    is **exact whenever it is <= max_edits** and ``max_edits + 1``
    otherwise — the same early-abort contract as
    :func:`repro.core.distances.levenshtein`.

    >>> levenshtein_banded("kitten", "sitting", 5)
    3
    >>> levenshtein_banded("abcdef", "uvwxyz", 2)
    3
    """
    if a == b:
        return 0
    if max_edits < 0:
        return 1  # distinct strings differ by at least one edit
    la, lb = len(a), len(b)
    if la > lb:  # band over the shorter string's axis
        a, b, la, lb = b, a, lb, la
    if lb - la > max_edits:
        return max_edits + 1
    if la == 0:
        return lb  # lb <= max_edits here
    overflow = max_edits + 1
    # previous holds row j-1 for i in [plo, plo + len(previous) - 1]
    plo, previous = 0, list(range(min(la, max_edits) + 1))
    for j in range(1, lb + 1):
        lo = j - max_edits if j > max_edits else 0
        hi = min(la, j + max_edits)
        bj = b[j - 1]
        current: list = []
        row_min = overflow
        phi = plo + len(previous) - 1
        for i in range(lo, hi + 1):
            if i == 0:
                value = j  # lo == 0 implies j <= max_edits
            else:
                cost = 0 if a[i - 1] == bj else 1
                value = previous[i - 1 - plo] + cost if plo <= i - 1 <= phi else overflow
                if plo <= i <= phi:  # deletion (vertical move)
                    up = previous[i - plo] + 1
                    if up < value:
                        value = up
                if i - 1 >= lo:  # insertion (horizontal move)
                    left = current[i - 1 - lo] + 1
                    if left < value:
                        value = left
                if value > overflow:
                    value = overflow
            current.append(value)
            if value < row_min:
                row_min = value
        if row_min > max_edits:
            return overflow
        plo, previous = lo, current
    result = previous[la - plo]
    return result if result <= max_edits else overflow


# ----------------------------------------------------------------------
# Maximal independent sets
# ----------------------------------------------------------------------
def _lower_bound(
    prefix: Sequence[int],
    independent: FrozenSet[int],
    min_out: Dict[int, float],
) -> float:
    """Eq. (5): vertices already excluded must pay their cheapest repair."""
    return sum(min_out[v] for v in prefix if v not in independent)


def _upper_bound(
    graph: ViolationGraph,
    vertices: Sequence[int],
    independent: FrozenSet[int],
) -> float:
    """Eq. (6): the cost of one maximal set that extends ``independent``.

    The set is completed greedily in access order and every outside
    vertex is repaired to its cheapest neighbouring member, as the
    winner scan scores candidates; the completion is itself a
    candidate, hence an upper bound on the optimum.
    """
    members = set(independent)
    for v in vertices:
        if v not in members and not any(
            u in graph.neighbors(v) for u in members
        ):
            members.add(v)
    total = 0.0
    for v in vertices:
        if v in members:
            continue
        adjacency = graph.neighbors(v)
        total += graph.multiplicity(v) * min(
            graph.pair_cost(v, u) for u in members if u in adjacency
        )
    return total


def enumerate_maximal_independent_sets_setbased(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    prune: bool = False,
    max_nodes: Optional[int] = None,
    stats: Optional[ExpansionStats] = None,
) -> List[FrozenSet[int]]:
    """Reference set-based expansion (differential-test oracle).

    The pre-bitset implementation, kept verbatim (modulo the richer
    :class:`ExpansionLimitError`) so the Hypothesis suite can assert the
    production engine reproduces its results, emission order, node
    accounting, and budget-trip point exactly.
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if stats is None:
        stats = ExpansionStats()
    if not order:
        return []
    min_out = min_outgoing_costs(graph, order) if prune else {}

    current: List[FrozenSet[int]] = [frozenset({order[0]})]
    stats.nodes_generated += 1
    best_upper = float("inf")

    for level in range(1, len(order)):
        stats.levels = level
        vertex = order[level]
        # Vertices decided so far (D_i of Eq. 5). `vertex` itself is NOT
        # part of the bound's prefix: it may still join the set at zero
        # cost, so charging its min-out repair would overestimate the
        # bound and prune optimal branches.
        decided = order[:level]
        prefix = order[: level + 1]
        if prune:
            for node in current:
                best_upper = min(best_upper, _upper_bound(graph, order, node))
        next_level: Dict[FrozenSet[int], None] = {}

        def emit(candidate: FrozenSet[int]) -> None:
            if candidate in next_level:
                stats.search_dominance_prunes += 1
                return
            next_level[candidate] = None
            stats.nodes_generated += 1
            if max_nodes is not None and stats.nodes_generated > max_nodes:
                raise ExpansionLimitError(
                    max_nodes, stats.nodes_generated, level
                )

        for node in current:
            if prune and _lower_bound(decided, node, min_out) > best_upper:
                stats.nodes_pruned += 1
                continue
            adjacency = graph.neighbors(vertex)
            if not any(member in adjacency for member in node):
                emit(node | {vertex})
            else:
                emit(node)  # still maximal in the larger prefix
                candidate = graph.consistent_subset(vertex, node) | {vertex}
                if _is_maximal_in_prefix(graph, candidate, prefix):
                    emit(frozenset(candidate))
                else:
                    stats.non_maximal_discarded += 1
        current = list(next_level)
    stats.sets_enumerated = len(current)
    return current


def _is_maximal_in_prefix(
    graph: ViolationGraph, candidate: Set[int], prefix: Sequence[int]
) -> bool:
    """Maximality of *candidate* within the induced prefix subgraph."""
    for v in prefix:
        if v in candidate:
            continue
        adjacency = graph.neighbors(v)
        if not any(member in adjacency for member in candidate):
            return False
    return True


def brute_force_maximal_independent_sets(
    graph: ViolationGraph, vertices: Optional[Sequence[int]] = None
) -> List[FrozenSet[int]]:
    """Reference enumerator by subset expansion (test oracle only).

    Exponential in the vertex count; used to cross-check the expansion
    algorithm on small graphs.
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    results: Set[FrozenSet[int]] = set()

    def extend(candidate: Set[int], remaining: List[int]) -> None:
        if not remaining:
            if _is_maximal_in_prefix(graph, candidate, order):
                results.add(frozenset(candidate))
            return
        vertex, rest = remaining[0], remaining[1:]
        adjacency = graph.neighbors(vertex)
        if not any(member in adjacency for member in candidate):
            extend(candidate | {vertex}, rest)
        extend(candidate, rest)

    if order:
        extend(set(), order)
    return sorted(results, key=lambda s: sorted(s))


# ----------------------------------------------------------------------
# Target tree (Section 5)
# ----------------------------------------------------------------------
class _Node:
    """One target-tree node: an independent-set element plus bookkeeping."""

    __slots__ = ("fd", "element", "children", "assignment", "subtree_values")

    def __init__(
        self, fd: Optional[FD], element: Optional[Tuple], parent: Optional["_Node"]
    ) -> None:
        self.fd = fd
        self.element = element
        self.children: List["_Node"] = []
        #: attributes fixed by the path from the root down to this node
        self.assignment: Dict[str, object] = dict(parent.assignment) if parent else {}
        if fd is not None and element is not None:
            for attr, value in zip(fd.attributes, element):
                self.assignment[attr] = value
        #: per-attribute values appearing in full-depth descendants
        self.subtree_values: Dict[str, Set] = {}


class ScalarTargetTree:
    """The target tree as node objects, searched with scalar distances.

    Same construction (smallest set first, hash-join on shared
    attributes, incomplete branches pruned) and the same best-first
    search on ``f = RDIST + EDIST`` — heap, push-order tie-break and
    float summation order — as the array tree, with one
    :meth:`DistanceModel.prepare_distance` comparison per (attribute,
    node value). ``nodes_visited`` counts as the array tree counts it,
    and ``f_trajectory`` holds the f values the latest search popped.
    The search keeps Algorithm 5's ``f >= C_min`` child prune and counts
    it in ``nodes_pruned``; the array tree has no such branch, because
    ``C_min`` is only set by the leaf that ends the search, and the
    differential test checks that this oracle never prunes.
    """

    def __init__(
        self,
        fds: Sequence[FD],
        elements_per_fd: Sequence[Sequence[Tuple]],
        model: DistanceModel,
    ) -> None:
        self.model = model
        self.attributes: Tuple[str, ...] = tuple(component_attributes(fds))
        order = sorted(range(len(fds)), key=lambda i: (len(elements_per_fd[i]), i))
        self.fds = [fds[i] for i in order]
        self.root = _Node(None, None, None)
        self.nodes_visited = 0
        self.nodes_pruned = 0
        self.f_trajectory: List[float] = []
        frontier = [self.root]
        placed: Set[str] = set()
        for fd, elements in zip(self.fds, [list(elements_per_fd[i]) for i in order]):
            if not elements:
                raise TargetJoinError(f"empty independent set for {fd.name}")
            shared = [
                (pos, attr) for pos, attr in enumerate(fd.attributes) if attr in placed
            ]
            buckets: Dict[Tuple, List[Tuple]] = {}
            for element in elements:
                key = tuple(element[pos] for pos, _ in shared)
                buckets.setdefault(key, []).append(element)
            next_frontier: List[_Node] = []
            for parent in frontier:
                key = tuple(parent.assignment[attr] for _, attr in shared)
                for element in buckets.get(key, ()):
                    child = _Node(fd, element, parent)
                    parent.children.append(child)
                    next_frontier.append(child)
            if not next_frontier:
                raise TargetJoinError(f"no target survives joining {fd.name}")
            placed.update(fd.attributes)
            frontier = next_frontier
        self._prune(self.root, 0)
        self.node_count = self._collect(self.root)

    def _prune(self, node: _Node, depth: int) -> bool:
        if depth == len(self.fds):
            return True
        node.children = [c for c in node.children if self._prune(c, depth + 1)]
        return bool(node.children)

    def _collect(self, node: _Node) -> int:
        count = 1
        values: Dict[str, Set] = {}
        for child in node.children:
            count += self._collect(child)
            assert child.fd is not None and child.element is not None
            for attr, value in zip(child.fd.attributes, child.element):
                values.setdefault(attr, set()).add(value)
            for attr, child_values in child.subtree_values.items():
                values.setdefault(attr, set()).update(child_values)
        node.subtree_values = values
        return count

    def targets(self) -> List[Target]:
        out: List[Target] = []

        def walk(node: _Node, depth: int) -> None:
            if depth == len(self.fds):
                values = tuple(node.assignment[a] for a in self.attributes)
                out.append(Target(self.attributes, values))
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return out

    def nearest_target(self, tuple_values: Sequence) -> Tuple[Target, float]:
        query = dict(zip(self.attributes, tuple_values))
        compare = {
            attr: self.model.prepare_distance(attr, query[attr])
            for attr in self.attributes
        }

        def f(node: _Node) -> float:
            rdist = 0.0
            for attr, value in node.assignment.items():
                rdist += compare[attr](value)
            edist = 0.0
            for attr in self.attributes:
                if attr in node.assignment or not node.subtree_values.get(attr):
                    continue
                edist += min(compare[attr](v) for v in node.subtree_values[attr])
            return rdist + edist

        counter = itertools.count()
        heap: List[Tuple[float, int, int, _Node]] = [(0.0, next(counter), 0, self.root)]
        c_min = float("inf")
        best: Optional[_Node] = None
        self.f_trajectory = []
        while heap:
            f_value, _, depth, node = heapq.heappop(heap)
            if f_value >= c_min:
                break
            self.f_trajectory.append(f_value)
            self.nodes_visited += 1
            if depth == len(self.fds):
                c_min, best = f_value, node
                continue
            for child in node.children:
                f_child = f(child)
                if f_child < c_min:
                    heapq.heappush(heap, (f_child, next(counter), depth + 1, child))
                else:
                    self.nodes_pruned += 1
        assert best is not None
        return (
            Target(self.attributes, tuple(best.assignment[a] for a in self.attributes)),
            c_min,
        )


# ----------------------------------------------------------------------
# FT-violation detection
# ----------------------------------------------------------------------
def scan_detection(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
) -> DetectionReport:
    """The detection report of the quadratic pair scan (Section 2.1)."""
    return detection_report(
        relation,
        fds,
        thresholds,
        {
            fd.name: ft_violation_pairs(
                group_patterns(relation, fd), fd, model, thresholds[fd]
            )
            for fd in fds
        },
    )


# ----------------------------------------------------------------------
# Incremental repair
# ----------------------------------------------------------------------
def scan_consistent_everywhere(
    component: _Component,
    record: Mapping[str, Any],
    thresholds: Dict[FD, float],
) -> bool:
    """No fitted element of *component* FT-violates the record's patterns.

    The linear scan: every element of every FD, each verified with the
    record's pattern prepared once per FD.
    """
    for fd, elements in zip(component.fds, component.elements_per_fd):
        pattern = tuple(record[a] for a in fd.attributes)
        tau = thresholds[fd]
        prepared = PreparedProjection(component._model, fd, pattern)
        for element in elements:
            if element == pattern:
                continue
            if prepared.distance_within(element, tau) is not None:
                return False
    return True


def scan_repair_record(
    repairer: IncrementalRepairer, record: Mapping[str, Any]
) -> Tuple[Dict[str, Any], List[CellEdit]]:
    """:meth:`IncrementalRepairer.repair_record` with the linear scan.

    Updates *repairer*'s fitted sets and record counters as the library
    loop does, but decides each absorb by
    :func:`scan_consistent_everywhere`; it never touches the repairer's
    candidate indexes. Takes valid records only.
    """
    assert repairer._components is not None
    assert repairer._thresholds is not None
    repairer.records_seen += 1
    repaired = dict(record)
    edits: List[CellEdit] = []
    absorbed = False
    for component in repairer._components:
        if component.resolved(repaired):
            continue
        if repairer.absorb and scan_consistent_everywhere(
            component, repaired, repairer._thresholds
        ):
            component.absorb(repaired)
            absorbed = True
            continue
        values = tuple(repaired[a] for a in component.attributes)
        target, _cost = component.tree.nearest_target(values)
        for attr, new in zip(component.attributes, target.values):
            old = repaired[attr]
            if old != new:
                edits.append(CellEdit(0, attr, old, new))
                repaired[attr] = new
    if absorbed:
        repairer.records_absorbed += 1
    if edits:
        repairer.records_repaired += 1
    return repaired, edits
