"""Shared plumbing for the multi-FD repairers.

Once each FD of a connected component has a chosen independent set, the
remaining work is identical across Exact-M / Appro-M / Greedy-M
(Algorithms 3-4, last lines): join the sets into targets, leave alone
every tuple whose per-FD projections all live inside the chosen sets,
and rewrite each remaining ("unresolved") tuple's component attributes
to its nearest target.

Tuples sharing the full component projection behave identically, so the
scan groups them first.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.multi.fdgraph import component_attributes
from repro.core.multi.target_tree import TargetTree
from repro.core.multi.targets import join_targets, nearest_target_naive
from repro.core.repair import CellEdit, edits_from_assignment
from repro.dataset.relation import Relation
from repro.obs import span


def component_projections(
    relation: Relation, attributes: Sequence[str]
) -> Dict[Tuple, List[int]]:
    """Group tuple ids by their projection on *attributes*."""
    indexes = relation.schema.indexes_of(attributes)
    groups: Dict[Tuple, List[int]] = {}
    for tid in relation.tids():
        groups.setdefault(relation.project_indexes(tid, indexes), []).append(tid)
    return groups


def _fd_slices(
    fds: Sequence[FD], attributes: Sequence[str]
) -> List[Tuple[int, ...]]:
    """Positions of each FD's attributes inside the component projection."""
    position = {attr: i for i, attr in enumerate(attributes)}
    return [tuple(position[a] for a in fd.attributes) for fd in fds]


def split_resolved(
    projections: Dict[Tuple, List[int]],
    fds: Sequence[FD],
    attributes: Sequence[str],
    elements_per_fd: Sequence[Sequence[Tuple]],
) -> Tuple[List[Tuple], List[Tuple]]:
    """Partition component projections into (resolved, unresolved).

    A projection is resolved when, for every FD, its induced pattern is
    an element of that FD's chosen independent set.
    """
    slices = _fd_slices(fds, attributes)
    element_sets: List[Set[Tuple]] = [set(e) for e in elements_per_fd]
    resolved: List[Tuple] = []
    unresolved: List[Tuple] = []
    for projection in projections:
        ok = all(
            tuple(projection[i] for i in idx) in members
            for idx, members in zip(slices, element_sets)
        )
        (resolved if ok else unresolved).append(projection)
    return resolved, unresolved


def evaluate_sets(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    elements_per_fd: Sequence[Sequence[Tuple]],
    use_tree: bool = True,
) -> float:
    """Total Eq. (3) cost of repairing with the given independent sets.

    The inner loop of Exact-M's combination scan (Algorithm 3, lines
    13-20): join the sets, then charge every unresolved tuple its
    distance to the nearest target.
    """
    attributes = tuple(component_attributes(fds))
    projections = component_projections(relation, attributes)
    _, unresolved = split_resolved(projections, fds, attributes, elements_per_fd)
    if not unresolved:
        return 0.0
    if use_tree:
        tree = TargetTree(fds, elements_per_fd, model)
        lookup = tree.nearest_target
    else:
        targets = join_targets(fds, elements_per_fd)

        def lookup(values: Tuple):
            return nearest_target_naive(model, targets, values)

    total = 0.0
    for projection in unresolved:
        _, cost = lookup(projection)
        total += cost * len(projections[projection])
    return total


def repair_with_sets(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    elements_per_fd: Sequence[Sequence[Tuple]],
    use_tree: bool = True,
) -> Tuple[List[CellEdit], float, Dict[str, object]]:
    """Materialize the repair induced by the chosen independent sets.

    Returns (cell edits, Eq. (3) cost over the component attributes,
    stats). The input relation is not modified.
    """
    attributes = tuple(component_attributes(fds))
    projections = component_projections(relation, attributes)
    _, unresolved = split_resolved(projections, fds, attributes, elements_per_fd)
    stats: Dict[str, object] = {
        "component_attributes": len(attributes),
        "distinct_projections": len(projections),
        "unresolved_projections": len(unresolved),
    }
    if not unresolved:
        return [], 0.0, stats

    tree: TargetTree | None = None
    with span("targets/build", fds=[fd.name for fd in fds]) as build_span:
        if use_tree:
            tree = TargetTree(fds, elements_per_fd, model)
            lookup = tree.nearest_target
            stats["target_tree_nodes"] = tree.node_count
            build_span.set(kind="tree", nodes=tree.node_count)
        else:
            targets = join_targets(fds, elements_per_fd)
            stats["targets_materialized"] = len(targets)
            build_span.set(kind="materialized", targets=len(targets))

            def lookup(values: Tuple):
                return nearest_target_naive(model, targets, values)

    with span("targets/search", unresolved=len(unresolved)) as search_span:
        tid_to_values: Dict[int, Tuple] = {}
        total = 0.0
        for projection in unresolved:
            target, cost = lookup(projection)
            total += cost * len(projections[projection])
            for tid in projections[projection]:
                tid_to_values[tid] = target.values
        if tree is not None:
            stats.update(tree.counters())
            search_span.set(
                **tree.counters(),
                f_trajectory=[round(f, 6) for f in tree.f_trajectory],
            )
    edits = edits_from_assignment(relation, attributes, tid_to_values)
    return edits, total, stats
