"""Exact-S: optimal single-FD repair via expansion enumeration (Sec. 3.1).

Finds the *best maximal independent set* of the violation graph — the
one whose induced repair (every excluded pattern rewritten to its
cheapest neighbor inside the set) has minimum total cost — which
Theorem 2 shows yields the optimal valid repair. The search runs
independently per connected component of the graph: components share no
edges, so their best sets combine into the global optimum.

The problem is NP-hard (Theorem 3); *max_nodes* caps the expansion tree
and raises :class:`~repro.core.single.mis.ExpansionLimitError` when a
component is too entangled, letting callers fall back to Greedy-S.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph, accumulate_join_counters
from repro.core.repair import RepairResult, apply_edits, edits_from_assignment
from repro.core.single.mis import ExpansionStats, best_maximal_independent_set
from repro.dataset.relation import Relation
from repro.index.simjoin import DEFAULT_JOIN


def repair_single_fd_exact(
    relation: Relation,
    fd: FD,
    model: DistanceModel,
    tau: float,
    prune: bool = True,
    max_nodes: Optional[int] = 200_000,
    join_strategy: str = DEFAULT_JOIN,
    grouping: bool = True,
    registry=None,
) -> RepairResult:
    """Optimal repair of *relation* w.r.t. a single FD.

    Parameters mirror the paper's knobs: *prune* toggles the Eq. (5)/(6)
    bounds, *grouping* the Section 3.1 tuple grouping, *join_strategy*
    the violation-detection filter stack. *registry* shares detection
    indexes with other joins of the same run.
    """
    graph = ViolationGraph.build(
        relation,
        fd,
        model,
        tau,
        join_strategy=join_strategy,
        grouping=grouping,
        registry=registry,
    )
    assignment, cost, stats = solve_graph_exact(graph, prune=prune, max_nodes=max_nodes)
    edits = materialize_pattern_assignment(relation, graph, assignment)
    repaired = apply_edits(relation, edits)
    stats.update(
        {
            "algorithm": "exact-s",
            "graph_vertices": len(graph),
            "graph_edges": graph.edge_count,
        }
    )
    accumulate_join_counters(stats, [graph])
    return RepairResult(repaired, edits, cost, stats)


def solve_graph_exact(
    graph: ViolationGraph,
    prune: bool = True,
    max_nodes: Optional[int] = 200_000,
) -> Tuple[Dict[int, int], float, Dict[str, int]]:
    """Best-MIS repair assignment for a violation graph.

    Returns ``(assignment, cost, stats)`` where *assignment* maps each
    repaired vertex to its target vertex.
    """
    assignment: Dict[int, int] = {}
    total = 0.0
    stats = ExpansionStats()
    for component in graph.connected_components():
        if len(component) == 1:
            continue  # isolated pattern: consistent, keep as-is
        best = best_maximal_independent_set(
            graph, component, prune=prune, max_nodes=max_nodes, stats=stats
        )
        members = set(best)
        for vertex in component:
            if vertex in members:
                continue
            target = graph.best_repair_target(vertex, members)
            assert target is not None  # components have >= 2 vertices
            assignment[vertex] = target
            total += graph.repair_cost(vertex, target)
    return assignment, total, stats.as_dict()


def materialize_pattern_assignment(
    relation: Relation,
    graph: ViolationGraph,
    assignment: Dict[int, int],
):
    """Turn a vertex->vertex repair assignment into cell edits.

    Every tuple carrying a repaired pattern gets the target pattern's
    values over the FD's attributes.
    """
    tid_to_values: Dict[int, Tuple] = {}
    for source, target in assignment.items():
        values = graph.patterns[target].values
        for tid in graph.patterns[source].tids:
            tid_to_values[tid] = values
    return edits_from_assignment(relation, graph.fd.attributes, tid_to_values)
