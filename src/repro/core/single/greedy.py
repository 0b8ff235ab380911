"""Greedy-S: approximate single-FD repair (Section 3.2, Algorithm 2).

Grows an *expected best* independent set one vertex at a time:

* the first vertex minimizes the **initial cost** (Eq. 7) — the cost of
  repairing all its neighbors to it;
* every further vertex is a candidate still FT-consistent with the set
  and minimizes the **incremental cost** (Eq. 8) — how much the running
  repair bill changes if it joins: neighbors already covered by the set
  may get a cheaper target (negative contribution), uncovered neighbors
  start paying their way to the newcomer.

The loop ends when no consistent candidate remains, i.e. the set is
maximal; excluded vertices are then repaired to their cheapest neighbor
inside the set. Complexity O(|I| * |V|) on the grouped graph.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph, accumulate_join_counters
from repro.core.repair import RepairResult, apply_edits
from repro.core.single.exact import materialize_pattern_assignment
from repro.dataset.relation import Relation
from repro.index.simjoin import DEFAULT_JOIN
from repro.obs import span


def greedy_independent_set(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    seed_dominant: bool = True,
    counters: Optional[Dict[str, int]] = None,
) -> FrozenSet[int]:
    """Algorithm 2's expected best maximal independent set.

    Operates on the induced subgraph on *vertices* (default: all).

    With ``seed_dominant`` (default), vertices that are multiplicity-
    dominant over their whole neighborhood are admitted first, in
    multiplicity order, before the Eq. (7)/(8) cost loop takes over.
    This extends the paper's frequency-ordering insight (Section 3.1:
    frequent patterns make good early independent sets) from Exact-S's
    access order to the greedy: at high error rates, a true anchor's
    incremental cost is inflated by *foreign* satellites (other groups'
    errors that happen to land near its values and will later be
    repaired to their own anchors), and the raw Eq. (8) ordering can
    myopically crown a cheap typo variant instead. Dominance seeding is
    exact-faithful — a pattern more frequent than everything it
    conflicts with belongs to the optimal set in all but adversarial
    cases — and ``seed_dominant=False`` restores the paper's literal
    greedy (the ablation benches compare both).

    *counters* (optional) accumulates search instrumentation
    (``search_heap_revalidations``) into the caller's stats dict.
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if not order:
        return frozenset()
    with span(
        "greedy/grow", fd=graph.fd.name, vertices=len(order)
    ) as grow_span:
        chosen, revalidations = _grow(graph, order, seed_dominant)
        grow_span.set(
            independent_set_size=len(chosen),
            heap_revalidations=revalidations,
        )
    if counters is not None:
        counters["search_heap_revalidations"] = (
            counters.get("search_heap_revalidations", 0) + revalidations
        )
    return chosen


def _grow(
    graph: ViolationGraph, order: Sequence[int], seed_dominant: bool
) -> Tuple[FrozenSet[int], int]:
    """The Eq. (7)/(8) growth loop behind :func:`greedy_independent_set`.

    Returns ``(chosen set, heap revalidations)``. The growth loop keeps
    candidates in a lazy min-heap keyed by their last computed Eq. (8)
    cost: adding a vertex only changes the incremental cost of
    candidates that share a neighbor with it (the cost reads
    ``current_cost`` solely on the candidate's own neighborhood), so
    only that two-hop ball is recomputed per round instead of the whole
    pool. Stale heap entries — superseded keys, or candidates absorbed
    into conflict — are discarded on pop and counted as revalidations.
    Pop order ``(cost, vertex)`` matches the old full scan's
    ``min(..., key=lambda t: (incremental_cost(t), t))`` tie-break, so
    the chosen sequence is identical.
    """
    allowed = set(order)

    def directed(v: int, u: int) -> float:
        """omega(v, u): repair group v to u's values."""
        return graph.multiplicity(v) * graph.neighbors(v)[u]

    # Isolated vertices join for free and never interact; seed with them.
    chosen: Set[int] = {
        v for v in order if not any(u in allowed for u in graph.neighbors(v))
    }
    candidates: Set[int] = {v for v in order if v not in chosen}
    # current cheapest repair target cost for vertices adjacent to the set
    current_cost: Dict[int, float] = {}

    if seed_dominant and candidates:
        for v in sorted(candidates, key=lambda u: (-graph.multiplicity(u), u)):
            if v not in candidates:
                continue  # absorbed by an earlier dominant pick
            rank = (graph.multiplicity(v), -v)
            neighborhood = [u for u in graph.neighbors(v) if u in allowed]
            if all(
                (graph.multiplicity(u), -u) < rank for u in neighborhood
            ):
                chosen.add(v)
                candidates.discard(v)
                _absorb(graph, v, allowed, candidates, current_cost)

    if not chosen and candidates:
        # Initial cost (Eq. 7): repair every neighbor to the vertex.
        def initial_cost(t: int) -> float:
            return sum(
                directed(v, t) for v in graph.neighbors(t) if v in allowed
            )

        first = min(candidates, key=lambda t: (initial_cost(t), t))
        chosen.add(first)
        candidates.discard(first)
        _absorb(graph, first, allowed, candidates, current_cost)
    elif chosen:
        # The seeded isolated vertices have no neighbors: nothing to absorb.
        pass

    def incremental_cost(t: int) -> float:
        """Eq. (8) for candidate t against the current set."""
        delta = 0.0
        for v in graph.neighbors(t):
            if v not in allowed:
                continue
            cost_to_t = directed(v, t)
            if v in current_cost:  # v in N(t) ∩ N(I)
                delta += min(current_cost[v], cost_to_t) - current_cost[v]
            else:  # v in N(t) \ N(I)
                delta += cost_to_t
        return delta

    current_key: Dict[int, float] = {t: incremental_cost(t) for t in candidates}
    heap: List[Tuple[float, int]] = [
        (cost, t) for t, cost in current_key.items()
    ]
    heapq.heapify(heap)
    revalidations = 0
    while candidates:
        cost, best = heapq.heappop(heap)
        if best not in candidates or cost != current_key[best]:
            revalidations += 1
            continue
        chosen.add(best)
        candidates.discard(best)
        del current_key[best]
        touched = graph.neighbors(best)
        _absorb(graph, best, allowed, candidates, current_cost)
        affected: Set[int] = set()
        for v in touched:
            if v in allowed:
                for t in graph.neighbors(v):
                    if t in candidates:
                        affected.add(t)
        for t in affected:
            fresh = incremental_cost(t)
            if fresh != current_key[t]:
                current_key[t] = fresh
                heapq.heappush(heap, (fresh, t))

    return frozenset(chosen), revalidations


def _absorb(
    graph: ViolationGraph,
    added: int,
    allowed: Set[int],
    candidates: Set[int],
    current_cost: Dict[int, float],
) -> None:
    """Update candidate pool and repair-cost map after adding a vertex."""
    for v, base in graph.neighbors(added).items():
        if v not in allowed:
            continue
        candidates.discard(v)  # now in conflict with the set
        cost = graph.multiplicity(v) * base
        if v not in current_cost or cost < current_cost[v]:
            current_cost[v] = cost


def repair_single_fd_greedy(
    relation: Relation,
    fd: FD,
    model: DistanceModel,
    tau: float,
    join_strategy: str = DEFAULT_JOIN,
    grouping: bool = True,
    registry=None,
) -> RepairResult:
    """Greedy repair of *relation* w.r.t. a single FD.

    *registry* shares detection indexes with other joins of the same
    run (see :class:`repro.index.registry.AttributeIndexRegistry`).
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
    search_counters: Dict[str, int] = {}
    independent = greedy_independent_set(graph, counters=search_counters)
    assignment, cost = graph.repair_assignment(independent)
    edits = materialize_pattern_assignment(relation, graph, assignment)
    repaired = apply_edits(relation, edits)
    stats = {
        "algorithm": "greedy-s",
        "graph_vertices": len(graph),
        "graph_edges": graph.edge_count,
        "independent_set_size": len(independent),
        **search_counters,
    }
    accumulate_join_counters(stats, [graph])
    return RepairResult(repaired, edits, cost, stats)
