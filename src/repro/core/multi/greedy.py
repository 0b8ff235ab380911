"""Greedy-M: joint greedy repair across connected FDs (Sec. 4.4, Alg. 4).

Appro-M picks each FD's independent set in isolation; Greedy-M instead
scores every candidate pattern by its **tuple cost** (Eq. 12): if the
pattern joins its FD's set, each conflicting neighbor must be repaired,
and the neighbor's repair target is chosen with *cross-FD
synchronization* — among the consistent alternatives, prefer the one
that eliminates the most FT-violations across the FD and its connected
FDs and triggers the fewest new ones (Example 12), tie-broken by repair
cost. The candidate with the globally smallest tuple cost joins; the
loop ends when every FD's set is maximal. The chosen sets are then
joined into targets and unresolved tuples repaired to their nearest
target, exactly as the other multi-FD algorithms.

Implementation note: Section 4.4 states the repair-target choice must
"eliminate more violations for phi_i and phi_j and trigger less
violations for phi_j", but Eq. (12) itself only charges the phi_i repair
cost. Charging only that cost makes the selection blind to the very
synchronization the section introduces — a pattern that is cheap inside
phi_i's graph but forces neighbor rewrites that violate connected FDs
would still win. We therefore fold the cross-FD effect into the tuple
cost: each triggered (tuple-level) violation in a connected FD is
charged, and each eliminated one credited, at that FD's median edge
cost — the expected price of repairing it later. This is exactly the
trade-off Example 12 walks through, made quantitative.

Candidate scores only improve monotonically in a loose sense, so a lazy
priority queue (re-validate on pop) keeps the O(|Sigma| * |V|^2) bound
practical.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph, accumulate_join_counters
from repro.core.multi.base import repair_with_sets
from repro.core.multi.targets import TargetJoinError
from repro.core.repair import RepairResult, apply_edits
from repro.core.violation import PreparedProjection
from repro.dataset.relation import Relation
from repro.index.registry import AttributeIndexRegistry
from repro.index.simjoin import DEFAULT_JOIN
from repro.obs import span


class _FDState:
    """Per-FD bookkeeping for the joint greedy loop."""

    def __init__(self, fd: FD, graph: ViolationGraph, relation: Relation) -> None:
        self.fd = fd
        self.graph = graph
        self.chosen: Set[int] = set()
        self.blocked: Set[int] = set()
        #: tuple-level conflict weight of each pattern (sum of neighbor
        #: multiplicities) — "how violated" a pattern currently is.
        self.conflict_weight: List[float] = [
            sum(graph.multiplicity(u) for u in graph.neighbors(v))
            for v in range(len(graph))
        ]
        #: pattern values -> vertex, for novel-pattern lookups
        self.by_values: Dict[Tuple, int] = {
            tuple(p.values): i for i, p in enumerate(graph.patterns)
        }
        #: conflict weight of value tuples not present in the graph
        self._novel_cache: Dict[Tuple, float] = {}
        bound = fd.bind(relation.schema)
        #: tid -> vertex carrying its pattern
        self.vertex_of_tid: Dict[int, int] = {}
        for vertex, pattern in enumerate(graph.patterns):
            for tid in pattern.tids:
                self.vertex_of_tid[tid] = vertex
        self._bound = bound
        self._relation = relation
        #: expected price of repairing one tuple-level violation later
        edge_costs = sorted(
            cost
            for v in range(len(graph))
            for u, cost in graph.neighbors(v).items()
            if u > v
        )
        self.median_edge_cost: float = (
            edge_costs[len(edge_costs) // 2] if edge_costs else 0.5
        )

    def candidates(self) -> List[int]:
        return [
            v
            for v in range(len(self.graph))
            if v not in self.chosen and v not in self.blocked
        ]

    def add(self, vertex: int) -> None:
        self.chosen.add(vertex)
        for neighbor in self.graph.neighbors(vertex):
            if neighbor not in self.chosen:
                self.blocked.add(neighbor)

    def conflicts_of_values(self, values: Tuple, model: DistanceModel, tau: float) -> float:
        """Tuple-level conflict weight of an arbitrary pattern value.

        Existing patterns read the precomputed weight; novel value
        combinations are scored against all patterns (cached), with the
        novel value's kernel preparations built once and streamed over
        the whole pattern list (one-vs-many).
        """
        vertex = self.by_values.get(values)
        if vertex is not None:
            return self.conflict_weight[vertex]
        hit = self._novel_cache.get(values)
        if hit is not None:
            return hit
        prepared = PreparedProjection(model, self.fd, values)
        total = 0.0
        for pattern in self.graph.patterns:
            dist = prepared.distance_within(pattern.values, tau)
            if dist is not None:
                total += pattern.multiplicity
        self._novel_cache[values] = total
        return total


def repair_multi_fd_greedy(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    use_tree: bool = True,
    join_strategy: str = DEFAULT_JOIN,
) -> RepairResult:
    """Greedy-M repair of one FD-graph component."""
    fds = list(fds)
    registry = AttributeIndexRegistry()  # shared across the per-FD joins
    states = [
        _FDState(
            fd,
            ViolationGraph.build(
                relation,
                fd,
                model,
                thresholds[fd],
                join_strategy=join_strategy,
                registry=registry,
            ),
            relation,
        )
        for fd in fds
    ]
    #: for each FD index, the connected FDs (sharing attributes)
    linked: List[List[int]] = [
        [j for j, other in enumerate(fds) if j != i and fds[i].overlaps(other)]
        for i in range(len(fds))
    ]
    #: shared attribute positions: (i, j) -> [(pos in fd_i proj, pos in fd_j proj)]
    shared: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for i, j in itertools.permutations(range(len(fds)), 2):
        pairs = [
            (pi, fds[j].attributes.index(attr))
            for pi, attr in enumerate(fds[i].attributes)
            if attr in fds[j].attribute_set
        ]
        if pairs:
            shared[(i, j)] = pairs

    def _cross_fd_delta(i: int, u: int, c: int) -> float:
        """Violation-count change in linked FDs if group *u* moves to *c*.

        Positive = new violations triggered, negative = violations
        eliminated; each counted tuple-level and priced at the linked
        FD's median edge cost.
        """
        state = states[i]
        graph = state.graph
        c_values = graph.patterns[c].values
        delta = 0.0
        for j in linked[i]:
            pairs = shared.get((i, j))
            if not pairs:
                continue
            other = states[j]
            # Group u's tuples by their current FD-j pattern.
            old_patterns = Counter(
                other.vertex_of_tid[tid] for tid in graph.patterns[u].tids
            )
            for old_vertex, count in old_patterns.items():
                old_values = other.graph.patterns[old_vertex].values
                new_values = list(old_values)
                for pos_i, pos_j in pairs:
                    new_values[pos_j] = c_values[pos_i]
                new_values_t = tuple(new_values)
                if new_values_t == old_values:
                    continue
                eliminated = other.conflict_weight[old_vertex]
                triggered = other.conflicts_of_values(
                    new_values_t, model, thresholds[fds[j]]
                )
                delta += count * (triggered - eliminated) * other.median_edge_cost
        return delta

    def best_choice(i: int, u: int, extra: int) -> Tuple[int, float]:
        """Best repair target for pattern *u* of FD *i* (Example 12).

        *extra* is the candidate vertex about to join FD *i*'s set.
        Returns (target vertex, its synchronized repair cost: the Eq. 3
        cost of moving group u there plus the priced cross-FD effect).
        """
        state = states[i]
        graph = state.graph
        members = state.chosen | {extra}
        pool: List[int] = []
        for c in graph.neighbors(u):
            # c must be FT-consistent with the (about to be) chosen set.
            if c in members or not any(
                m in graph.neighbors(c) for m in members
            ):
                pool.append(c)
        if not pool:
            pool = [extra]

        def synchronized_cost(c: int) -> float:
            # The cross-FD delta is clamped at zero: triggered violations
            # are a real future repair bill, but "eliminating" a
            # violation by moving one side away must not earn credit —
            # the other side (the error satellite) is still wrong, and a
            # symmetric credit would reward abandoning large correct
            # groups.
            penalty = max(0.0, _cross_fd_delta(i, u, c))
            return graph.multiplicity(u) * graph.pair_cost(u, c) + penalty

        best = min(pool, key=lambda c: (synchronized_cost(c), c))
        return best, synchronized_cost(best)

    def tuple_cost(i: int, v: int) -> float:
        """Eq. (12): the repair bill a candidate imposes on its neighbors,
        with the cross-FD synchronization folded in (module docstring)."""
        graph = states[i].graph
        total = 0.0
        for u in graph.neighbors(v):
            if u in states[i].chosen:
                continue
            _, cost = best_choice(i, u, v)
            total += cost
        return total

    # tuple_cost(i, v) reads the chosen-set only through best_choice's
    # pool test, which looks at most two hops from each neighbor u of v
    # — i.e. three hops from v. Cross-FD terms (conflict_weight,
    # vertex_of_tid, the monotone novel-pattern memo, median costs) are
    # static for the whole loop. A score therefore stays valid until a
    # vertex within graph distance 3 of it joins the set, so the cache
    # below only drops that ball per addition instead of rescoring the
    # whole candidate pool on every heap revalidation.
    score_cache: Dict[Tuple[int, int], float] = {}
    cache_hits = 0

    def cached_tuple_cost(i: int, v: int) -> float:
        nonlocal cache_hits
        hit = score_cache.get((i, v))
        if hit is not None:
            cache_hits += 1
            return hit
        fresh = tuple_cost(i, v)
        score_cache[(i, v)] = fresh
        return fresh

    def invalidate_ball(i: int, center: int) -> None:
        graph = states[i].graph
        ball = {center}
        frontier = {center}
        for _ in range(3):
            reached = set()
            for u in frontier:
                reached.update(graph.neighbors(u))
            reached -= ball
            ball |= reached
            frontier = reached
        for u in ball:
            score_cache.pop((i, u), None)

    with span("greedy/grow", fds=[fd.name for fd in fds]) as grow_span:
        # Multiplicity-dominant vertices join first (see
        # repro.core.single.greedy.greedy_independent_set for the rationale:
        # a pattern more frequent than everything it conflicts with is the
        # right anchor in all but adversarial cases).
        for state in states:
            graph = state.graph
            for v in sorted(
                range(len(graph)), key=lambda u: (-graph.multiplicity(u), u)
            ):
                if v in state.chosen or v in state.blocked:
                    continue
                rank = (graph.multiplicity(v), -v)
                if all(
                    (graph.multiplicity(u), -u) < rank
                    for u in graph.neighbors(v)
                ):
                    state.add(v)

        # Lazy priority queue over (fd index, vertex) candidates.
        heap: List[Tuple[float, int, int]] = []
        for i, state in enumerate(states):
            for v in state.candidates():
                heapq.heappush(heap, (cached_tuple_cost(i, v), i, v))

        iterations = 0
        revalidations = 0
        while heap:
            score, i, v = heapq.heappop(heap)
            state = states[i]
            if v in state.chosen or v in state.blocked:
                revalidations += 1
                continue
            fresh = cached_tuple_cost(i, v)
            if heap and fresh > heap[0][0] + 1e-12:
                heapq.heappush(heap, (fresh, i, v))
                revalidations += 1
                continue
            state.add(v)
            invalidate_ball(i, v)
            iterations += 1
        grow_span.set(
            iterations=iterations,
            heap_revalidations=revalidations,
            tuple_cost_cache_hits=cache_hits,
        )

    elements = [
        [state.graph.patterns[v].values for v in sorted(state.chosen)]
        for state in states
    ]
    try:
        edits, cost, repair_stats = repair_with_sets(
            relation, fds, model, elements, use_tree=use_tree
        )
    except TargetJoinError:
        from repro.core.multi.appro import _sequential_fallback

        return _sequential_fallback(relation, fds, model, thresholds, join_strategy)
    repaired = apply_edits(relation, edits)
    stats: Dict[str, object] = {
        "algorithm": "greedy-m",
        "iterations": iterations,
        "search_heap_revalidations": revalidations,
        **repair_stats,
    }
    accumulate_join_counters(stats, [state.graph for state in states])
    return RepairResult(repaired, edits, cost, stats)
