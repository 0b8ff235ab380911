"""Exact-M: optimal multi-FD repair (Section 4.2, Algorithm 3).

For each FD of a connected component, enumerate its maximal independent
sets with the expansion algorithm, then scan the Cartesian product of
the per-FD set lists: each combination is joined into targets and scored
by the cost of moving every unresolved tuple to its nearest target; the
cheapest combination wins (Theorem 7).

Pruning: before scoring a combination, a lower bound sums, over a
pairwise attribute-disjoint family of the component's FDs (the paper's
``F(phi_j)``, Eq. 10), the cheapest conceivable repair of each excluded
pattern. Disjoint attribute sets cannot double-count cost, so the bound
is sound and a combination whose bound already exceeds the incumbent is
skipped without building its target tree. The scan walks the product as
an explicit-stack DFS so the bound accumulates per FD along the path:
when a *partial* sum already beats the incumbent, the entire subtree of
combinations sharing that prefix is pruned in one step (the bound terms
are nonnegative), instead of re-deriving the skip once per combination.

The bound's per-pattern ingredient (cheapest neighbor) equals the global
cheapest rewrite only under equal LHS/RHS weights, so pruning
auto-disables for skewed weights.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph
from repro.core.multi.base import evaluate_sets, repair_with_sets
from repro.core.multi.targets import TargetJoinError
from repro.core.repair import RepairResult, apply_edits
from repro.core.single.mis import (
    ExpansionLimitError,
    ExpansionStats,
    enumerate_maximal_independent_sets,
)
from repro.dataset.relation import Relation
from repro.index.registry import AttributeIndexRegistry
from repro.obs import span
from repro.obs.counters import sum_layers


class CombinationLimitError(RuntimeError):
    """Raised when the per-FD set lists multiply beyond the budget."""


def _disjoint_family(fds: Sequence[FD]) -> List[int]:
    """Greedy maximal family of pairwise attribute-disjoint FDs."""
    chosen: List[int] = []
    used: set = set()
    for i, fd in enumerate(fds):
        if not (fd.attribute_set & used):
            chosen.append(i)
            used |= fd.attribute_set
    return chosen


def _solo_lower_bound(graph: ViolationGraph, members: FrozenSet[int]) -> float:
    """Cheapest conceivable repair bill for patterns outside *members*."""
    total = 0.0
    for v in range(len(graph)):
        if v in members:
            continue
        neighbor_costs = graph.neighbors(v).values()
        if neighbor_costs:
            total += graph.multiplicity(v) * min(neighbor_costs)
    return total


def candidate_sets_for_fd(
    graph: ViolationGraph,
    max_nodes: Optional[int],
    max_sets: int,
    stats: ExpansionStats,
) -> Tuple[List[FrozenSet[int]], bool]:
    """Maximal-independent-set candidates for one FD, within budget.

    Returns ``(sets, exhaustive)``. The first choice is full
    enumeration (the literal Algorithm 3). When the expansion tree
    exceeds *max_nodes*, the graph's connected components are
    enumerated separately (their set counts multiply, they never add)
    and the *max_sets* cheapest whole-graph compositions are produced by
    best-first product search over per-component cost-ranked sets —
    the algorithm becomes anytime-optimal and ``exhaustive`` is False.
    """
    try:
        sets = enumerate_maximal_independent_sets(
            graph, prune=False, max_nodes=max_nodes, stats=stats
        )
        if len(sets) <= max_sets:
            return sets, True
        ranked = sorted(sets, key=lambda s: _solo_lower_bound(graph, s))
        return ranked[:max_sets], False
    except ExpansionLimitError:
        return _compose_component_candidates(graph, max_nodes, max_sets, stats), False


def _compose_component_candidates(
    graph: ViolationGraph,
    max_nodes: Optional[int],
    max_sets: int,
    stats: ExpansionStats,
) -> List[FrozenSet[int]]:
    """Best-first composition of per-component maximal independent sets."""
    import heapq

    from repro.core.single.greedy import greedy_independent_set

    per_component: List[List[FrozenSet[int]]] = []
    for component in graph.connected_components():
        if len(component) == 1:
            per_component.append([frozenset(component)])
            continue
        try:
            sets = enumerate_maximal_independent_sets(
                graph, component, prune=False, max_nodes=max_nodes,
                stats=stats,
            )
        except ExpansionLimitError:
            sets = [greedy_independent_set(graph, component)]
        sets.sort(key=lambda s: _component_cost(graph, component, s))
        per_component.append(sets[:max_sets])

    # Best-first search over index vectors, cheapest total cost first.
    costs = [
        [
            _component_cost(graph, comp, s)
            for s in sets
        ]
        for comp, sets in zip(graph.connected_components(), per_component)
    ]
    start = tuple(0 for _ in per_component)
    heap = [(sum(c[0] for c in costs), start)]
    seen = {start}
    out: List[FrozenSet[int]] = []
    while heap and len(out) < max_sets:
        total, vector = heapq.heappop(heap)
        combined: FrozenSet[int] = frozenset().union(
            *(per_component[i][j] for i, j in enumerate(vector))
        )
        out.append(combined)
        for i, j in enumerate(vector):
            if j + 1 < len(per_component[i]):
                nxt = vector[:i] + (j + 1,) + vector[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(
                        heap,
                        (total - costs[i][j] + costs[i][j + 1], nxt),
                    )
    return out


def _component_cost(
    graph: ViolationGraph, component: Sequence[int], members: FrozenSet[int]
) -> float:
    """Grouped repair cost of fixing *component* with *members*."""
    total = 0.0
    member_list = list(members)
    for v in component:
        if v in members:
            continue
        adjacency = graph.neighbors(v)
        pool = [u for u in member_list if u in adjacency] or member_list
        total += graph.multiplicity(v) * min(graph.pair_cost(v, u) for u in pool)
    return total


def repair_multi_fd_exact(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    prune: bool = True,
    use_tree: bool = True,
    max_nodes: Optional[int] = 200_000,
    max_combinations: int = 1_000_000,
    max_sets_per_fd: int = 64,
) -> RepairResult:
    """Optimal joint repair of one FD-graph component.

    *fds* must form a single connected component (the engine splits the
    constraint set beforehand); a single FD degrades to Exact-S
    semantics with the multi-FD repair rule. On instances where full
    per-FD enumeration fits the budgets the result is provably optimal
    (``stats["exhaustive"]`` is True); beyond them the candidate pools
    are cost-ranked and truncated, making the search anytime-optimal.
    """
    fds = list(fds)
    registry = AttributeIndexRegistry()  # shared across the per-FD joins
    graphs = [
        ViolationGraph.build(
            relation,
            fd,
            model,
            thresholds[fd],
            registry=registry,
        )
        for fd in fds
    ]
    expansion_stats = ExpansionStats()
    exhaustive = True
    set_lists: List[List[FrozenSet[int]]] = []
    for graph in graphs:
        sets, complete = candidate_sets_for_fd(
            graph,
            max_nodes=max_nodes,
            max_sets=max_sets_per_fd,
            stats=expansion_stats,
        )
        exhaustive = exhaustive and complete
        set_lists.append(sets)

    total_combinations = 1
    for sets in set_lists:
        total_combinations *= max(len(sets), 1)
    if total_combinations > max_combinations:
        raise CombinationLimitError(
            f"{total_combinations} combinations exceed the budget "
            f"of {max_combinations}"
        )

    # Pruning ingredients: per-FD solo bounds and a disjoint family.
    equal_weights = abs(model.weights.lhs - model.weights.rhs) < 1e-12
    do_prune = prune and equal_weights
    family = _disjoint_family(fds) if do_prune else []
    solo_bounds: List[Dict[FrozenSet[int], float]] = []
    if do_prune:
        for graph, sets in zip(graphs, set_lists):
            solo_bounds.append({s: _solo_lower_bound(graph, s) for s in sets})
        # Cheap combinations first: better incumbents appear earlier.
        set_lists = [
            sorted(sets, key=lambda s: solo_bounds[i][s])
            for i, sets in enumerate(set_lists)
        ]

    best_cost = float("inf")
    best_elements: Optional[List[List[Tuple]]] = None
    combos_scored = 0
    combos_pruned = 0
    combos_infeasible = 0
    prune_events = 0
    # Explicit-stack DFS over the product, one FD per depth, visiting
    # leaves in itertools.product order. The family bound accumulates
    # left-to-right along the path (same term order as the old per-combo
    # ``sum``, so the same floats), and solo bounds are nonnegative:
    # once the partial sum at depth d beats the incumbent, *every* leaf
    # below would have been skipped by the per-combo check, so the whole
    # subtree is pruned in O(1) and its leaf count (``suffix_leaves``)
    # booked at once. No leaf in a pruned subtree can lower the
    # incumbent (it would never be scored), so later decisions are
    # unaffected — scored/pruned totals match the flat scan exactly.
    n_fds = len(set_lists)
    suffix_leaves = [1] * (n_fds + 1)
    for i in range(n_fds - 1, -1, -1):
        suffix_leaves[i] = suffix_leaves[i + 1] * len(set_lists[i])
    family_members = set(family)
    in_family = [i in family_members for i in range(n_fds)]
    with span(
        "combinations", total=total_combinations, prune=do_prune
    ) as combo_span:
        if suffix_leaves[0] > 0:
            indices = [0] * n_fds
            running = [0.0] * (n_fds + 1)
            combo: List[FrozenSet[int]] = [frozenset()] * n_fds
            depth = 0
            while depth >= 0:
                if indices[depth] >= len(set_lists[depth]):
                    indices[depth] = 0
                    depth -= 1
                    if depth >= 0:
                        indices[depth] += 1
                    continue
                members = set_lists[depth][indices[depth]]
                partial = running[depth]
                if do_prune and in_family[depth]:
                    partial = partial + solo_bounds[depth][members]
                if (
                    do_prune
                    and best_cost < float("inf")
                    and partial > best_cost
                ):
                    combos_pruned += suffix_leaves[depth + 1]
                    prune_events += 1
                    indices[depth] += 1
                    continue
                combo[depth] = members
                running[depth + 1] = partial
                if depth + 1 < n_fds:
                    depth += 1
                    continue
                elements = [
                    [graphs[i].patterns[v].values for v in sorted(combo[i])]
                    for i in range(len(fds))
                ]
                try:
                    cost = evaluate_sets(
                        relation, fds, model, elements, use_tree=use_tree
                    )
                except TargetJoinError:
                    combos_infeasible += 1
                else:
                    combos_scored += 1
                    if cost < best_cost:
                        best_cost = cost
                        best_elements = elements
                indices[depth] += 1
        combo_span.set(
            scored=combos_scored,
            pruned=combos_pruned,
            infeasible=combos_infeasible,
            prune_events=prune_events,
        )

    if best_elements is None:
        raise TargetJoinError(
            "no feasible combination of independent sets admits a target"
        )
    edits, cost, repair_stats = repair_with_sets(
        relation, fds, model, best_elements, use_tree=use_tree
    )
    repaired = apply_edits(relation, edits)
    stats: Dict[str, object] = {
        "algorithm": "exact-m",
        "exhaustive": exhaustive,
        "combinations_total": total_combinations,
        "combinations_scored": combos_scored,
        "combinations_pruned": combos_pruned,
        "combinations_infeasible": combos_infeasible,
        **expansion_stats.as_dict(),
        **repair_stats,
    }
    sum_layers(stats, (graph.join_counters for graph in graphs), "index")
    return RepairResult(repaired, edits, cost, stats)
