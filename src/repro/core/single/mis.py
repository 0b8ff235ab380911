"""Maximal-independent-set enumeration via the expansion tree (Section 3.1).

Independent sets satisfy the a-priori property: every subset of an
independent set is independent. The expansion algorithm exploits this by
visiting vertices in order ``v_1 .. v_n`` and maintaining, per level
``i``, all maximal independent sets of the induced prefix ``D_i``:

* if ``v_{i+1}`` is FT-consistent with a set ``I``, the only child is
  ``I ∪ {v_{i+1}}``;
* otherwise ``I`` survives unchanged (it is still maximal), and
  ``FTC(v_{i+1}, I) ∪ {v_{i+1}}`` becomes a second child when it is
  maximal w.r.t. the new prefix and not a duplicate.

For the *optimal repair* search, a node may be pruned when its repair
lower bound (Eq. 5) exceeds the best known upper bound (Eq. 6): every
repair reachable from the node is then provably beaten by an already
known feasible repair.

The production engine (:func:`enumerate_maximal_independent_sets`) runs
the level-synchronous schedule as an explicit work-list branch-and-bound
over the :class:`~repro.core.graph.ComponentMasks` bitset view; the
loop itself lives in the resumable
:class:`~repro.core.single.frontier.SearchKernel`, so the Exact-S
winner search (:func:`best_maximal_independent_set`) can cut a giant
component at a level boundary into independently explorable subtree
tasks (:mod:`repro.core.single.subtree`, ``docs/parallelism.md``):

* each frontier node is one prefix-mask; FT-conflict, ``FTC``, and
  prefix-maximality checks are ``&``/``|`` word operations against a
  per-node *coverage mask* (members plus their neighborhoods);
* the Eq. (5) lower bound is **memoized per prefix-mask** and carried
  incrementally level to level (the same left-to-right float
  accumulation the scratch recomputation performs, so bounds are
  bit-identical to the oracle's);
* the Eq. (6) upper bound is computed **once per emitted mask** (the
  oracle recomputes it for every frontier node at every level) and
  folded into the incumbent at the next level boundary — exactly the
  point the oracle's fold becomes visible to pruning decisions;
* nodes with equal prefix-masks are merged (*dominance*): later
  expansion paths reaching an already-frontier mask are dominated by
  the first and dropped, which is also what bounds the tree width.

Every decision the serial engine takes — emission order, duplicate
merging, pruning, the node count that trips
:class:`ExpansionLimitError` — is bit-for-bit identical to the set-based
reference implementation (the *oracle*). The oracle, and a brute-force
subset enumerator, live in the test helpers (``tests/oracles.py``),
next to the two-row Levenshtein DP that checks the Myers kernel; the
Hypothesis differential suites (``tests/test_search_bitset.py``,
``tests/test_mis.py``) cross-check the engine against them. When a
subtree dispatcher splits the winner search, the selected set is the
serial one (the winner is bound-independent) while counters reflect
the extra duplicated exploration across chunks.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from repro.core.graph import ViolationGraph, mask_bits
from repro.core.single.frontier import (
    ExpansionLimitError,
    ExpansionStats,
    SearchKernel,
    better_candidate,
    select_best_mask,
)
from repro.core.single.subtree import (
    SplitRequest,
    SubtreeDispatcher,
    current_dispatcher,
)
from repro.obs import span

__all__ = [
    "ExpansionLimitError",
    "ExpansionStats",
    "enumerate_maximal_independent_sets",
    "best_maximal_independent_set",
]


def enumerate_maximal_independent_sets(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    prune: bool = False,
    max_nodes: Optional[int] = None,
    stats: Optional[ExpansionStats] = None,
) -> List[FrozenSet[int]]:
    """All maximal independent sets of the induced subgraph on *vertices*.

    With ``prune=True`` the enumeration keeps only sets that can still
    lead to the minimum-cost repair (sound for the optimization, not for
    exhaustive enumeration). *max_nodes* bounds the total number of tree
    nodes; exceeding it raises :class:`ExpansionLimitError` so callers
    can fall back to the greedy algorithm.

    This is the bitset engine (module docstring); results, statistics,
    and the budget-trip point are identical to the set-based oracle in
    ``tests/oracles.py``. It never splits: only the winner search in
    :func:`best_maximal_independent_set` does.
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if stats is None:
        stats = ExpansionStats()
    if not order:
        return []
    with span(
        "mis/expand", fd=graph.fd.name, vertices=len(order), prune=prune
    ) as expand_span:
        masks = graph.subgraph_masks(order)
        kernel = SearchKernel.for_graph(graph, order, prune=prune)
        state = kernel.seed(stats)
        kernel.advance(state, stats, max_nodes=max_nodes)
        stats.sets_enumerated = len(state.masks)
        expand_span.set(**stats.as_dict())
    order_tuple = masks.order
    return [
        frozenset(order_tuple[i] for i in mask_bits(mask))
        for mask in state.masks
    ]


def _best_via_split(
    graph: ViolationGraph,
    order: List[int],
    prune: bool,
    max_nodes: Optional[int],
    stats: ExpansionStats,
    dispatcher: SubtreeDispatcher,
) -> FrozenSet[int]:
    """Winner search with the frontier split into subtree tasks.

    Chunks score their own surviving candidates; the parent reduces the
    chunk winners in segment order with the serial comparator. Shared
    incumbent bounds may only prune provably-beaten sets, so the winner
    matches the serial scan (``docs/parallelism.md``).
    """
    with span(
        "mis/expand",
        fd=graph.fd.name,
        vertices=len(order),
        prune=prune,
        split=True,
    ) as expand_span:
        kernel = SearchKernel.for_graph(
            graph, order, prune=prune, with_costs=True
        )
        state = kernel.seed(stats)
        # Serial prefix: widen the frontier until it can feed the fanout.
        target = dispatcher.fanout()
        while True:
            finished = kernel.advance(
                state, stats, max_nodes=max_nodes, stop_level=state.level + 1
            )
            if finished or len(state.masks) >= target:
                break
        if finished:
            # Too small to split: score locally — the same scan,
            # comparator and floats as the unsplit path.
            stats.sets_enumerated = len(state.masks)
            winner = select_best_mask(kernel, state.masks, order)
        else:
            winner = dispatcher.explore(
                SplitRequest(
                    kernel=kernel,
                    state=state,
                    stats=stats,
                    max_nodes=max_nodes,
                    fd_name=graph.fd.name,
                    order=list(order),
                )
            )
        expand_span.set(**stats.as_dict())
    if winner is None:
        raise ValueError("no vertices to enumerate over")
    mask = winner[0]
    return frozenset(order[i] for i in mask_bits(mask))


def best_maximal_independent_set(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    prune: bool = True,
    max_nodes: Optional[int] = None,
    stats: Optional[ExpansionStats] = None,
) -> FrozenSet[int]:
    """The independent set whose induced repair is cheapest (Theorem 2)."""
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if stats is None:
        stats = ExpansionStats()
    dispatcher = current_dispatcher()
    if order and dispatcher is not None and dispatcher.wants(len(order)):
        return _best_via_split(
            graph, order, prune, max_nodes, stats, dispatcher
        )
    candidates = enumerate_maximal_independent_sets(
        graph, order, prune=prune, max_nodes=max_nodes, stats=stats
    )
    if not candidates:
        raise ValueError("no vertices to enumerate over")
    kernel = SearchKernel.for_graph(graph, order, prune=prune, with_costs=True)
    index_of = graph.subgraph_masks(order).index_of

    best: Optional[FrozenSet[int]] = None
    best_cost = float("inf")
    best_members: Optional[List[int]] = None
    for candidate in candidates:
        member_mask = 0
        for v in candidate:
            member_mask |= 1 << index_of[v]
        cost = kernel.mask_assignment_cost(member_mask)
        members = sorted(candidate)
        if better_candidate(cost, members, best_cost, best_members):
            best, best_cost, best_members = candidate, cost, members
    assert best is not None
    return best
