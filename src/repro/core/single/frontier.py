"""Resumable branch-and-bound frontier kernel for MIS enumeration.

This module factors the level-synchronous work-list loop out of
:func:`repro.core.single.mis.enumerate_maximal_independent_sets` into a
portable, *resumable* kernel:

* :class:`SearchKernel` — the immutable search ingredients (adjacency
  masks, multiplicities, Eq. (5) min-out terms, Eq. (6) cost rows). It
  can be built from a :class:`~repro.core.graph.ViolationGraph` in the
  parent process or rebuilt in a worker from plain shipped arrays — the
  floats travel verbatim, so bounds and costs are bit-identical on both
  sides.
* :class:`FrontierState` — the complete mutable state of an enumeration
  between two level boundaries: the frontier's parallel lists, the
  incumbent upper bound, and the uppers pending their fold. A state can
  be cut into contiguous chunks and each chunk explored independently:
  ``lower`` and ``coverage`` are pure functions of ``(mask, level)``, so
  equal masks at equal level are *identical* nodes, and concatenating
  the chunks' final frontiers in chunk order (first occurrence kept)
  reproduces the serial enumeration output exactly (``docs/search.md``,
  ``docs/parallelism.md``).
* :meth:`SearchKernel.advance` — the verbatim level loop, stoppable at
  any level boundary (``stop_level``), after a cooperative node budget
  (``yield_budget``: the work-stealing checkpoint), and wired for an
  :class:`IncumbentBound` exchanged across processes at each boundary.

The serial path through :meth:`advance` performs exactly the statistics
accounting, emission order, pruning decisions and budget-trip point of
the pre-refactor loop — the Hypothesis differential suite
(``tests/test_search_bitset.py``) pins it against the set-based oracle.

Determinism note: an incumbent bound may only *prune* — any exchanged
value is the cost of a concrete feasible repair, hence ``>=`` the
optimum, and pruning is strict (``lower > best_upper``), so no
optimal-cost set is ever dropped. Bounds change how much of the tree is
explored, never which set wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import mask_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph import ViolationGraph

#: float tolerance of the winner tie-break (kept from the original scan)
TIE_EPSILON = 1e-12


class ExpansionLimitError(RuntimeError):
    """Raised when enumeration exceeds the caller's node budget.

    Carries the configured *limit* and the *nodes_generated* count that
    tripped it (plus the level reached), so budget tuning can start from
    the numbers in the message instead of guesswork. When the trip
    happened inside a split subtree task, the executor attaches the
    subtree's segment path as ``.subtree`` before re-raising.
    """

    def __init__(self, limit: int, nodes_generated: int, level: int) -> None:
        super().__init__(
            f"expansion exceeded the {limit}-node budget "
            f"({nodes_generated} nodes generated at level {level})"
        )
        self.limit = limit
        self.nodes_generated = nodes_generated
        self.level = level
        self.subtree: Optional[Tuple[int, ...]] = None

    def __reduce__(self):
        # RuntimeError's default reduce passes args=(message,) to the
        # 3-argument __init__ and breaks unpickling across the process
        # boundary; rebuild from the structured fields instead and carry
        # any post-hoc attribution (``subtree``) through the state dict.
        return (
            type(self),
            (self.limit, self.nodes_generated, self.level),
            self.__dict__.copy(),
        )


@dataclass
class ExpansionStats:
    """Counters from one enumeration run."""

    levels: int = 0
    nodes_generated: int = 0
    nodes_pruned: int = 0
    duplicates_removed: int = 0
    non_maximal_discarded: int = 0
    sets_enumerated: int = 0
    #: frontier nodes processed by the work-list loop
    search_nodes_expanded: int = 0
    #: big-int mask operations on the hot path (conflict / FTC / coverage)
    search_bitset_ops: int = 0
    #: prune checks served by a memoized (carried) bound
    search_bound_hits: int = 0
    #: expansion paths merged into an already-frontier prefix-mask
    search_dominance_prunes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "levels": self.levels,
            "nodes_generated": self.nodes_generated,
            "nodes_pruned": self.nodes_pruned,
            "duplicates_removed": self.duplicates_removed,
            "non_maximal_discarded": self.non_maximal_discarded,
            "sets_enumerated": self.sets_enumerated,
            "search_nodes_expanded": self.search_nodes_expanded,
            "search_bitset_ops": self.search_bitset_ops,
            "search_bound_hits": self.search_bound_hits,
            "search_dominance_prunes": self.search_dominance_prunes,
        }

    def merge_delta(self, other: "ExpansionStats", nodes_base: int) -> None:
        """Fold a subtree run's counters into this (caller's) stats.

        *other* started its node count at *nodes_base* (the shared
        serial-prefix count), so only the delta is added.
        """
        self.levels = max(self.levels, other.levels)
        self.nodes_generated += other.nodes_generated - nodes_base
        self.nodes_pruned += other.nodes_pruned
        self.duplicates_removed += other.duplicates_removed
        self.non_maximal_discarded += other.non_maximal_discarded
        self.search_nodes_expanded += other.search_nodes_expanded
        self.search_bitset_ops += other.search_bitset_ops
        self.search_bound_hits += other.search_bound_hits
        self.search_dominance_prunes += other.search_dominance_prunes


class IncumbentBound:
    """Interface of a shared best-upper-bound cell (see ``exec/bounds.py``).

    :meth:`tighten` merges the caller's incumbent with the shared cell:
    it returns the smaller of the two, adopting a tighter published
    value (a *hit*) or publishing the caller's improvement. Reads and
    writes are lock-free; a lost update only loosens a bound, which is
    always sound.
    """

    def tighten(self, current: float) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass
class FrontierState:
    """A resumable enumeration cut at a level boundary.

    ``level`` is the next level to process; ``masks``/``lower``/
    ``coverage`` are the frontier's parallel lists; ``pending_upper``
    holds Eq. (6) uppers emitted at the previous level, folded into
    ``best_upper`` at the next boundary (empty whenever the state is
    shipped between processes — :meth:`SearchKernel.advance` folds
    before yielding).
    """

    level: int
    masks: List[int]
    lower: List[float]
    coverage: List[int]
    best_upper: float = float("inf")
    pending_upper: List[float] = field(default_factory=list)


def min_outgoing_costs(
    graph: "ViolationGraph", vertices: Sequence[int]
) -> Dict[int, float]:
    """Per-vertex cheapest directed repair cost to any neighbor.

    The Eq. (5) ingredient: a vertex left out of the independent set must
    be repaired to *some* neighbor, costing at least this much.
    """
    out: Dict[int, float] = {}
    allowed = set(vertices)
    for v in vertices:
        costs = [
            graph.multiplicity(v) * cost
            for u, cost in graph.neighbors(v).items()
            if u in allowed
        ]
        out[v] = min(costs) if costs else 0.0
    return out


class SearchKernel:
    """The immutable ingredients of one component's MIS search.

    Built either from a live :class:`~repro.core.graph.ViolationGraph`
    (:meth:`for_graph`) or from plain arrays shipped to a worker — the
    two construct bit-identical bounds because the floats themselves are
    shipped, never recomputed.
    """

    def __init__(
        self,
        adjacency: Sequence[int],
        multiplicities: Sequence[int],
        prune: bool,
        min_out: Optional[Sequence[float]] = None,
        cost_rows: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        self.n = len(adjacency)
        self.adjacency = list(adjacency)
        self.multiplicities = list(multiplicities)
        self.full_mask = (1 << self.n) - 1
        self.prune = prune
        self.min_out: List[float] = list(min_out) if min_out is not None else []
        self.cost_rows: Optional[List[List[float]]] = (
            [list(row) for row in cost_rows] if cost_rows is not None else None
        )
        self.cost_columns = None
        if prune and self.cost_rows is not None:
            self.cost_columns = np.array(self.cost_rows, dtype=float)

    @classmethod
    def for_graph(
        cls,
        graph: "ViolationGraph",
        order: Sequence[int],
        prune: bool,
        with_costs: bool = False,
    ) -> "SearchKernel":
        """Build the kernel for the induced subgraph on *order*.

        ``with_costs`` forces the cost rows in even when ``prune`` is
        off (the winner scan of ``best_maximal_independent_set`` needs
        them regardless of pruning).
        """
        masks = graph.subgraph_masks(order)
        min_out: Optional[List[float]] = None
        cost_rows = None
        if prune:
            by_vertex = min_outgoing_costs(graph, order)
            min_out = [by_vertex[v] for v in order]
        if prune or with_costs:
            cost_rows = masks.cost_rows()
        return cls(
            masks.adjacency, masks.multiplicities, prune, min_out, cost_rows
        )

    # ------------------------------------------------------------------
    def seed(self, stats: ExpansionStats) -> FrontierState:
        """The level-1 root state (vertex 0 alone), counted like serial."""
        stats.nodes_generated += 1
        state = FrontierState(
            level=1,
            masks=[1],
            lower=[0.0],
            coverage=[1 | self.adjacency[0]],
        )
        if self.prune:
            state.pending_upper.append(self.upper_of(1))
        return state

    def upper_of(self, mask: int) -> float:
        """Eq. (6) for one prefix-mask, computed once at emission.

        The member-column minimum is order-independent, so the
        vectorized path returns the same doubles the oracle's ``min()``
        produces; the outer accumulation walks outside vertices in dense
        (= access) order, the oracle's sum order.
        """
        assert self.cost_columns is not None, "upper_of needs prune costs"
        column = self.cost_columns[:, mask_bits(mask)].min(axis=1).tolist()
        total = 0.0
        multiplicities = self.multiplicities
        outside = self.full_mask & ~mask
        while outside:
            low = outside & -outside
            index = low.bit_length() - 1
            total += multiplicities[index] * column[index]
            outside ^= low
        return total

    def fresh_lower(self, mask: int, upto: int) -> float:
        """Eq. (5) over dense prefix ``[0, upto)``, left-to-right."""
        min_out = self.min_out
        total = 0.0
        for index in range(upto):
            if not (mask >> index) & 1:
                total += min_out[index]
        return total

    def fold_pending(
        self, state: FrontierState, bound: Optional[IncumbentBound] = None
    ) -> None:
        """Fold pending Eq. (6) uppers into the incumbent at a boundary.

        Exactly the oracle's fold point; when a shared *bound* is wired,
        this is also where the incumbent is exchanged (lock-free read,
        publish on improvement) — the only cross-worker touch point.
        """
        best_upper = state.best_upper
        for value in state.pending_upper:
            if value < best_upper:
                best_upper = value
        state.pending_upper = []
        if bound is not None:
            best_upper = bound.tighten(best_upper)
        state.best_upper = best_upper

    # ------------------------------------------------------------------
    def advance(
        self,
        state: FrontierState,
        stats: ExpansionStats,
        max_nodes: Optional[int] = None,
        stop_level: Optional[int] = None,
        yield_budget: Optional[int] = None,
        bound: Optional[IncumbentBound] = None,
    ) -> bool:
        """Run the level loop from ``state.level``; return True if done.

        Stops early (returning False, state resumable) at the first
        level boundary past *stop_level* or once *yield_budget* nodes
        were generated by this call — the cooperative checkpoint the
        work-stealing dispatcher re-splits stragglers at. Pending uppers
        are always folded before an early return, so shipped states
        carry ``pending_upper == []``.
        """
        n = self.n
        adjacency = self.adjacency
        prune = self.prune
        min_out = self.min_out
        start_nodes = stats.nodes_generated
        stop = n if stop_level is None else min(stop_level, n)
        while state.level < stop:
            level = state.level
            stats.levels = level
            if prune:
                # Fold the uppers of everything emitted into this
                # frontier — the exact set the oracle folds at the top
                # of the level, before any prune check reads it.
                self.fold_pending(state, bound)
            if (
                yield_budget is not None
                and stats.nodes_generated - start_nodes >= yield_budget
            ):
                return False
            vertex_adjacency = adjacency[level]
            vertex_bit = 1 << level
            prefix_mask = (vertex_bit << 1) - 1
            best_upper = state.best_upper
            frontier_masks = state.masks
            frontier_lower = state.lower
            frontier_coverage = state.coverage
            pending_upper = state.pending_upper

            emitted_index: Dict[int, int] = {}
            next_masks: List[int] = []
            next_lower: List[float] = []
            next_coverage: List[int] = []

            def emit(mask: int, lower: float, coverage: int) -> None:
                if mask in emitted_index:
                    stats.duplicates_removed += 1
                    stats.search_dominance_prunes += 1
                    return
                emitted_index[mask] = len(next_masks)
                stats.nodes_generated += 1
                if max_nodes is not None and stats.nodes_generated > max_nodes:
                    raise ExpansionLimitError(
                        max_nodes, stats.nodes_generated, level
                    )
                next_masks.append(mask)
                next_lower.append(lower)
                next_coverage.append(coverage)
                if prune:
                    pending_upper.append(self.upper_of(mask))

            for position in range(len(frontier_masks)):
                mask = frontier_masks[position]
                lower = frontier_lower[position]
                stats.search_nodes_expanded += 1
                if prune:
                    # The bound was carried from the parent level — a
                    # memo hit where the oracle recomputes from scratch.
                    stats.search_bound_hits += 1
                    if lower > best_upper:
                        stats.nodes_pruned += 1
                        continue
                coverage = frontier_coverage[position]
                stats.search_bitset_ops += 1
                if vertex_adjacency & mask == 0:
                    # FT-consistent: the only child adds the vertex.
                    emit(
                        mask | vertex_bit,
                        lower,
                        coverage | vertex_adjacency | vertex_bit,
                    )
                else:
                    # Still maximal in the larger prefix; the excluded
                    # vertex appends its Eq. (5) term to the carried sum.
                    emit(
                        mask,
                        lower + min_out[level] if prune else 0.0,
                        coverage,
                    )
                    # FTC child: strip the conflicting members, add the
                    # vertex, re-derive its coverage, test maximality.
                    candidate = (mask & ~vertex_adjacency) | vertex_bit
                    candidate_coverage = candidate
                    remaining = candidate
                    while remaining:
                        low = remaining & -remaining
                        candidate_coverage |= adjacency[low.bit_length() - 1]
                        remaining ^= low
                        stats.search_bitset_ops += 1
                    if prefix_mask & ~candidate_coverage == 0:
                        emit(
                            candidate,
                            self.fresh_lower(candidate, level + 1)
                            if prune
                            else 0.0,
                            candidate_coverage,
                        )
                    else:
                        stats.non_maximal_discarded += 1
            state.masks = next_masks
            state.lower = next_lower
            state.coverage = next_coverage
            state.level = level + 1
        return state.level >= n

    # ------------------------------------------------------------------
    def mask_assignment_cost(self, member_mask: int) -> float:
        """Grouped repair cost of fixing every outside vertex with the set.

        The bitset port of the reference ``_assignment_cost`` — same
        floats, same accumulation order (dense / ascending).
        """
        cost_rows = self.cost_rows
        assert cost_rows is not None, "kernel built without cost rows"
        members = mask_bits(member_mask)
        adjacency = self.adjacency
        multiplicities = self.multiplicities
        total = 0.0
        outside = self.full_mask & ~member_mask
        while outside:
            low = outside & -outside
            index = low.bit_length() - 1
            pool = adjacency[index] & member_mask
            row = cost_rows[index]
            cheapest = min(
                row[j] for j in (mask_bits(pool) if pool else members)
            )
            total += multiplicities[index] * cheapest
            outside ^= low
        return total


def better_candidate(
    cost: float,
    members: List[int],
    best_cost: float,
    best_members: Optional[List[int]],
) -> bool:
    """The winner comparator of ``best_maximal_independent_set``.

    Strictly-cheaper wins; within ``TIE_EPSILON`` the lexicographically
    smaller sorted member list wins. Used identically by the serial
    scan, by chunk-local scans in subtree workers, and by the parent's
    segment-ordered reduction — the fold is associative whenever costs
    are epsilon-separated, which is what keeps split winner selection
    byte-identical to the serial scan (``docs/parallelism.md``).
    """
    if cost < best_cost - TIE_EPSILON:
        return True
    return (
        abs(cost - best_cost) <= TIE_EPSILON
        and best_members is not None
        and members < best_members
    )


def select_best_mask(
    kernel: SearchKernel, masks: Sequence[int], order: Sequence[int]
) -> Optional[Tuple[int, float, List[int]]]:
    """Scan *masks* in order; return (mask, cost, sorted original members).

    The chunk-local half of the winner reduction: the same comparator,
    in frontier order, over the same floats as the serial scan.
    """
    best: Optional[Tuple[int, float, List[int]]] = None
    best_cost = float("inf")
    best_members: Optional[List[int]] = None
    for mask in masks:
        cost = kernel.mask_assignment_cost(mask)
        members = sorted(order[i] for i in mask_bits(mask))
        if better_candidate(cost, members, best_cost, best_members):
            best = (mask, cost, members)
            best_cost = cost
            best_members = members
    return best
