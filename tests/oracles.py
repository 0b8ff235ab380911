"""Reference implementations that only the tests (and gates) call.

Each oracle is a slow, obviously-correct version of a production path,
kept so differential suites can assert the fast path reproduces it:

* :func:`levenshtein_two_row` / :func:`levenshtein_banded` — the classic
  DP and Ukkonen's banded DP, against the Myers bit-parallel kernel in
  :mod:`repro.core.distances` (``tests/test_kernels.py``,
  ``tests/test_distances.py``, ``benchmarks/check_kernel_gate.py``);
* :func:`enumerate_maximal_independent_sets_setbased` — the pre-bitset
  expansion of Section 3.1, against the bitset engine in
  :mod:`repro.core.single.mis` (``tests/test_search_bitset.py``);
* :func:`brute_force_maximal_independent_sets` — subset enumeration,
  against the expansion algorithm (``tests/test_mis.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.graph import ViolationGraph
from repro.core.single.frontier import (
    ExpansionLimitError,
    ExpansionStats,
    min_outgoing_costs,
)


# ----------------------------------------------------------------------
# Levenshtein
# ----------------------------------------------------------------------
def levenshtein_two_row(a: str, b: str, upper_bound: Optional[int] = None) -> int:
    """The classic O(len_a * len_b) two-row dynamic program.

    Same early-abort contract as :func:`repro.core.distances.levenshtein`:
    exact whenever the result is ``<= upper_bound``, some value
    ``> upper_bound`` otherwise. The reference the Myers kernel is
    differentially tested (``tests/test_kernels.py``) and timed
    (``benchmarks/check_kernel_gate.py``) against.
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
    """Eq. (6): repair *every* outside vertex into the set right now.

    This is the cost of a concrete feasible repair, hence an upper bound
    on the optimum reachable from any superset of ``independent``.
    """
    total = 0.0
    members = list(independent)
    for v in vertices:
        if v in independent:
            continue
        total += graph.multiplicity(v) * min(
            graph.pair_cost(v, u) for u in members
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
                stats.duplicates_removed += 1
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
