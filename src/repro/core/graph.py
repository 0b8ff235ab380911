"""The violation graph model (Section 3).

Vertices are (grouped) patterns of one FD; an undirected edge joins two
patterns in FT-violation. Each edge carries the **base cost**
``omega(u, v)`` — the unweighted Eq. (3) repair cost of rewriting one
projection into the other. With tuple grouping (Section 3.1) a vertex
stands for all tuples sharing the projection, so the *directed* cost of
repairing group ``u`` to value ``v`` is ``multiplicity(u) * omega(u, v)``
(the paper's directed grouped graph ``G'``).

Repairing with a maximal independent set ``I``:

* members of ``I`` keep their values (mutually FT-consistent),
* every non-member has, by maximality, at least one neighbor in ``I``
  and is rewritten to its cheapest such neighbor.

The search algorithms run on a **bitset view** of the graph
(:class:`ComponentMasks`, handed out by
:meth:`ViolationGraph.subgraph_masks`): the vertices of an induced
subgraph — typically one connected component — are renumbered densely
and every neighborhood becomes one Python big-int mask, so independence
checks, maximality checks, and ``FTC`` intersections collapse to a few
``&``/``|`` word operations instead of per-member set scans (see
``docs/search.md``). Views are cached per vertex order and invalidated
on mutation (:meth:`ViolationGraph.add_edge`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import Pattern, group_patterns
from repro.dataset.relation import Relation
from repro.index.registry import AttributeIndexRegistry
from repro.index.simjoin import DEFAULT_JOIN, SimilarityJoin
from repro.obs import span


def mask_bits(mask: int) -> List[int]:
    """The set bit positions of *mask*, ascending."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ComponentMasks:
    """Dense bitset view of the subgraph induced by an ordered vertex list.

    Position ``i`` of every list corresponds to ``order[i]``; bit ``i``
    of every mask likewise. Edges leaving the induced subgraph are
    dropped, so the view of a connected component is self-contained —
    the representation the expansion search and the greedy growth loops
    operate on. Instances are plain-Python (big ints, lists, dicts) and
    therefore pickle with their graph when a component crosses a process
    boundary, though in practice the executor builds graphs — and hence
    masks — worker-locally.
    """

    __slots__ = (
        "order",
        "index_of",
        "adjacency",
        "multiplicities",
        "full_mask",
        "_graph",
        "_cost_rows",
    )

    def __init__(self, graph: "ViolationGraph", order: Sequence[int]) -> None:
        self.order: Tuple[int, ...] = tuple(order)
        self.index_of: Dict[int, int] = {
            v: i for i, v in enumerate(self.order)
        }
        index_of = self.index_of
        adjacency: List[int] = []
        for v in self.order:
            mask = 0
            for u in graph.neighbors(v):
                j = index_of.get(u)
                if j is not None:
                    mask |= 1 << j
            adjacency.append(mask)
        #: per-vertex neighborhood bitmask (induced subgraph only)
        self.adjacency = adjacency
        self.multiplicities: List[int] = [
            graph.multiplicity(v) for v in self.order
        ]
        self.full_mask: int = (1 << len(self.order)) - 1
        self._graph = graph
        self._cost_rows: Optional[List[List[float]]] = None

    def __len__(self) -> int:
        return len(self.order)

    def to_mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of *vertices* (original ids) within this view."""
        mask = 0
        index_of = self.index_of
        for v in vertices:
            mask |= 1 << index_of[v]
        return mask

    def to_vertices(self, mask: int) -> List[int]:
        """Original vertex ids of the set bits, in dense order."""
        order = self.order
        return [order[i] for i in mask_bits(mask)]

    def cost_rows(self) -> List[List[float]]:
        """Dense pairwise Eq. (3) cost matrix over ``order`` (cached).

        ``cost_rows()[i][j] == graph.pair_cost(order[i], order[j])`` —
        the exact same memoized floats the set-based oracles read, laid
        out for O(1) indexed access in the bound computations.
        """
        if self._cost_rows is None:
            graph, order = self._graph, self.order
            self._cost_rows = [
                [graph.pair_cost(v, u) for u in order] for v in order
            ]
        return self._cost_rows


class ViolationGraph:
    """Grouped, weighted violation graph of one FD.

    Vertices are integers (positions into :attr:`patterns`); the pattern
    order is multiplicity-descending, which is also the expansion
    algorithm's recommended access order.
    """

    def __init__(
        self,
        fd: FD,
        model: DistanceModel,
        tau: float,
        patterns: Sequence[Pattern],
        edges: Iterable[Tuple[int, int, float]],
    ) -> None:
        self.fd = fd
        self.model = model
        self.tau = tau
        self.patterns: List[Pattern] = list(patterns)
        #: detection counters of the join that built this graph (empty
        #: when the graph was assembled from precomputed edges)
        self.join_counters: Dict[str, object] = {}
        self._adjacency: List[Dict[int, float]] = [dict() for _ in self.patterns]
        self._pair_cost_cache: Dict[Tuple[int, int], float] = {}
        for u, v, dist in edges:
            base = self._base_cost(u, v)
            self._adjacency[u][v] = base
            self._adjacency[v][u] = base
            # Keep the Eq. (2) distance around for diagnostics.
            self._pair_cost_cache[(min(u, v), max(u, v))] = base
            del dist  # the weighted distance defined the edge; cost drives repair
        # Cached at build time: edge_count sits on hot span/stats paths,
        # and the bitset views are pure functions of the adjacency. Both
        # invalidate together on mutation (add_edge).
        self._edge_count: int = sum(len(adj) for adj in self._adjacency) // 2
        self._masks_cache: Dict[Tuple[int, ...], ComponentMasks] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: Relation,
        fd: FD,
        model: DistanceModel,
        tau: float,
        join_strategy: str = DEFAULT_JOIN,
        grouping: bool = True,
        registry: Optional["AttributeIndexRegistry"] = None,
    ) -> "ViolationGraph":
        """Detect FT-violations of *fd* and assemble the graph.

        *grouping* off builds one vertex per tuple (the ungrouped graph
        of Section 3's opening; used by the grouping ablation).
        *registry* shares per-attribute detection indexes across graphs
        of one run (multi-FD repairs build one graph per FD, and FDs
        overlap in attributes); counters stay per-join deltas, so
        summing them over shared-registry graphs remains correct.
        """
        with span("graph", fd=fd.name) as graph_span:
            if grouping:
                patterns = group_patterns(relation, fd)
            else:
                bound = fd.bind(relation.schema)
                patterns = [
                    Pattern(relation.project_indexes(tid, bound.indexes), (tid,))
                    for tid in relation.tids()
                ]
            join = SimilarityJoin(
                fd, model, tau, strategy=join_strategy, registry=registry
            )
            position = {id(p): i for i, p in enumerate(patterns)}
            edges = [
                (position[id(v.left)], position[id(v.right)], v.distance)
                for v in join.join(patterns)
            ]
            graph = cls(fd, model, tau, patterns, edges)
            graph.join_counters = join.counters()
            graph_span.set(
                vertices=len(graph.patterns), edges=graph.edge_count
            )
        return graph

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def edge_count(self) -> int:
        """Undirected edge count, cached at build time."""
        return self._edge_count

    def add_edge(self, u: int, v: int, base_cost: Optional[float] = None) -> None:
        """Insert (or reprice) the undirected edge ``{u, v}``.

        *base_cost* defaults to the Eq. (3) cost between the patterns.
        Mutation invalidates the cached edge count bookkeeping and every
        bitset view handed out by :meth:`subgraph_masks`.
        """
        if u == v:
            raise ValueError("self-loops are not allowed in a violation graph")
        base = base_cost if base_cost is not None else self._base_cost(u, v)
        new = v not in self._adjacency[u]
        self._adjacency[u][v] = base
        self._adjacency[v][u] = base
        self._pair_cost_cache[(min(u, v), max(u, v))] = base
        if new:
            self._edge_count += 1
        self._masks_cache.clear()

    def subgraph_masks(
        self, vertices: Optional[Sequence[int]] = None
    ) -> ComponentMasks:
        """The cached :class:`ComponentMasks` view of an induced subgraph.

        *vertices* fixes both membership and the dense renumbering (the
        search algorithms pass their access order); ``None`` means the
        whole graph, where dense index == vertex id.
        """
        order = (
            tuple(vertices)
            if vertices is not None
            else tuple(range(len(self.patterns)))
        )
        hit = self._masks_cache.get(order)
        if hit is None:
            hit = ComponentMasks(self, order)
            self._masks_cache[order] = hit
        return hit

    def neighbors(self, u: int) -> Dict[int, float]:
        """Adjacent vertices of *u* with base edge costs."""
        return self._adjacency[u]

    def degree(self, u: int) -> int:
        return len(self._adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency[u]

    def multiplicity(self, u: int) -> int:
        return self.patterns[u].multiplicity

    def connected_components(self) -> List[List[int]]:
        """Vertex lists of the connected components (repair units)."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in range(len(self.patterns)):
            if start in seen:
                continue
            stack, component = [start], []
            seen.add(start)
            while stack:
                node = stack.pop()
                component.append(node)
                for nxt in self._adjacency[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            components.append(sorted(component))
        return components

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def _base_cost(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        hit = self._pair_cost_cache.get(key)
        if hit is None:
            hit = self.model.repair_cost(
                self.fd.attributes,
                self.patterns[u].values,
                self.patterns[v].values,
            )
            self._pair_cost_cache[key] = hit
        return hit

    def pair_cost(self, u: int, v: int) -> float:
        """Base Eq. (3) cost between any two vertices (edge or not)."""
        if u == v:
            return 0.0
        return self._base_cost(u, v)

    def repair_cost(self, u: int, v: int) -> float:
        """Directed grouped cost of rewriting group *u* to *v*'s values."""
        return self.multiplicity(u) * self.pair_cost(u, v)

    # ------------------------------------------------------------------
    # Independent sets
    # ------------------------------------------------------------------
    def is_independent(self, vertices: Iterable[int]) -> bool:
        """No edge joins two members (one ``&`` per member)."""
        masks = self.subgraph_masks()
        adjacency = masks.adjacency
        member_mask = masks.to_mask(vertices)
        remaining = member_mask
        while remaining:
            low = remaining & -remaining
            if adjacency[low.bit_length() - 1] & member_mask:
                return False
            remaining ^= low
        return True

    def is_maximal_independent(self, vertices: Iterable[int]) -> bool:
        """Independent, and no outside vertex can join.

        An outside vertex can join exactly when it misses the *coverage
        mask* — the union of the members and their neighborhoods — so
        maximality is one complement-and-test over the coverage.
        """
        masks = self.subgraph_masks()
        adjacency = masks.adjacency
        member_mask = masks.to_mask(vertices)
        coverage = member_mask
        remaining = member_mask
        while remaining:
            low = remaining & -remaining
            index = low.bit_length() - 1
            if adjacency[index] & member_mask:
                return False  # not independent
            coverage |= adjacency[index]
            remaining ^= low
        return masks.full_mask & ~coverage == 0

    def consistent_subset(self, u: int, vertices: Iterable[int]) -> FrozenSet[int]:
        """``FTC(u, I)``: members of *vertices* not adjacent to *u*."""
        masks = self.subgraph_masks()
        kept = masks.to_mask(vertices) & ~masks.adjacency[u]
        return frozenset(masks.to_vertices(kept))

    def best_repair_target(
        self, u: int, independent_set: Iterable[int]
    ) -> Optional[int]:
        """Cheapest member of *independent_set* to rewrite *u* to.

        Prefers FT-violating neighbors (the paper's repair rule); falls
        back to the globally cheapest member when *u* has no neighbor in
        the set (only possible for non-maximal sets).
        """
        members = list(independent_set)
        if not members:
            return None
        adjacency = self._adjacency[u]
        neighbor_members = [v for v in members if v in adjacency]
        pool = neighbor_members if neighbor_members else members
        return min(pool, key=lambda v: (self.pair_cost(u, v), v))

    def repair_assignment(
        self, independent_set: Iterable[int]
    ) -> Tuple[Dict[int, int], float]:
        """Map every non-member to its repair target; total grouped cost.

        This realizes "repairing based on a maximal independent set"
        (Section 3): members stay, non-members move to their cheapest
        neighbor inside the set.
        """
        member_set = set(independent_set)
        assignment: Dict[int, int] = {}
        total = 0.0
        for u in range(len(self.patterns)):
            if u in member_set:
                continue
            target = self.best_repair_target(u, member_set)
            if target is None:
                raise ValueError("cannot repair against an empty independent set")
            assignment[u] = target
            total += self.repair_cost(u, target)
        return assignment, total
