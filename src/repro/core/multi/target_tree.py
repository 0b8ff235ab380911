"""The target tree (Section 5): index + best-first nearest-target search.

Materializing the full join of per-FD independent sets can be
exponential; the target tree shares prefixes instead:

* level ``l_i`` holds the elements of the i-th independent set (sets are
  inserted smallest-first so the root fans out least, Section 5.1);
* a node is attached under every compatible level-(i-1) node — the path
  assignment must agree with the element on shared attributes;
* paths from the root to the deepest level are exactly the targets;
  shorter paths are pruned after construction;
* every node knows the attribute values appearing in its subtree,
  enabling the admissible estimate ``EDIST``.

Search (Algorithm 5) is best-first with
``f(v) = RDIST(v) + EDIST(v)``: the exact cost over attributes fixed by
the path so far, plus a per-attribute lower bound over the values still
reachable below. ``f`` never overestimates, so the first leaf popped
is ``C_min`` and ends the search.

Layout: each attribute's distinct element values are interned once into a
value table, and each level is a set of flat arrays — the value ids its
nodes fix, a parent index per node (children of one node are
contiguous), and per attribute still open at that level a CSR list of
the value ids in each node's subtree. A search reads one distance
vector per attribute against its value table; RDIST is then a gather
and EDIST an ``np.minimum.reduceat`` over the CSR slices.
:meth:`TargetTree.prefetched` computes the vectors of many queries with
one batched kernel call per attribute before they are searched.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import FD
from repro.core.distances import DistanceModel, PreparedKernel
from repro.core.multi.fdgraph import component_attributes
from repro.core.multi.targets import Target, TargetJoinError
from repro.index.qgram import batched_myers_texts, peq_table
from repro.obs import current_tracer

#: max recorded f-values of the first traced search (keeps reports small)
_TRAJECTORY_CAP = 512
#: queries per :meth:`TargetTree.nearest_targets` chunk: bounds how many
#: out-of-table distance vectors are held at once
_BATCH_QUERIES = 1024


class TreeLevel(NamedTuple):
    """One level of the tree, as :meth:`TargetTree.levels` reports it."""

    fd: FD
    #: each node's independent-set element, in ``fd.attributes`` order
    elements: List[Tuple]
    #: each node's parent index in the previous level (-1 on the first
    #: level: the root)
    parents: List[int]
    #: per node, the values below it of every attribute still open
    subtree_values: List[Dict[str, FrozenSet]]


class _ValueTable:
    """One attribute's distinct element values and their query distances."""

    __slots__ = ("attribute", "values", "ids", "kind", "_model", "_arrays")

    def __init__(self, attribute: str, model: DistanceModel) -> None:
        self.attribute = attribute
        self.values: List = []
        #: value -> id; equal values share an id
        self.ids: Dict[object, int] = {}
        #: "string", "numeric", or "scalar" (one model call per value)
        self.kind = ""
        self._model = model
        self._arrays: Tuple = ()

    def intern(self, value: object) -> int:
        vid = self.ids.get(value)
        if vid is None:
            vid = self.ids[value] = len(self.values)
            self.values.append(value)
        return vid

    def encode(self) -> None:
        """Lay the interned values out for :meth:`distances_many`.

        Overridden attributes, and numeric ones holding a value that
        does not coerce to float, stay on the model's scalar kernel.
        A string table keeps its PEQ table character-major, so each
        query character selects one contiguous row.
        """
        model, attr = self._model, self.attribute
        self.kind = "scalar"
        if model.has_override(attr):
            return
        if model.is_numeric(attr):
            try:
                values = np.array([float(v) for v in self.values], dtype=np.float64)
            except (TypeError, ValueError):
                return
            self.kind = "numeric"
            self._arrays = (values, model.spread(attr))
        else:
            self.kind = "string"
            texts = [str(v) for v in self.values]
            lengths, peq, vocabulary = peq_table(texts)
            self._arrays = (texts, lengths, np.ascontiguousarray(peq.T), vocabulary)

    @property
    def lengths(self) -> np.ndarray:
        """The ``int64`` value lengths of a string table."""
        return self._arrays[1]

    def distances(self, query: object) -> np.ndarray:
        """Eq. (1) distance from *query* to every value, as one vector."""
        return self.distances_many([query])[0]

    def distances_many(self, queries: Sequence) -> np.ndarray:
        """:meth:`distances` of every query, as the rows of one matrix.

        Exactly :meth:`DistanceModel.attribute_distance` per pair:
        strings through one batched Myers call (scalar Myers for values
        over one machine word), numerics as one expression per query,
        the rest pair by pair.
        """
        if self.kind == "string":
            return self._strings(queries)
        rows = np.empty((len(queries), len(self.values)), dtype=np.float64)
        for row, query in enumerate(queries):
            vector = self._numeric(query) if self.kind == "numeric" else None
            if vector is None:
                distance, attr = self._model.attribute_distance, self.attribute
                # + 0.0 turns an override's -0.0 into the 0.0 a sum starts from
                vector = np.array(
                    [distance(attr, query, v) for v in self.values], dtype=np.float64
                ) + 0.0
            rows[row] = vector
        return rows

    def _numeric(self, query: object) -> Optional[np.ndarray]:
        """``normalized_euclidean`` against every value, or ``None`` when
        the scalar kernel must decide (an uncoercible query, or a NaN
        that it rejects as out of ``[0, 1]``)."""
        values, spread = self._arrays
        try:
            point = float(query)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        if spread <= 0.0:
            return np.where(values == point, 0.0, 1.0)
        with np.errstate(invalid="ignore"):
            vector = np.where(
                values == point, 0.0, np.minimum(np.abs(values - point) / spread, 1.0)
            )
        if np.isnan(vector).any():
            return None
        return vector

    def _strings(self, queries: Sequence) -> np.ndarray:
        values, lengths, peq_t, vocabulary = self._arrays
        texts = [str(query) for query in queries]
        edits = batched_myers_texts(peq_t, lengths, vocabulary, texts)
        for col in np.nonzero(lengths > 63)[0].tolist():
            kernel = PreparedKernel(values[col])
            edits[:, col] = [kernel.compare(text) for text in texts]
        sizes = np.array([len(text) for text in texts], dtype=np.int64)
        # two empty strings are at distance 0 (0 edits over length 1)
        longest = np.maximum(np.maximum(lengths, sizes[:, None]), 1)
        return edits / longest


class _Level:
    """Flat arrays of one tree level (level 0 is the root alone).

    Value ids in ``rdist_ids`` / ``edist_ids`` are offset into the
    search's concatenation of every attribute's distance vector (in
    component attribute order), so one gather serves all attributes.
    """

    __slots__ = (
        "elements", "parents", "fixed", "children",
        "rdist_ids", "edist_ids", "edist_ptr", "open",
    )

    def __init__(self, elements, parents, fixed) -> None:
        #: element index (into the level's independent set) per node
        self.elements = elements
        self.parents = parents
        #: (attribute, value id per node) in path-assignment order
        self.fixed: List[Tuple[str, np.ndarray]] = fixed
        #: indptr of each node's child slice in the next level
        self.children: Optional[np.ndarray] = None
        #: node x fixed attribute, columns in path-assignment order
        self.rdist_ids = np.zeros((0, 0), dtype=np.int64)
        #: attributes still open, in component attribute order
        self.open: Tuple[str, ...] = ()
        #: CSR of subtree value ids, one segment per (node, open attr)
        self.edist_ids = np.zeros(0, dtype=np.int64)
        self.edist_ptr = np.zeros(1, dtype=np.int64)


def _dense_keys(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One dense int key per row of the stacked id *columns*."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        key = key * (int(column.max(initial=0)) + 1) + column
        key = np.unique(key, return_inverse=True)[1].reshape(-1)
    return key


class TargetTree:
    """Prefix-tree index over the join of per-FD independent sets.

    Parameters
    ----------
    fds:
        The FDs of one connected component of the FD graph.
    elements_per_fd:
        For each FD, the value tuples (in ``fd.attributes`` order) of its
        chosen independent set.
    model:
        Distance oracle used by the search.
    """

    def __init__(
        self,
        fds: Sequence[FD],
        elements_per_fd: Sequence[Sequence[Tuple]],
        model: DistanceModel,
    ) -> None:
        if len(fds) != len(elements_per_fd):
            raise ValueError("one element list per FD is required")
        self.model = model
        #: query/result attribute order — fixed by the *caller's* FD
        #: order, NOT by the internal level order below, so projections
        #: built by the caller line up with targets returned here.
        self.attributes: Tuple[str, ...] = tuple(component_attributes(fds))
        # Smallest sets first: minimal fan-out near the root (Sec. 5.1).
        order = sorted(range(len(fds)), key=lambda i: (len(elements_per_fd[i]), i))
        self.fds: List[FD] = [fds[i] for i in order]
        self._elements: List[List[Tuple]] = [list(elements_per_fd[i]) for i in order]
        self._tables = {attr: _ValueTable(attr, model) for attr in self.attributes}
        #: each attribute's start in a search's concatenated vectors
        self._offsets: Dict[str, int] = {}
        self._levels: List[_Level] = []
        self._build()
        self.node_count = sum(len(level.parents) for level in self._levels)
        #: (attribute, query value) -> distance vector, for query values
        #: in the attribute's value table only: bounded by the tree
        self._memo: Dict[Tuple[str, object], np.ndarray] = {}
        #: out-of-table vectors of the open :meth:`prefetched` block
        self._batch: Dict[Tuple[str, object], np.ndarray] = {}
        self.searches = 0
        self.nodes_visited = 0
        #: distance vectors a search read ready-made (memo or batch)
        self.edist_hits = 0
        #: distance vectors computed
        self.vectors = 0
        # Trace-gated f-value trajectory: the popped best-first f values
        # of the *first* search only, capped — enough to plot how fast
        # the bound converges without touching the hot path when off.
        tracer = current_tracer()
        self._record_trajectory = tracer is not None and tracer.enabled
        self.f_trajectory: List[float] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        root = np.zeros(1, dtype=np.int64)
        levels = [_Level(root, root - 1, [])]
        fixed: Dict[str, np.ndarray] = {}
        for fd, elements in zip(self.fds, self._elements):
            if not elements:
                raise TargetJoinError(f"empty independent set for {fd.name}")
            ids = {
                attr: np.array(
                    [self._tables[attr].intern(e[pos]) for e in elements],
                    dtype=np.int64,
                )
                for pos, attr in enumerate(fd.attributes)
            }
            # Hash-join on the attributes shared with the levels already
            # placed: every frontier node meets exactly the elements that
            # agree with its path, in element order.
            shared = [attr for attr in fd.attributes if attr in fixed]
            size = len(levels[-1].parents)
            keys = _dense_keys(
                [np.concatenate((ids[a], fixed[a])) for a in shared]
            ) if shared else np.zeros(len(elements) + size, dtype=np.int64)
            element_keys, node_keys = keys[: len(elements)], keys[len(elements):]
            by_key = np.argsort(element_keys, kind="stable")
            sorted_keys = element_keys[by_key]
            lo = np.searchsorted(sorted_keys, node_keys, "left")
            counts = np.searchsorted(sorted_keys, node_keys, "right") - lo
            total = int(counts.sum())
            if not total:
                raise TargetJoinError(
                    f"no target survives joining {fd.name}; the independent "
                    "sets disagree on shared attributes"
                )
            parents = np.repeat(np.arange(size), counts)
            starts = np.cumsum(counts) - counts
            chosen = by_key[np.repeat(lo - starts, counts) + np.arange(total)]
            fixed = {attr: column[parents] for attr, column in fixed.items()}
            for attr in fd.attributes:
                fixed.setdefault(attr, ids[attr][chosen])
            levels.append(_Level(chosen, parents, list(fixed.items())))
        self._prune(levels)
        self._levels = levels

    def _prune(self, levels: List[_Level]) -> None:
        """Drop branches that do not reach the last level (non-targets),
        then lay out child slices and RDIST/EDIST ids."""
        keeps = [np.ones(len(levels[-1].parents), dtype=bool)]
        for depth in range(len(levels) - 1, 1, -1):
            alive = np.zeros(len(levels[depth - 1].parents), dtype=bool)
            alive[levels[depth].parents[keeps[0]]] = True
            keeps.insert(0, alive)
        renumber = np.zeros(1, dtype=np.int64)
        for level, keep in zip(levels[1:], keeps):
            level.elements = level.elements[keep]
            level.parents = renumber[level.parents[keep]]
            level.fixed = [(a, ids[keep]) for a, ids in level.fixed]
            renumber = np.cumsum(keep) - 1
        sizes = [len(self._tables[a].values) for a in self.attributes]
        self._offsets = dict(zip(self.attributes, np.cumsum([0] + sizes).tolist()))
        for table in self._tables.values():
            table.encode()
        for level in levels[1:]:
            level.rdist_ids = np.stack(
                [ids + self._offsets[a] for a, ids in level.fixed], axis=1
            )
        # the leaf level fixes every attribute
        leaves = dict(levels[-1].fixed)
        # children of one node are contiguous, so a subtree's leaves are
        # one contiguous range of the last level
        leaf_ptr = np.arange(len(levels[-1].parents) + 1)
        for depth in range(len(levels) - 2, -1, -1):
            level, below = levels[depth], levels[depth + 1]
            size = len(level.parents)
            level.children = np.concatenate(
                ([0], np.cumsum(np.bincount(below.parents, minlength=size)))
            )
            leaf_ptr = leaf_ptr[level.children]
            if depth:
                self._layout_edist(level, leaves, leaf_ptr)

    def _layout_edist(self, level: _Level, leaves, leaf_ptr) -> None:
        """Each node's distinct leaf values per open attribute, node-major."""
        assigned = {attr for attr, _ in level.fixed}
        level.open = tuple(a for a in self.attributes if a not in assigned)
        if not level.open:
            return
        size = len(level.parents)
        owner = np.repeat(np.arange(size), np.diff(leaf_ptr))
        segments, ids = [], []
        for slot, attr in enumerate(level.open):
            width = len(self._tables[attr].values)
            pairs = np.unique(owner * width + leaves[attr])
            segments.append((pairs // width) * len(level.open) + slot)
            ids.append(pairs % width + self._offsets[attr])
        segment = np.concatenate(segments)
        order = np.argsort(segment, kind="stable")
        level.edist_ids = np.concatenate(ids)[order]
        counts = np.bincount(segment, minlength=size * len(level.open))
        level.edist_ptr = np.concatenate(([0], np.cumsum(counts)))

    # ------------------------------------------------------------------
    # Inspection (walkthroughs, tests, oracle cross-checks)
    # ------------------------------------------------------------------
    def levels(self) -> List[TreeLevel]:
        """Every level below the root: elements, parents, subtree values."""
        out: List[TreeLevel] = []
        for fd, elements, level in zip(self.fds, self._elements, self._levels[1:]):
            parents = level.parents.tolist() if out else [-1] * len(level.parents)
            ptr, ids = level.edist_ptr.tolist(), level.edist_ids.tolist()
            subtree: List[Dict[str, FrozenSet]] = [{} for _ in level.parents]
            for segment in range(len(ptr) - 1):
                node, slot = divmod(segment, len(level.open))
                attr = level.open[slot]
                values, offset = self._tables[attr].values, self._offsets[attr]
                span = ids[ptr[segment]: ptr[segment + 1]]
                subtree[node][attr] = frozenset(values[vid - offset] for vid in span)
            out.append(
                TreeLevel(
                    fd,
                    [elements[e] for e in level.elements.tolist()],
                    parents,
                    subtree,
                )
            )
        return out

    def targets(self) -> List[Target]:
        """Materialize every target (root-to-leaf path), in tree order."""
        return [self._target(leaf) for leaf in range(len(self._levels[-1].parents))]

    def _target(self, leaf: int) -> Target:
        ids = {attr: int(column[leaf]) for attr, column in self._levels[-1].fixed}
        return Target(
            self.attributes,
            tuple(self._tables[a].values[ids[a]] for a in self.attributes),
        )

    # ------------------------------------------------------------------
    # Best-first search (Algorithm 5)
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The search counters, under their stats names."""
        return {
            "target_tree_searches": self.searches,
            "target_tree_nodes_visited": self.nodes_visited,
            "target_tree_edist_hits": self.edist_hits,
            "target_tree_vectors": self.vectors,
        }

    @property
    def memo_size(self) -> int:
        """Distance vectors held by the memo."""
        return len(self._memo)

    @property
    def memo_capacity(self) -> int:
        """The most the memo can hold: the summed value-table sizes."""
        return sum(len(table.values) for table in self._tables.values())

    def _vector(self, attr: str, value: object) -> np.ndarray:
        key = (attr, value)
        vector = self._memo.get(key)
        if vector is None:
            vector = self._batch.get(key)
        if vector is not None:
            self.edist_hits += 1
            return vector
        table = self._tables[attr]
        self.vectors += 1
        vector = table.distances(value)
        if value in table.ids:
            self._memo[key] = vector
        return vector

    def _check_arity(self, tuple_values: Sequence) -> None:
        if len(tuple_values) != len(self.attributes):
            raise ValueError(
                f"expected {len(self.attributes)} values, got {len(tuple_values)}"
            )

    @contextmanager
    def prefetched(self, queries: Sequence[Sequence]):
        """Compute the distance vectors *queries* need before they are
        searched: per attribute, the distinct values missing from the
        memo get their vectors from one batched call. In-table vectors
        join the memo; out-of-table ones are dropped when the block
        exits. Searches inside the block read them ready-made and return
        exactly what they return without the prefetch.
        """
        for query in queries:
            self._check_arity(query)
        try:
            for pos, attr in enumerate(self.attributes):
                table = self._tables[attr]
                missing = [
                    value
                    for value in dict.fromkeys(query[pos] for query in queries)
                    if (attr, value) not in self._memo
                ]
                if not missing:
                    continue
                rows = table.distances_many(missing)
                self.vectors += len(missing)
                for value, row in zip(missing, rows):
                    if value in table.ids:
                        # a copy: a view would keep the whole matrix alive
                        self._memo[(attr, value)] = row.copy()
                    else:
                        self._batch[(attr, value)] = row
            yield
        finally:
            self._batch.clear()

    def nearest_targets(
        self, queries: Sequence[Sequence]
    ) -> List[Tuple[Target, float]]:
        """:meth:`nearest_target` of every query, in order: per chunk of
        ``_BATCH_QUERIES`` queries, a :meth:`prefetched` block, so at
        most one chunk's out-of-table vectors are held at once."""
        out: List[Tuple[Target, float]] = []
        for start in range(0, len(queries), _BATCH_QUERIES):
            chunk = queries[start: start + _BATCH_QUERIES]
            with self.prefetched(chunk):
                out.extend(self.nearest_target(query) for query in chunk)
        return out

    def nearest_target(
        self, tuple_values: Sequence
    ) -> Tuple[Target, float]:
        """The target with the minimum Eq. (3) cost to *tuple_values*.

        *tuple_values* follow :attr:`attributes` order. Returns the
        target and the exact repair cost over the component attributes.

        Siblings enter the heap lazily: an expansion sorts its children
        by ``(f, child index)`` and pushes only the first, and popping a
        child pushes its next sibling. A heap key is ``(f, expansion
        ordinal, child index)``, the order eager pushes under a global
        push counter give, so the pop sequence is the same.
        """
        self._check_arity(tuple_values)
        self.searches += 1
        vectors = np.concatenate([
            self._vector(attr, value)
            for attr, value in zip(self.attributes, tuple_values)
        ])
        levels = self._levels
        last = len(levels) - 1
        # per expansion: its first child's node index, its children in
        # (f, child index) order, and their f values; the root is
        # expansion 0's only child
        expansions: List[Tuple[int, List[int], List[float]]] = [(0, [0], [0.0])]
        # (f, expansion ordinal, node, depth, rank among its siblings)
        heap: List[Tuple[float, int, int, int, int]] = [(0.0, 0, 0, 0, 0)]
        record = self._record_trajectory and self.searches == 1
        trajectory = self.f_trajectory
        while heap:
            f_value, ordinal, node, depth, rank = heapq.heappop(heap)
            if record and len(trajectory) < _TRAJECTORY_CAP:
                trajectory.append(f_value)
            self.nodes_visited += 1
            if depth == last:
                # A leaf's f is its exact cost, and nothing left in the
                # queue is cheaper: it is C_min.
                return self._target(node), f_value
            first, order, f_values = expansions[ordinal]
            rank += 1
            if rank < len(order):
                sibling = order[rank]
                heapq.heappush(
                    heap, (f_values[sibling], ordinal, first + sibling, depth, rank)
                )
            indptr = levels[depth].children
            assert indptr is not None
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            f_children = self._f(levels[depth + 1], vectors, lo, hi)
            order = f_children.argsort(kind="stable").tolist()
            f_values = f_children.tolist()
            expansions.append((lo, order, f_values))
            best = order[0]
            heapq.heappush(
                heap, (f_values[best], len(expansions) - 1, lo + best, depth + 1, 0)
            )
        raise TargetJoinError("target tree is empty")

    @staticmethod
    def _f(level: _Level, vectors: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """RDIST + EDIST of the nodes ``lo:hi`` of *level*: exact cost of
        the fixed attributes plus a lower bound over attributes still
        open below each node.

        Both sums accumulate left to right in the scalar search's order
        — RDIST over the path assignment, EDIST over the component
        attributes — so every f is bit-identical to a per-node loop
        (distance vectors never hold ``-0.0``, so the loop's leading
        ``0.0 +`` is a no-op).
        """
        rdist = np.cumsum(vectors[level.rdist_ids[lo:hi]], axis=1)[:, -1]
        width = len(level.open)
        if not width:
            return rdist
        ptr = level.edist_ptr
        start, stop = ptr[lo * width], ptr[hi * width]
        bounds = np.minimum.reduceat(
            vectors[level.edist_ids[start:stop]], ptr[lo * width: hi * width] - start
        )
        edist = np.cumsum(bounds.reshape(-1, width), axis=1)[:, -1]
        return rdist + edist
