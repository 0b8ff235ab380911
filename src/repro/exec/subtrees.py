"""Subtree tasks: splitting one component's winner search across the pool.

The executor's unit of scheduling is the connected component — until
one component dominates the run. This module implements the
sub-component unit for the Exact-S winner search: a
:class:`SubtreeSpec` is one contiguous chunk of a branch-and-bound
frontier cut at a level boundary
(:class:`~repro.core.single.frontier.FrontierState`), shipped to a pool
worker and explored there by the exact same kernel loop
(:func:`explore_subtree` is a pure function of its spec).

Specs are self-contained on purpose: the adjacency masks,
multiplicities, Eq. (5) min-out terms and Eq. (6) cost rows travel as
plain floats, so workers never rebuild a distance model — both sides of
the split compute with bit-identical numbers, which is half of the
determinism argument. The other half is the merge
(:class:`PoolSubtreeDispatcher.explore`): chunks score their own
candidates and return chunk winners; the parent reduces them in
segment-lineage order with the serial comparator
(:func:`~repro.core.single.frontier.better_candidate`). The shared
incumbent bound (:mod:`repro.exec.bounds`) may only prune
provably-beaten sets, so the winner is unchanged.

Work stealing is cooperative: every spec carries the ``yield_nodes``
checkpoint; a subtree that outgrows it returns its (folded) frontier
state instead of a result, and the dispatcher re-splits that state into
fresh chunks — the straggler's work is redistributed without ever
interrupting a worker. Lineage segments (``(3,)`` → ``(3, 0)``,
``(3, 1)``, …) keep the merge order deterministic across any stealing
schedule. Past ``MAX_RESPLIT_DEPTH`` a straggler is resubmitted whole,
still under the quantum.

Budget: ``max_nodes`` bounds the *merged* node count. Each chunk starts
counting from the merged total at its cut, and the dispatcher re-checks
the total after every chunk result or yield; once it passes
``max_nodes`` the pending chunks are cancelled and
:class:`~repro.core.single.frontier.ExpansionLimitError` carries the
lineage of the chunk that crossed it. Because no chunk runs past the
quantum without reporting back, a trip costs at most about one quantum
of extra nodes — never a hang (``docs/parallelism.md``).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.single.frontier import (
    ExpansionLimitError,
    ExpansionStats,
    FrontierState,
    SearchKernel,
    better_candidate,
    select_best_mask,
)
from repro.core.single.subtree import SplitRequest, SubtreeDispatcher
from repro.exec import bounds
from repro.obs import span

#: cooperative checkpoint: a subtree yields its state back for
#: re-splitting after generating this many nodes (the steal quantum)
SUBTREE_YIELD_NODES = 75_000

#: chunks a split frontier is cut into; on the 600-row, chain-40 skew
#: workload at n_jobs=2, fanouts 2/4/16/64 took 3.12/2.18/1.21/1.24 s
SUBTREE_FANOUT = 16

#: lineage depth past which a straggler is resubmitted whole, not re-split
MAX_RESPLIT_DEPTH = 3

#: a chunk's winner: (mask, cost, sorted original members)
Winner = Tuple[int, float, List[int]]


@dataclass(frozen=True)
class SubtreeSpec:
    """One independently explorable chunk of a cut frontier."""

    segment: Tuple[int, ...]  #: lineage path; the deterministic merge key
    prune: bool
    fd_name: str
    order: Tuple[int, ...]  #: original vertex ids (winner tie-breaks)
    adjacency: Tuple[int, ...]
    multiplicities: Tuple[int, ...]
    min_out: Optional[Tuple[float, ...]]
    cost_rows: Tuple[Tuple[float, ...], ...]
    level: int
    masks: Tuple[int, ...]
    lower: Tuple[float, ...]
    coverage: Tuple[int, ...]
    best_upper: float
    nodes_so_far: int  #: merged node count at the cut
    max_nodes: Optional[int]
    yield_nodes: int
    bound_slot: Optional[int]


@dataclass
class SubtreeResult:
    """What a worker ships back for one :class:`SubtreeSpec`."""

    segment: Tuple[int, ...]
    finished: bool
    #: finished: the chunk winner, or None when no candidate survived
    winner: Optional[Winner]
    #: not finished: the resumable state for re-splitting
    state: Optional[Dict[str, Any]]
    candidates: int  #: final-frontier size (sets this chunk enumerated)
    stats: Dict[str, int]  #: worker ExpansionStats snapshot
    nodes_generated: int  #: absolute count (includes nodes_so_far)
    seconds: float
    pid: int
    bound_hits: int
    bound_publishes: int


def explore_subtree(spec: SubtreeSpec) -> SubtreeResult:
    """Worker entry: explore one frontier chunk to completion or yield.

    Pure bitset search over the shipped floats — no relation, no
    distance model, no index state. Raises
    :class:`~repro.core.single.frontier.ExpansionLimitError` when the
    chunk (on top of the merged count at its cut) exceeds ``max_nodes``.
    """
    start = time.perf_counter()
    stats = ExpansionStats()
    stats.nodes_generated = spec.nodes_so_far
    kernel = SearchKernel(
        adjacency=spec.adjacency,
        multiplicities=spec.multiplicities,
        prune=spec.prune,
        min_out=spec.min_out,
        cost_rows=spec.cost_rows,
    )
    state = FrontierState(
        level=spec.level,
        masks=list(spec.masks),
        lower=list(spec.lower),
        coverage=list(spec.coverage),
        best_upper=spec.best_upper,
    )
    bound = bounds.slot_bound(spec.bound_slot)
    finished = kernel.advance(
        state,
        stats,
        max_nodes=spec.max_nodes,
        yield_budget=spec.yield_nodes,
        bound=bound,
    )
    winner = None
    shipped_state: Optional[Dict[str, Any]] = None
    candidates = 0
    if finished:
        candidates = len(state.masks)
        winner = select_best_mask(kernel, state.masks, spec.order)
    else:
        # advance() folds pending uppers before yielding, so the state
        # ships without them and re-splits cleanly at the boundary.
        shipped_state = {
            "level": state.level,
            "masks": state.masks,
            "lower": state.lower,
            "coverage": state.coverage,
            "best_upper": state.best_upper,
        }
    return SubtreeResult(
        segment=spec.segment,
        finished=finished,
        winner=winner,
        state=shipped_state,
        candidates=candidates,
        stats=stats.as_dict(),
        nodes_generated=stats.nodes_generated,
        seconds=time.perf_counter() - start,
        pid=os.getpid(),
        bound_hits=bound.hits if bound is not None else 0,
        bound_publishes=bound.publishes if bound is not None else 0,
    )


def _chunk_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced [lo, hi) slices of ``range(total)``."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    slices = []
    lo = 0
    for k in range(parts):
        hi = lo + base + (1 if k < extra else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


class PoolSubtreeDispatcher(SubtreeDispatcher):
    """Dispatch subtree specs onto the executor's worker pool.

    Created per run in the parent process; ``wants`` refuses to
    activate in any other process, so a ``fork`` started mid-dispatch
    (workers inherit the installed contextvar) can never recurse.
    """

    def __init__(self, pool, config, exchange, counters: Dict[str, Any]):
        self._pool = pool
        self._config = config
        self._exchange = exchange  #: parent-side BoundExchange or None
        self.counters = counters
        self.busy: Dict[int, float] = {}  #: pid -> subtree busy seconds
        self.wait_seconds = 0.0
        self._pid = os.getpid()
        #: read at construction so tests can shrink the quantum / fanout
        self._yield_nodes = SUBTREE_YIELD_NODES
        self._fanout = SUBTREE_FANOUT

    # -- SubtreeDispatcher ------------------------------------------------
    def wants(self, n_vertices: int) -> bool:
        if os.getpid() != self._pid:
            return False
        threshold = self._config.split_threshold
        return threshold is not None and n_vertices >= threshold

    def fanout(self) -> int:
        return self._fanout

    def explore(self, request: SplitRequest) -> Optional[Winner]:
        state, kernel = request.state, request.kernel
        slot = None
        if kernel.prune and self._exchange is not None:
            slot = self._exchange.acquire(state.best_upper)
        specs = self._cut(request, state, slot, base=(), parts=self._fanout)
        with span(
            "mis/split",
            fd=request.fd_name,
            chunks=len(specs),
            frontier=len(state.masks),
            level=state.level,
        ) as split_span:
            results, children = self._drive(request, specs)
            winner = self._merge(request, specs, results, children)
            split_span.set(
                subtree_tasks=self.counters["subtree_tasks"],
                steals=self.counters["steals"],
            )
        return winner

    # -- internals --------------------------------------------------------
    def _cut(
        self,
        request: SplitRequest,
        state: FrontierState,
        slot: Optional[int],
        base: Tuple[int, ...],
        parts: int,
    ) -> List[SubtreeSpec]:
        kernel = request.kernel
        assert kernel.cost_rows is not None  # the winner scan needs them
        cost_rows = tuple(tuple(row) for row in kernel.cost_rows)
        min_out = tuple(kernel.min_out) if kernel.prune else None
        return [
            SubtreeSpec(
                segment=base + (k,),
                prune=kernel.prune,
                fd_name=request.fd_name,
                order=tuple(request.order),
                adjacency=tuple(kernel.adjacency),
                multiplicities=tuple(kernel.multiplicities),
                min_out=min_out,
                cost_rows=cost_rows,
                level=state.level,
                masks=tuple(state.masks[lo:hi]),
                lower=tuple(state.lower[lo:hi]),
                coverage=tuple(state.coverage[lo:hi]),
                best_upper=state.best_upper,
                nodes_so_far=request.stats.nodes_generated,
                max_nodes=request.max_nodes,
                yield_nodes=self._yield_nodes,
                bound_slot=slot,
            )
            for k, (lo, hi) in enumerate(_chunk_bounds(len(state.masks), parts))
        ]

    def _submit(self, specs: List[SubtreeSpec]) -> Dict[Any, SubtreeSpec]:
        self.counters["subtree_tasks"] += len(specs)
        for spec in specs:
            size = len(pickle.dumps(spec, protocol=5))
            self.counters["subtree_bytes_total"] += size
            if size > self.counters["subtree_bytes_max"]:
                self.counters["subtree_bytes_max"] = size
        return {self._pool.submit(explore_subtree, spec): spec for spec in specs}

    def _drive(self, request: SplitRequest, specs: List[SubtreeSpec]):
        """Run specs to completion, re-splitting cooperative yields.

        The merged node total is checked after every result or yield,
        so a budget trip cancels the pending chunks instead of letting
        each of them spend its own allowance.
        """
        self.counters["tasks_split"] += 1
        pending = self._submit(specs)
        results: Dict[Tuple[int, ...], SubtreeResult] = {}
        children: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        stats = request.stats
        try:
            while pending:
                waited = time.perf_counter()
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                self.wait_seconds += time.perf_counter() - waited
                for future in done:
                    spec = pending.pop(future)
                    try:
                        result = future.result()
                    except ExpansionLimitError as exc:
                        exc.subtree = spec.segment
                        raise
                    stats.merge_delta(
                        ExpansionStats(**result.stats), spec.nodes_so_far
                    )
                    self.busy[result.pid] = (
                        self.busy.get(result.pid, 0.0) + result.seconds
                    )
                    self.counters["bound_exchange_hits"] += result.bound_hits
                    self.counters["incumbent_publishes"] += (
                        result.bound_publishes
                    )
                    if (
                        request.max_nodes is not None
                        and stats.nodes_generated > request.max_nodes
                    ):
                        exc = ExpansionLimitError(
                            request.max_nodes,
                            stats.nodes_generated,
                            stats.levels,
                        )
                        exc.subtree = spec.segment
                        raise exc
                    if result.finished:
                        results[spec.segment] = result
                        continue
                    # Straggler: re-split its returned frontier state, or
                    # past the depth cap resubmit it whole (one child).
                    deep = len(spec.segment) >= MAX_RESPLIT_DEPTH
                    if not deep:
                        self.counters["steals"] += 1
                    assert result.state is not None
                    replacements = self._cut(
                        request,
                        FrontierState(**result.state),
                        spec.bound_slot,
                        base=spec.segment,
                        parts=1 if deep else self._fanout,
                    )
                    children[spec.segment] = [
                        s.segment for s in replacements
                    ]
                    pending.update(self._submit(replacements))
        except BaseException:
            # Queued chunks are cancelled; running ones (which the pool
            # would otherwise wait for) prune out at their next level.
            for future in pending:
                future.cancel()
            if self._exchange is not None:
                self._exchange.abandon(specs[0].bound_slot)
            raise
        return results, children

    def _merge(
        self,
        request: SplitRequest,
        specs: List[SubtreeSpec],
        results: Dict[Tuple[int, ...], SubtreeResult],
        children: Dict[Tuple[int, ...], List[Tuple[int, ...]]],
    ) -> Optional[Winner]:
        """Reduce chunk winners in lineage order with the serial comparator."""
        ordered: List[SubtreeResult] = []

        def visit(segment: Tuple[int, ...]) -> None:
            if segment in children:
                for child in children[segment]:
                    visit(child)
            else:
                ordered.append(results[segment])

        for spec in specs:
            visit(spec.segment)

        request.stats.sets_enumerated = sum(r.candidates for r in ordered)
        best: Optional[Winner] = None
        best_cost = float("inf")
        best_members: Optional[List[int]] = None
        for result in ordered:
            if result.winner is None:
                continue
            _, cost, members = result.winner
            if better_candidate(cost, members, best_cost, best_members):
                best = result.winner
                best_cost, best_members = cost, members
        return best
