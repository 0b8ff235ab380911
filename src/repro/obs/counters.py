"""The counter schema, and the registries that store counter values.

Every scalar counter a run reports (``result.stats``,
``DetectionReport.stats``, ``RepairService.counters()`` and a run
report's ``counters``) is declared once, in :data:`COUNTERS`, as a
:class:`Counter` with its layer, unit, one-line definition and kind:

* ``invariant`` — a function of the input and the config alone: equal
  across reruns and for every ``n_jobs``;
* ``scheduling`` — depends on how the work was scheduled: the worker
  count, which process ran which task, or when serve requests arrived;
* ``timing`` — a wall-clock measurement; :meth:`RunReport.normalized`
  zeroes these.

Consumers read the schema instead of keeping their own name lists:
``ExecutionStats`` derives its accessors and ``pruning`` view from it,
:func:`sum_layers` sums a layer's counters (the detection join's are the
``index`` layer), and ``docs/observability.md`` carries its table.

A :class:`CounterRegistry` is one flat ``name -> number`` store. The
executor backs its registry by the :class:`~repro.exec.stats.ExecutionStats`
dict it assembles, so the stats object *is* the registry view; registries
registered with the active :class:`~repro.obs.trace.Tracer` are summed
into the run report's ``counters`` section.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    MutableMapping,
    NamedTuple,
    Optional,
    Union,
)

Number = Union[int, float]

KINDS = ("invariant", "scheduling", "timing")


class Counter(NamedTuple):
    """One registered counter: where it is counted and what it means."""

    name: str
    layer: str
    unit: str
    doc: str
    kind: str


#: every scalar counter a run reports, in pipeline order
COUNTERS = tuple(Counter(*row) for row in (
    ("dictionary_entries", "dataset", "entries", "distinct values interned in the input relation's attribute dictionaries, read before execution", "invariant"),
    ("dict_hit_rate", "dataset", "ratio", "1 - dictionary_entries / cells of the input relation: the share of cells repeating a value already in their dictionary (high = heavy value repetition)", "invariant"),
    ("possible_pairs", "index", "pattern pairs", "`P·(P−1)/2` over each FD's `P` projection patterns: what a full pair scan faces", "invariant"),
    ("candidates_generated", "index", "pattern pairs", "pattern pairs the join put on the table: the blocker union's output, or every pair on a scan", "invariant"),
    ("pairs_examined", "index", "pattern pairs", "pattern pairs the join inspected (equals `candidates_generated`); counts pattern pairs, not value pairs", "invariant"),
    ("pairs_filtered", "index", "pattern pairs", "examined pattern pairs a sound filter rejected before exact Eq. (2) verification (0 on `naive`)", "invariant"),
    ("pairs_verified", "index", "pattern pairs", "pattern pairs that reached the exact Eq. (2) accumulation (`pairs_examined − pairs_filtered`)", "invariant"),
    ("kernel_calls", "index", "calls", "Levenshtein evaluations the join ran: every distinct string pair the vectorized join settles or verifies, plus every differing string pair a scan compares", "invariant"),
    ("index_builds", "index", "indexes", "attribute indexes the join's registry built from scratch", "invariant"),
    ("index_reuses", "index", "indexes", "attribute indexes served from an earlier FD's work in the same registry", "invariant"),
    ("distinct_pairs_examined", "index", "value pairs", "distinct-value pairs per attribute that reached an exact settle or a verification batch; counts value pairs, not pattern pairs (0 on scans)", "invariant"),
    ("tuple_fanout", "index", "tuple pairs", "tuple pairs the candidate pattern pairs stand for (`Σ mult_i·mult_j`): a logical count, not work done (0 on scans)", "invariant"),
    ("vector_filter_passes", "index", "passes", "numpy filter passes the blocker union ran: length-band, q-gram count and band-window slices (0 on scans)", "invariant"),
    ("graph_vertices", "graph", "vertices", "violation-graph vertices (distinct patterns) the single-FD algorithms searched, summed over FDs", "invariant"),
    ("graph_edges", "graph", "edges", "violation-graph edges (FT-violating pattern pairs) the single-FD algorithms searched, summed over FDs", "invariant"),
    ("levels", "single", "levels", "last expansion level of the MIS enumeration (Sec. 3.1), summed over components", "invariant"),
    ("nodes_generated", "single", "nodes", "expansion-tree nodes the MIS enumeration generated; `max_nodes` bounds it", "invariant"),
    ("nodes_pruned", "single", "nodes", "expansion nodes cut because their Eq. (5) lower bound exceeded the Eq. (6) upper bound", "invariant"),
    ("non_maximal_discarded", "single", "nodes", "FTC children dropped because they are not maximal in the larger prefix", "invariant"),
    ("sets_enumerated", "single", "sets", "maximal independent sets the enumeration produced", "invariant"),
    ("search_nodes_expanded", "single", "nodes", "frontier nodes the expansion work-list processed", "invariant"),
    ("search_bitset_ops", "single", "ops", "big-int mask operations on the expansion hot path (conflict, FTC, coverage)", "invariant"),
    ("search_bound_hits", "single", "checks", "prune checks served by a bound carried from the parent level", "invariant"),
    ("search_dominance_prunes", "single", "nodes", "expansion paths merged into a prefix mask already in the frontier", "invariant"),
    ("search_heap_revalidations", "single", "entries", "stale lazy-heap entries the greedy growers (Greedy-S, Greedy-M) re-scored on pop", "invariant"),
    ("independent_set_size", "single", "vertices", "members of the Greedy-S independent sets, summed over FDs", "invariant"),
    ("iterations", "multi", "vertices", "vertices Greedy-M added from its lazy heap, after dominance seeding", "invariant"),
    ("exhaustive", "multi", "components", "Exact-M components whose search covered every combination (a flag per component, a count once summed)", "invariant"),
    ("combinations_total", "multi", "combinations", "combinations of per-FD candidate sets in the Exact-M product", "invariant"),
    ("combinations_scored", "multi", "combinations", "combinations Exact-M scored with a target search", "invariant"),
    ("combinations_pruned", "multi", "combinations", "combinations Exact-M skipped on its cost lower bound", "invariant"),
    ("combinations_infeasible", "multi", "combinations", "scored combinations that admit no target", "invariant"),
    ("component_attributes", "multi", "attributes", "attributes of the FD-graph components the multi-FD repair covered", "invariant"),
    ("distinct_projections", "multi", "projections", "distinct tuple projections on the component attributes", "invariant"),
    ("unresolved_projections", "multi", "projections", "projections not consistent with the chosen sets: one nearest-target query each", "invariant"),
    ("target_tree_nodes", "multi", "nodes", "nodes of the target trees built (Sec. 5), summed over components", "invariant"),
    ("targets_materialized", "multi", "targets", "targets the naive target join materialized (`use_tree=False`)", "invariant"),
    ("target_tree_searches", "multi", "searches", "`TargetTree.nearest_target` calls", "invariant"),
    ("target_tree_nodes_visited", "multi", "nodes", "nodes popped from the best-first heap, the leaf that ends each search included", "invariant"),
    ("target_tree_vectors", "multi", "vectors", "per-attribute distance vectors the target trees computed: one per distinct value a `TargetTree.prefetched` block (a `nearest_targets` or `repair_records` chunk) was missing from the memo, one per memo miss of a search outside such a block; in a served model the split between this and `target_tree_edist_hits` follows the micro-batch grouping", "invariant"),
    ("target_tree_edist_hits", "multi", "vectors", "distance vectors a search read ready-made: from the tree's memo, or computed beforehand by a `TargetTree.prefetched` block; in a served model the split between this and `target_tree_vectors` follows the micro-batch grouping", "invariant"),
    ("violations", "detect", "pattern pairs", "FT-violating pattern pairs `detect` found, summed over FDs", "invariant"),
    ("detector_cells_flagged", "detect", "cells", "cells a detector flagged (reported only, never read by repair); a run report holds one `detector_cells_flagged.<detector>` entry per detector", "invariant"),
    ("fd_components", "exec", "components", "FD-graph components repaired (Theorem 5's independent work units)", "invariant"),
    ("n_jobs", "exec", "workers", "worker processes the run used (1 = serial)", "scheduling"),
    ("wall_seconds", "exec", "s", "wall time of the execute phase", "timing"),
    ("worker_utilization", "exec", "ratio", "busy seconds over `workers × elapsed`", "timing"),
    ("busy_skew_ratio", "exec", "ratio", "max over mean busy seconds per process (1.0 = balanced)", "timing"),
    ("relations_shipped", "exec", "relations", "relations packed for a worker pool (0 when serial)", "scheduling"),
    ("relation_payload_bytes", "exec", "bytes", "bytes of the packed relation payload", "scheduling"),
    ("relation_bytes_shipped", "exec", "bytes", "payload bytes times workers: what crosses the process boundary", "scheduling"),
    ("task_bytes_max", "exec", "bytes", "largest pickled task message", "scheduling"),
    ("task_bytes_total", "exec", "bytes", "pickled task messages, summed", "scheduling"),
    ("serve_requests", "serve", "requests", "requests submitted to the micro-batcher", "invariant"),
    ("serve_batches", "serve", "batches", "micro-batches drained; how requests group follows their arrival", "scheduling"),
    ("serve_batch_mean_size", "serve", "requests", "requests per drained micro-batch", "scheduling"),
    ("serve_rejected", "serve", "requests", "requests refused under backpressure", "scheduling"),
    ("model_cache_hits", "serve", "fits", "`fit` calls served from the model cache", "invariant"),
    ("model_cache_misses", "serve", "fits", "`fit` calls that fitted a new model", "invariant"),
    ("model_cache_evictions", "serve", "models", "models evicted from the model cache", "invariant"),
    ("model_cache_size", "serve", "models", "models the cache holds", "invariant"),
    ("latency_count", "serve", "requests", "requests whose latency was recorded", "invariant"),
    ("latency_mean_ms", "serve", "ms", "mean end-to-end request latency", "timing"),
    ("latency_p50_ms", "serve", "ms", "median end-to-end request latency", "timing"),
    ("latency_p95_ms", "serve", "ms", "95th-percentile end-to-end request latency", "timing"),
    ("latency_p99_ms", "serve", "ms", "99th-percentile end-to-end request latency", "timing"),
    ("latency_max_ms", "serve", "ms", "largest end-to-end request latency", "timing"),
    ("queue_wait_mean_ms", "serve", "ms", "mean time a request waited for its batch", "timing"),
    ("queue_wait_max_ms", "serve", "ms", "longest time a request waited for its batch", "timing"),
    ("queue_depth", "serve", "requests", "requests queued when the counters were read", "scheduling"),
    ("queue_depth_peak", "serve", "requests", "most requests ever queued at once", "scheduling"),
    ("serve_elements_total", "serve", "elements", "fitted elements a linear scan of the absorb-mode consistency check would have examined (`IncrementalRepairer.counters`)", "invariant"),
    ("serve_elements_examined", "serve", "elements", "fitted elements the candidate-indexed consistency check verified (`IncrementalRepairer.counters`)", "invariant"),
    ("serve_index_probes", "serve", "probes", "per-FD candidate-index probes of the consistency check (`IncrementalRepairer.counters`)", "invariant"),
    ("serve_index_rebuilds", "serve", "indexes", "per-FD candidate indexes rebuilt because an absorb grew their elements (`IncrementalRepairer.counters`)", "invariant"),
    ("serve_records_seen", "serve", "records", "records the served models received", "invariant"),
    ("serve_records_repaired", "serve", "records", "records the served models changed", "invariant"),
    ("serve_records_absorbed", "serve", "records", "records absorbed into a fitted model (`absorb=True`), each counted once however many components absorbed it", "invariant"),
))

#: name -> its :class:`Counter`
SCHEMA: Dict[str, Counter] = {counter.name: counter for counter in COUNTERS}


def lookup(name: str) -> Optional[Counter]:
    """The counter registered as *name*, or ``None``.

    A dotted name such as ``detector_cells_flagged.regex`` resolves to
    its family, ``detector_cells_flagged``.
    """
    return SCHEMA.get(name.partition(".")[0])


def sum_layers(
    total: MutableMapping[str, Any],
    parts: Iterable[Mapping[str, Any]],
    *layers: str,
) -> None:
    """Add each part's counters of *layers* into *total*, in place."""
    names = [c.name for c in COUNTERS if c.layer in layers]
    for part in parts:
        for name in names:
            if name in part:
                total[name] = total.get(name, 0) + part[name]


def _is_counter_value(value: object) -> bool:
    """Scalar numerics only; bools are flags, not counters."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class CounterRegistry:
    """A flat ``name -> number`` counter store over a pluggable backing.

    >>> reg = CounterRegistry()
    >>> reg.inc("kernel_calls", 3)
    3
    >>> reg.inc("kernel_calls")
    4
    >>> reg.snapshot()
    {'kernel_calls': 4}

    Backed mode — the registry writes through to an existing mapping::

        stats = ExecutionStats()
        reg = CounterRegistry(backing=stats)
        reg.inc("pairs_examined", 10)   # visible as stats["pairs_examined"]
    """

    __slots__ = ("data",)

    def __init__(
        self, backing: Optional[MutableMapping[str, object]] = None
    ) -> None:
        self.data: MutableMapping[str, object] = (
            backing if backing is not None else {}
        )

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: Number = 1) -> Number:
        """Add *amount* to *name* (creating it at 0) and return the total."""
        current = self.data.get(name, 0)
        if not _is_counter_value(current):
            current = 0
        total = current + amount
        self.data[name] = total
        return total

    def set(self, name: str, value: object) -> None:
        self.data[name] = value

    def get(self, name: str, default: Number = 0) -> Number:
        value = self.data.get(name, default)
        return value if _is_counter_value(value) else default

    def merge(self, other: Mapping[str, object]) -> None:
        """Sum every scalar numeric of *other* into this registry."""
        for name, value in other.items():
            if _is_counter_value(value):
                self.inc(name, value)

    def snapshot(self) -> Dict[str, Number]:
        """The scalar-numeric subset, in insertion order (JSON-safe)."""
        return {
            name: value
            for name, value in self.data.items()
            if _is_counter_value(value)
        }

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self.data

    def __iter__(self) -> Iterator[str]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"CounterRegistry({self.snapshot()!r})"


def merged_snapshot(registries) -> Dict[str, Number]:
    """Sum the snapshots of an iterable of registries into one mapping."""
    out = CounterRegistry()
    for registry in registries:
        out.merge(registry.snapshot())
    return dict(out.snapshot())
