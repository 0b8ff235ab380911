"""Execution statistics and degradation signalling.

:class:`ExecutionStats` is a ``dict`` subclass: every algorithm counter
that used to live in the free-form ``RepairResult.stats`` mapping is
still there, under the same keys, and every existing ``stats["..."]``
consumer keeps working. On top of the mapping it adds typed, documented
accessors for the execution-layer fields the
:class:`~repro.exec.executor.RepairExecutor` records:

* per-component outcomes (``components``: algorithm used, wall seconds,
  graph size, degradation),
* distance-cache effectiveness (``cache_hits`` / ``cache_misses`` /
  ``cache_hit_rate``),
* parallel utilization (``n_jobs``, ``worker_utilization``),
* the degradation flag (``degraded`` / ``degraded_components``) set when
  an exact algorithm ran out of budget and fell back to greedy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class DegradedRepairWarning(RuntimeWarning):
    """An exact algorithm exhausted its budget and degraded to greedy.

    Emitted once per degraded component, naming the component and the
    exhausted budget, whether the degradation was pre-emptive
    (``component_budget``) or discovered mid-search (the anytime
    fallback on ``ExpansionLimitError`` / ``CombinationLimitError``).
    """


class ExecutionStats(dict):
    """Dict-compatible statistics of one executor run.

    Behaves exactly like the free-form stats mapping the algorithms have
    always produced (``stats["iterations"]`` etc.) while exposing the
    executor's structured fields as attributes::

        result = Repairer(fds, config=cfg).repair(relation)
        result.stats.degraded          # -> bool
        result.stats.cache_hit_rate    # -> float in [0, 1]
        result.stats["algorithm"]      # -> "greedy-m", as before
    """

    # -- execution layer ------------------------------------------------
    @property
    def n_jobs(self) -> int:
        """Effective worker count of the run (1 = serial)."""
        return int(self.get("n_jobs", 1))

    @property
    def components(self) -> List[Dict[str, Any]]:
        """Per-component records: index, fds, algorithm, seconds, size."""
        return list(self.get("components", ()))

    @property
    def wall_seconds(self) -> float:
        """End-to-end wall time of the execution phase."""
        return float(self.get("wall_seconds", 0.0))

    @property
    def worker_utilization(self) -> float:
        """Sum of per-component wall time over ``workers * elapsed``.

        1.0 means every worker was busy the whole run; a serial run
        reports 1.0 by construction (modulo scheduling noise).
        """
        return float(self.get("worker_utilization", 1.0))

    # -- adaptive scheduling --------------------------------------------
    @property
    def tasks_coordinated(self) -> int:
        """Tasks the planner ran in-parent for subtree splitting."""
        return int(self.get("tasks_coordinated", 0))

    @property
    def tasks_split(self) -> int:
        """Component searches whose frontier was cut into subtree tasks."""
        return int(self.get("tasks_split", 0))

    @property
    def subtree_tasks(self) -> int:
        """Subtree tasks dispatched to the pool (including re-splits)."""
        return int(self.get("subtree_tasks", 0))

    @property
    def steals(self) -> int:
        """Cooperative yields re-split into fresh subtree tasks."""
        return int(self.get("steals", 0))

    @property
    def incumbent_publishes(self) -> int:
        """Improved upper bounds written to the shared incumbent slots."""
        return int(self.get("incumbent_publishes", 0))

    @property
    def bound_exchange_hits(self) -> int:
        """Times a search adopted a tighter bound from another process."""
        return int(self.get("bound_exchange_hits", 0))

    @property
    def busy_skew_ratio(self) -> float:
        """Max over mean busy seconds per process (1.0 = balanced)."""
        return float(self.get("busy_skew_ratio", 1.0))

    # -- distance cache -------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return int(self.get("cache_hits", 0))

    @property
    def cache_misses(self) -> int:
        return int(self.get("cache_misses", 0))

    @property
    def cache_hit_rate(self) -> float:
        """Hits over probes of the memoized distance cache (0 when idle)."""
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    # -- relation shipping ---------------------------------------------
    @property
    def relation_bytes_shipped(self) -> int:
        """Encoded relation bytes that crossed the process boundary.

        ``pack()`` payload size times worker count for a pooled run
        (under the ``fork`` start method this is the copy-on-write upper
        bound; the initializer skips the decode entirely), 0 for serial
        runs where the relation never leaves the process.
        """
        return int(self.get("relation_bytes_shipped", 0))

    @property
    def task_bytes_max(self) -> int:
        """Largest per-task request message (pickled bytes) of the run."""
        return int(self.get("task_bytes_max", 0))

    @property
    def dict_hit_rate(self) -> float:
        """Interning hit rate of the input relation's value dictionaries.

        Hits over probes across all attribute dictionaries: high values
        mean heavy value repetition, i.e. the columnar encoding is
        paying for itself. 0.0 when unrecorded (e.g. empty relation).
        """
        return float(self.get("dict_hit_rate", 0.0))

    # -- degradation ----------------------------------------------------
    @property
    def detector_cells_flagged(self) -> Dict[str, int]:
        """detector name -> cells flagged ahead of this run.

        Filled by the engine when ``config.detectors`` lists detectors
        beyond the FD path (``docs/scenarios.md``); empty otherwise.
        """
        return dict(self.get("detector_cells_flagged") or {})

    @property
    def degraded(self) -> bool:
        """True when any component fell back from exact to greedy."""
        return bool(self.get("degraded", False))

    @property
    def degraded_components(self) -> List[Dict[str, Any]]:
        """The components that degraded: index, fds, reason, budget."""
        return list(self.get("degraded_components", ()))

    # -- pruning --------------------------------------------------------
    @property
    def pruning(self) -> Dict[str, int]:
        """Aggregated pruning counters harvested from algorithm stats."""
        out: Dict[str, int] = {}
        for key in (
            "possible_pairs",
            "candidates_generated",
            "pairs_examined",
            "pairs_filtered",
            "pairs_verified",
            "kernel_calls",
            "index_builds",
            "index_reuses",
            "distinct_pairs_examined",
            "tuple_fanout",
            "vector_filter_passes",
            "target_tree_nodes_visited",
            "target_tree_nodes_pruned",
            "target_tree_edist_hits",
            "nodes_expanded",
            "combinations_pruned",
            "search_nodes_expanded",
            "search_bitset_ops",
            "search_bound_hits",
            "search_dominance_prunes",
            "search_heap_revalidations",
        ):
            if key in self:
                out[key] = int(self[key])
        return out

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the possible detection pairs never examined.

        0.0 for full pair scans (every pair examined) and whenever the
        detection counters are absent; approaches 1.0 when the
        blocker union discards almost the entire cross product.
        """
        possible = int(self.get("possible_pairs", 0))
        if not possible:
            return 0.0
        examined = int(self.get("pairs_examined", 0))
        return 1.0 - min(1.0, examined / possible)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One compact human-readable line for summaries and the CLI."""
        bits = [f"n_jobs={self.n_jobs}"]
        if "components" in self:
            bits.append(f"{len(self.components)} component(s)")
        if self.wall_seconds:
            bits.append(f"{self.wall_seconds:.3f}s")
        probes = self.cache_hits + self.cache_misses
        if probes:
            bits.append(f"cache hit rate {self.cache_hit_rate:.0%}")
        if self.get("possible_pairs"):
            bits.append(f"pair reduction {self.reduction_ratio:.0%}")
        if self.get("distinct_pairs_examined"):
            bits.append(
                f"{int(self['distinct_pairs_examined'])} distinct pair(s) "
                f"-> {int(self.get('tuple_fanout', 0))} tuple pair(s) "
                f"in {int(self.get('vector_filter_passes', 0))} "
                f"vector pass(es)"
            )
        if self.relation_bytes_shipped:
            bits.append(
                f"shipped {self.relation_bytes_shipped / 1024:.0f}KiB "
                f"(max task {self.task_bytes_max}B)"
            )
        if self.tasks_split:
            bits.append(
                f"split {self.tasks_split} search(es) into "
                f"{self.subtree_tasks} subtree task(s), "
                f"{self.steals} steal(s)"
            )
        if self.bound_exchange_hits or self.incumbent_publishes:
            bits.append(
                f"bound exchange {self.bound_exchange_hits} hit(s)/"
                f"{self.incumbent_publishes} publish(es)"
            )
        if self.degraded:
            bits.append(f"degraded x{len(self.degraded_components)}")
        return ", ".join(bits)


def as_execution_stats(stats: Optional[Dict[str, Any]]) -> ExecutionStats:
    """Wrap a plain stats mapping without copying semantics."""
    if isinstance(stats, ExecutionStats):
        return stats
    return ExecutionStats(stats or {})
