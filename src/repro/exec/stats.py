"""Execution statistics and degradation signalling.

:class:`ExecutionStats` is a ``dict`` subclass: every algorithm counter
lives in the mapping under its schema name (``repro.obs.counters``), and
every ``stats["..."]`` consumer keeps working. On top of the mapping it
adds typed accessors — one per registered counter, generated from the
schema — and the execution-layer views the
:class:`~repro.exec.executor.RepairExecutor` records:

* per-component outcomes (``components``: algorithm used, wall seconds,
  graph size, degradation),
* the detection and search work counters (``pruning``),
* the degradation flag (``degraded`` / ``degraded_components``) set when
  an exact algorithm ran out of budget and fell back to greedy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.counters import COUNTERS, SCHEMA

#: schema layers whose counters :attr:`ExecutionStats.pruning` reports
_WORK_LAYERS = ("index", "graph", "single", "multi")
#: units whose accessors return ``float``; every other counter is an int
_FLOAT_UNITS = ("s", "ratio")
#: accessor defaults for counters an unrecorded run reads as non-zero
_DEFAULTS = {"n_jobs": 1, "worker_utilization": 1.0, "busy_skew_ratio": 1.0}


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
    always produced (``stats["iterations"]`` etc.) while exposing every
    registered counter outside the serve layer as a typed attribute::

        result = Repairer(fds, config=cfg).repair(relation)
        result.stats.degraded          # -> bool
        result.stats.pairs_examined    # -> int, 0 when unrecorded
        result.stats["algorithm"]      # -> "greedy-m", as before
    """

    def __getattr__(self, name: str) -> Any:
        """The counter *name* as an int (a float for seconds and ratios)."""
        counter = SCHEMA.get(name)
        if counter is None or counter.layer == "serve":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = self.get(name, _DEFAULTS.get(name, 0))
        return float(value) if counter.unit in _FLOAT_UNITS else int(value)

    # -- execution layer ------------------------------------------------
    @property
    def components(self) -> List[Dict[str, Any]]:
        """Per-component records: index, fds, algorithm, seconds, size."""
        return list(self.get("components", ()))

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

    # -- detection and search work ---------------------------------------
    @property
    def pruning(self) -> Dict[str, int]:
        """The recorded counters of the detection join, the violation
        graph and the single- and multi-FD searches, in schema order."""
        return {
            counter.name: int(self[counter.name])
            for counter in COUNTERS
            if counter.layer in _WORK_LAYERS and counter.name in self
        }

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the possible detection pairs never examined.

        0.0 for full pair scans (every pair examined) and whenever the
        detection counters are absent; approaches 1.0 when the
        blocker union discards almost the entire cross product.
        """
        if not self.possible_pairs:
            return 0.0
        return 1.0 - min(1.0, self.pairs_examined / self.possible_pairs)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One compact human-readable line for summaries and the CLI."""
        bits = [f"n_jobs={self.n_jobs}"]
        if "components" in self:
            bits.append(f"{len(self.components)} component(s)")
        if self.wall_seconds:
            bits.append(f"{self.wall_seconds:.3f}s")
        if self.possible_pairs:
            bits.append(f"pair reduction {self.reduction_ratio:.0%}")
        if self.distinct_pairs_examined:
            bits.append(
                f"{self.distinct_pairs_examined} distinct pair(s) "
                f"-> {self.tuple_fanout} tuple pair(s) "
                f"in {self.vector_filter_passes} vector pass(es)"
            )
        if self.relation_bytes_shipped:
            bits.append(
                f"shipped {self.relation_bytes_shipped / 1024:.0f}KiB "
                f"(max task {self.task_bytes_max}B)"
            )
        if self.degraded:
            bits.append(f"degraded x{len(self.degraded_components)}")
        return ", ".join(bits)


def as_execution_stats(stats: Optional[Dict[str, Any]]) -> ExecutionStats:
    """Wrap a plain stats mapping without copying semantics."""
    if isinstance(stats, ExecutionStats):
        return stats
    return ExecutionStats(stats or {})
