"""Unified observability: phase spans, counters, RSS, run reports.

The single place a repair run's "where did the time go" question is
answered. PRs 1-3 each grew their own bookkeeping (``ExecutionStats``,
``ViolationGraph.join_counters``, kernel call counts); this package
gives them one spine:

* :func:`span` / :class:`Tracer` — hierarchical phase spans over
  monotonic timers (``with span("detect", fd=...):``), no-ops unless a
  tracer is active (``RepairConfig(trace=True)`` / CLI ``--trace``);
* :data:`~repro.obs.counters.COUNTERS` — the one schema of every
  reported counter (layer, unit, definition, kind);
* :class:`CounterRegistry` — the unified counter store; the executor
  backs one registry per run by the ``ExecutionStats`` dict itself, so
  stats are a *view* of the registry, not a parallel copy;
* :class:`RunReport` — the JSON run report (spans tree + counters +
  config + dataset fingerprint) behind ``Repairer.report()`` and the
  CLI ``--report out.json``;
* :func:`peak_rss_bytes` — dependency-free peak-RSS sampling.

See ``docs/observability.md`` for the API walkthrough, the report
schema, and how perfbench and the ``GATES`` table in
``benchmarks/check_all_gates.py`` measure and check runs.
"""

from repro.obs.counters import CounterRegistry, merged_snapshot
from repro.obs.report import (
    RunReport,
    build_report,
    dataset_fingerprint,
    format_phase_table,
    jsonable,
    repair_output_hash,
)
from repro.obs.rss import peak_rss_bytes
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    add_counters,
    current_tracer,
    span,
)

__all__ = [
    "CounterRegistry",
    "NULL_SPAN",
    "RunReport",
    "Span",
    "Tracer",
    "activate",
    "add_counters",
    "build_report",
    "current_tracer",
    "dataset_fingerprint",
    "format_phase_table",
    "jsonable",
    "merged_snapshot",
    "peak_rss_bytes",
    "repair_output_hash",
    "span",
]
