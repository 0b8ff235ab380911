"""The parallel component-sharded repair executor.

Theorem 5 (the FD graph) and Section 3 (the violation graph) make
repair embarrassingly parallel: connected components never interact, so
each one is an independent work unit. This module turns that insight
into an execution layer:

* :class:`ComponentTask` — one schedulable unit: repair one FD-graph
  component of one relation under one :class:`~repro.exec.config.RepairConfig`.
* :func:`repair_component` — the per-component algorithm dispatch
  (moved here from the old ``Repairer._repair_component``), including
  the budget-based algorithm auto-selection and the anytime fallback.
* :class:`RepairExecutor` — shards a repair (or a whole batch of
  repairs) into component tasks, runs them serially (``n_jobs=1``) or
  across a ``ProcessPoolExecutor``, and merges results in stable
  component order.

**Determinism guarantee.** Every task is a pure function of its inputs
and results are merged in component order, so ``result.edits``,
``result.cost`` and the repaired relation are byte-identical for every
``n_jobs`` value. Warnings raised inside workers are captured and
re-emitted in the parent, in component order, so even the warning
stream is reproducible. See ``docs/parallelism.md``.

**Degradation.** Exact algorithms can exhaust their search budgets. The
executor handles this in two places, both loudly: pre-emptively, when a
component's violation-graph size exceeds ``config.component_budget``
(the exact search is hopeless, so its greedy counterpart runs instead);
and mid-search, when the expansion raises
``ExpansionLimitError`` / ``CombinationLimitError`` and
``fallback="greedy"`` is configured. Either way a
:class:`~repro.exec.stats.DegradedRepairWarning` is emitted and the
component is recorded in ``result.stats.degraded_components``.

**Bitset views and workers.** The search kernels operate on
:class:`~repro.core.graph.ComponentMasks` bitset views cached per
violation graph (``docs/search.md``). The views are plain Python state
(big-int masks and float lists), so tasks pickle cleanly; each worker
rebuilds its graphs' views lazily on first search, keeping shipped task
payloads small while the per-component kernels stay worker-local.

**Relation shipping.** Tasks do not embed the relation: they carry a
:class:`~repro.exec.shipping.RelationRef` resolved against a
process-local registry, and the encoded relation travels to each worker
exactly once through the pool *initializer*
(:mod:`repro.exec.shipping`: pickle-5 heads plus out-of-band column
buffers; a no-op under ``fork``, where workers inherit the registry
copy-on-write). Per-task request messages are down to component ids,
FD masks and the config; workers ship results back without the repaired
relation (the parent re-applies edits when merging). The measured
traffic lands in ``ExecutionStats`` as ``relation_bytes_shipped``,
``task_bytes_max`` / ``task_bytes_total`` and ``dict_hit_rate``.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.detection import DetectionReport, classify_violations
from repro.core.distances import DistanceModel
from repro.core.multi.appro import repair_multi_fd_appro
from repro.core.multi.exact import CombinationLimitError, repair_multi_fd_exact
from repro.core.multi.fdgraph import fd_components
from repro.core.multi.greedy import repair_multi_fd_greedy
from repro.core.repair import RepairResult, merge_results, squash_edits
from repro.core.single.exact import repair_single_fd_exact
from repro.core.single.greedy import repair_single_fd_greedy
from repro.core.single.mis import ExpansionLimitError
from repro.core.single.subtree import use_dispatcher
from repro.core.violation import FTViolation, group_patterns
from repro.dataset.relation import Relation
from repro.detect.base import (
    DetectorVerdict,
    install_flags,
    merge_verdicts,
    pack_flags,
    unpack_flags,
)
from repro.exec import bounds, shipping
from repro.exec.bounds import BoundExchange
from repro.exec.cache import shared_model
from repro.exec.config import RepairConfig
from repro.exec.planner import (
    SPLITTABLE_ALGORITHMS,
    SchedulePlan,
    plan_schedule,
)
from repro.exec.shipping import RelationRef
from repro.exec.subtrees import PoolSubtreeDispatcher
from repro.exec.stats import DegradedRepairWarning, ExecutionStats
from repro.index.registry import AttributeIndexRegistry
from repro.index.simjoin import SimilarityJoin
from repro.obs import CounterRegistry, Tracer, activate, current_tracer, span

#: exact algorithm -> the greedy algorithm it degrades to
GREEDY_COUNTERPART = {"exact-m": "greedy-m", "exact-s": "greedy-s"}

#: warning categories that may cross the process boundary
_WARNING_CATEGORIES = {
    "DegradedRepairWarning": DegradedRepairWarning,
    "DeprecationWarning": DeprecationWarning,
    "RuntimeWarning": RuntimeWarning,
    "UserWarning": UserWarning,
}


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComponentTask:
    """Repair one FD-graph component of one relation.

    The relation itself is not embedded: ``relation_ref`` is a
    :class:`~repro.exec.shipping.RelationRef` into the process-local
    registry (filled by :func:`~repro.exec.shipping.publish` in the
    parent and by the pool initializer in workers), which keeps the
    per-task message at component ids + FD masks + config.
    """

    index: int  #: merge position within the owning relation
    group: int  #: which relation of a batch this task belongs to
    relation_ref: RelationRef
    fds: Tuple[FD, ...]
    thresholds: Tuple[Tuple[FD, float], ...]  #: materialized per-FD taus
    config: RepairConfig
    #: packed detector flag map (:func:`repro.detect.pack_flags`) the
    #: worker installs around the component repair so violation-graph
    #: builds can annotate flagged vertices; ``None`` (the FD-only
    #: path) keeps the task message byte-for-byte what it was before
    #: detectors existed
    flags: Optional[Tuple[Tuple[int, str, Tuple[str, ...]], ...]] = None

    @property
    def relation(self) -> Relation:
        """The task's relation, resolved from the registry."""
        return shipping.resolve(self.relation_ref)


@dataclass
class ComponentOutcome:
    """What a worker ships back for one :class:`ComponentTask`."""

    index: int
    group: int
    result: RepairResult
    seconds: float
    algorithm: str  #: the algorithm that actually ran
    fd_names: List[str]  #: the component's FDs, in order
    patterns: int  #: largest per-FD violation-graph size of the component
    degraded: Optional[Dict[str, Any]]
    cache_hits: int
    cache_misses: int
    #: executing process and its CPU time — ``time.process_time`` is
    #: immune to time-sharing, so the scheduler's busy-skew accounting
    #: stays meaningful even on oversubscribed machines
    pid: int = 0
    cpu_seconds: float = 0.0
    captured_warnings: List[Tuple[str, str]] = field(default_factory=list)
    #: serialized worker-local span tree (n_jobs>1 with trace on); the
    #: parent grafts it under its live ``execute`` span. ``None`` when
    #: the task ran in-process (its spans nested live — never both).
    trace: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class DetectionTask:
    """Detect FT-violations of one FD of one relation."""

    index: int
    relation_ref: RelationRef
    fd: FD
    tau: float
    config: RepairConfig

    @property
    def relation(self) -> Relation:
        """The task's relation, resolved from the registry."""
        return shipping.resolve(self.relation_ref)


@dataclass
class DetectionOutcome:
    index: int
    fd_name: str
    violations: List[FTViolation]
    seconds: float
    possible_pairs: int
    candidates_generated: int
    pairs_examined: int
    pairs_filtered: int
    pairs_verified: int
    kernel_calls: int
    index_builds: int
    index_reuses: int
    blocker: Optional[str]
    cache_hits: int
    cache_misses: int
    #: distinct-dictionary-id counters; nonzero only for ``vectorized``
    distinct_pairs_examined: int = 0
    tuple_fanout: int = 0
    vector_filter_passes: int = 0
    #: executing process and CPU time (see ComponentOutcome)
    pid: int = 0
    cpu_seconds: float = 0.0
    #: serialized worker-local span tree (see ComponentOutcome.trace)
    trace: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# Per-component repair (the former Repairer._repair_component)
# ----------------------------------------------------------------------
def component_size(
    relation: Relation, fds: Sequence[FD]
) -> Tuple[int, Dict[str, int]]:
    """Violation-graph node counts of a component: (max, per-FD).

    The violation graph of an FD has one vertex per distinct projection
    pattern, so the pattern count *is* the graph size — and it is
    computable in one linear scan, long before any quadratic join.
    """
    sizes = {fd.name: len(group_patterns(relation, fd)) for fd in fds}
    return (max(sizes.values()) if sizes else 0), sizes


def repair_component(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    config: RepairConfig,
) -> Tuple[RepairResult, Dict[str, Any]]:
    """Repair one FD-graph component; returns (result, execution meta).

    Meta records the algorithm actually used, the component's graph
    size, and a degradation record when an exact search was skipped
    (``component_budget``) or abandoned (anytime fallback).
    """
    algorithm = config.algorithm
    patterns, sizes = component_size(relation, fds)
    names = [fd.name for fd in fds]
    meta: Dict[str, Any] = {
        "algorithm": algorithm,
        "patterns": patterns,
        "pattern_sizes": sizes,
        "degraded": None,
    }

    # Budget-based auto-selection: exact search on an oversized component
    # is hopeless; degrade up front rather than mid-expansion.
    budget = config.component_budget
    if algorithm in GREEDY_COUNTERPART and budget is not None and patterns > budget:
        degraded_to = GREEDY_COUNTERPART[algorithm]
        warnings.warn(
            f"component {names} has {patterns} violation-graph node(s), "
            f"over the component_budget of {budget}; degrading "
            f"{algorithm} -> {degraded_to} for this component",
            DegradedRepairWarning,
            stacklevel=2,
        )
        meta["degraded"] = {
            "fds": names,
            "reason": "component_budget",
            "budget": budget,
            "patterns": patterns,
            "from": algorithm,
            "to": degraded_to,
        }
        algorithm = degraded_to

    meta["algorithm"] = algorithm
    try:
        result = _dispatch(relation, fds, model, thresholds, algorithm, config)
    except (ExpansionLimitError, CombinationLimitError) as exc:
        if config.fallback != "greedy":
            raise
        degraded_to = GREEDY_COUNTERPART[algorithm]
        record = {
            "fds": names,
            "reason": "budget_exhausted",
            "error": type(exc).__name__,
            "from": algorithm,
            "to": degraded_to,
        }
        where = ""
        if isinstance(exc, ExpansionLimitError):
            # Attribute the trip: which budget, how far the expansion
            # got, and — when a split search degraded — which subtree
            # chunk hit the wall (its lineage segment).
            record["limit"] = exc.limit
            record["nodes_generated"] = exc.nodes_generated
            record["level"] = exc.level
            if exc.subtree is not None:
                record["subtree"] = list(exc.subtree)
                lineage = "/".join(str(part) for part in exc.subtree)
                where = f" in split subtree {lineage}"
        warnings.warn(
            f"{algorithm} exhausted its search budget on component {names}"
            f"{where} ({type(exc).__name__}: {exc}); degrading to "
            f"{degraded_to} for this component",
            DegradedRepairWarning,
            stacklevel=2,
        )
        meta["degraded"] = record
        meta["algorithm"] = degraded_to
        result = _dispatch(relation, fds, model, thresholds, degraded_to, config)
        result.stats["fallback_from"] = algorithm
    if meta["degraded"] is not None:
        result.stats["degraded"] = True
    return result, meta


def _dispatch(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    algorithm: str,
    config: RepairConfig,
) -> RepairResult:
    """Run *algorithm* on one component (no fallback handling)."""
    if algorithm in ("exact-s", "greedy-s"):
        return _repair_sequential(relation, fds, model, thresholds, algorithm, config)
    if algorithm == "appro-m":
        return repair_multi_fd_appro(
            relation,
            fds,
            model,
            thresholds,
            use_tree=config.use_tree,
            join_strategy=config.join_strategy,
        )
    if algorithm == "greedy-m":
        return repair_multi_fd_greedy(
            relation,
            fds,
            model,
            thresholds,
            use_tree=config.use_tree,
            join_strategy=config.join_strategy,
        )
    # exact-m
    return repair_multi_fd_exact(
        relation,
        fds,
        model,
        thresholds,
        use_tree=config.use_tree,
        max_nodes=config.max_nodes,
        max_combinations=config.max_combinations,
        join_strategy=config.join_strategy,
    )


def _repair_sequential(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    algorithm: str,
    config: RepairConfig,
) -> RepairResult:
    """Apply the single-FD algorithm FD by FD on the evolving data."""
    current = relation
    edits: List = []
    total = 0.0
    # One registry across the FD loop: attributes untouched by earlier
    # repairs reuse their indexes, changed ones fail validation and
    # rebuild (the registry checks its value set per call).
    registry = AttributeIndexRegistry()
    for fd in fds:
        if algorithm == "exact-s":
            # ExpansionLimitError propagates to repair_component, which
            # owns the (warned) greedy fallback.
            step = repair_single_fd_exact(
                current,
                fd,
                model,
                thresholds[fd],
                max_nodes=config.max_nodes,
                join_strategy=config.join_strategy,
                registry=registry,
            )
        else:
            step = repair_single_fd_greedy(
                current,
                fd,
                model,
                thresholds[fd],
                join_strategy=config.join_strategy,
                registry=registry,
            )
        current = step.relation
        edits.extend(step.edits)
        total += step.cost
    return RepairResult(current, squash_edits(edits), total, {})


# ----------------------------------------------------------------------
# Worker entry points (must be module-level for pickling)
# ----------------------------------------------------------------------
def _run_component_task(task: ComponentTask) -> ComponentOutcome:
    """Execute one component task; pure function of the task.

    Tracing: in-process (the serial path) an active tracer already
    exists, so the task's spans nest live under the parent's
    ``execute`` span. In a worker process there is no inherited tracer;
    when the config asks for tracing, a worker-local tracer records the
    task and ships its serialized tree back in ``outcome.trace`` for
    the parent to graft. Exactly one of the two happens, which is what
    keeps merged span trees free of double counting at every n_jobs.
    """
    tracer = current_tracer()
    attrs = {
        "index": task.index,
        "group": task.group,
        "fds": [fd.name for fd in task.fds],
    }
    if tracer is not None and tracer.enabled:
        with tracer.span("component", **attrs):
            return _component_outcome(task)
    if task.config.trace:
        local = Tracer("component", **attrs)
        with activate(local):
            outcome = _component_outcome(task)
        outcome.trace = local.serialize()
        return outcome
    return _component_outcome(task)


def _component_outcome(task: ComponentTask) -> ComponentOutcome:
    model = shared_model(
        task.relation, task.config.weights, task.config.distance_overrides
    )
    hits0, misses0 = model.cache_hits, model.cache_misses
    start = time.perf_counter()
    cpu0 = time.process_time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with install_flags(unpack_flags(task.flags) if task.flags else None):
            result, meta = repair_component(
                task.relation,
                task.fds,
                model,
                dict(task.thresholds),
                task.config,
            )
    seconds = time.perf_counter() - start
    # process_time of a coordinated task naturally excludes its subtree
    # chunks' CPU — they burn cycles in worker processes — so per-unit
    # CPU accounting stays additive under splitting.
    cpu_seconds = time.process_time() - cpu0
    return ComponentOutcome(
        index=task.index,
        group=task.group,
        result=result,
        seconds=seconds,
        algorithm=meta["algorithm"],
        fd_names=[fd.name for fd in task.fds],
        patterns=meta["patterns"],
        degraded=meta["degraded"],
        cache_hits=model.cache_hits - hits0,
        cache_misses=model.cache_misses - misses0,
        pid=os.getpid(),
        cpu_seconds=cpu_seconds,
        captured_warnings=[
            (w.category.__name__, str(w.message)) for w in caught
        ],
    )


def _run_detection_task(task: DetectionTask) -> DetectionOutcome:
    """Detect the FT-violations of one FD; pure function of the task.

    Tracing follows the same live-or-shipped split as
    :func:`_run_component_task`.
    """
    tracer = current_tracer()
    if tracer is not None and tracer.enabled:
        with tracer.span("fd", index=task.index, fd=task.fd.name):
            return _detection_outcome(task)
    if task.config.trace:
        local = Tracer("fd", index=task.index, fd=task.fd.name)
        with activate(local):
            outcome = _detection_outcome(task)
        outcome.trace = local.serialize()
        return outcome
    return _detection_outcome(task)


def _detection_outcome(task: DetectionTask) -> DetectionOutcome:
    model = shared_model(
        task.relation, task.config.weights, task.config.distance_overrides
    )
    hits0, misses0 = model.cache_hits, model.cache_misses
    start = time.perf_counter()
    cpu0 = time.process_time()
    patterns = group_patterns(task.relation, task.fd)
    join = SimilarityJoin(
        task.fd, model, task.tau, strategy=task.config.join_strategy
    )
    violations = join.join(patterns)
    cpu_seconds = time.process_time() - cpu0
    return DetectionOutcome(
        index=task.index,
        fd_name=task.fd.name,
        violations=violations,
        seconds=time.perf_counter() - start,
        possible_pairs=join.possible_pairs,
        candidates_generated=join.candidates_generated,
        pairs_examined=join.pairs_examined,
        pairs_filtered=join.pairs_filtered,
        pairs_verified=join.pairs_verified,
        kernel_calls=join.kernel_calls,
        index_builds=join.index_builds,
        index_reuses=join.index_reuses,
        distinct_pairs_examined=join.distinct_pairs_examined,
        tuple_fanout=join.tuple_fanout,
        vector_filter_passes=join.vector_filter_passes,
        blocker=join.plan.describe() if join.plan is not None else None,
        cache_hits=model.cache_hits - hits0,
        cache_misses=model.cache_misses - misses0,
        pid=os.getpid(),
        cpu_seconds=cpu_seconds,
    )


def _run_component_task_lean(task: ComponentTask) -> ComponentOutcome:
    """Worker-side wrapper: drop the repaired relation from the response.

    The parent's merge re-applies the edits onto its own copy
    (:func:`~repro.core.repair.merge_results` never reads
    ``part.relation``), so shipping the repaired relation back would be
    pure pickle traffic. Used only on the pool path; the in-process path
    keeps the full outcome.
    """
    outcome = _run_component_task(task)
    outcome.result.relation = None  # type: ignore[assignment]
    return outcome


#: runner -> its response-slimming counterpart for the pool path
_LEAN_RUNNERS = {_run_component_task: _run_component_task_lean}


def _reemit(captured: Sequence[Tuple[str, str]]) -> None:
    """Replay warnings captured in a worker in the parent process."""
    for category_name, message in captured:
        category = _WARNING_CATEGORIES.get(category_name, UserWarning)
        warnings.warn(message, category, stacklevel=3)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class RepairExecutor:
    """Shard repairs into component tasks and run them under a config.

    ``n_jobs=1`` (the default) runs every task in-process, in order —
    the deterministic serial fallback. ``n_jobs>1`` fans tasks out over
    a ``ProcessPoolExecutor``; ``n_jobs=-1`` uses one worker per CPU.
    Results are identical either way (see the module docstring).

    The executor is stateless between calls; it can be reused across
    relations and is itself cheap to construct.
    """

    def __init__(self, config: Optional[RepairConfig] = None) -> None:
        self.config = config or RepairConfig()

    # ------------------------------------------------------------------
    def repair(
        self,
        relation: Relation,
        fds: Sequence[FD],
        thresholds: Dict[FD, float],
        verdicts: Optional[Sequence[DetectorVerdict]] = None,
    ) -> RepairResult:
        """Repair *relation* against *fds*; input never mutated.

        *verdicts* — detector verdicts (``config.detectors``) whose
        merged flag map annotates every component's violation graphs
        ahead of search. Advisory only: the repair is byte-identical
        with or without them.
        """
        return self.repair_many(
            [(relation, fds, thresholds)],
            verdicts=[verdicts] if verdicts else None,
        )[0]

    def repair_many(
        self,
        jobs: Sequence[Tuple[Relation, Sequence[FD], Dict[FD, float]]],
        verdicts: Optional[
            Sequence[Optional[Sequence[DetectorVerdict]]]
        ] = None,
    ) -> List[RepairResult]:
        """Repair a batch of (relation, fds, thresholds) jobs.

        All components of all jobs enter one task queue and share one
        worker pool — the unit of scheduling is the component, so a
        batch parallelizes even when each relation has few components.
        Results come back in job order, each merged in component order.
        """
        tasks: List[ComponentTask] = []
        # snapshot the input encodings before any repair interns repaired
        # values into the (shared) dictionaries — keeps dict_hit_rate a
        # property of the input, identical for every n_jobs
        snapshots = [_dict_snapshot(relation) for relation, _, _ in jobs]
        for group, (relation, fds, thresholds) in enumerate(jobs):
            ref = shipping.publish(relation)
            job_verdicts = verdicts[group] if verdicts else None
            flags = (
                pack_flags(merge_verdicts(job_verdicts))
                if job_verdicts
                else None
            ) or None
            for index, component in enumerate(fd_components(list(fds))):
                tasks.append(
                    ComponentTask(
                        index=index,
                        group=group,
                        relation_ref=ref,
                        fds=tuple(component),
                        thresholds=tuple(
                            (fd, float(thresholds[fd])) for fd in component
                        ),
                        config=self.config,
                        flags=flags,
                    )
                )
        outcomes, elapsed, workers, traffic = self._run(
            tasks, _run_component_task
        )

        results: List[RepairResult] = []
        utilization = _utilization(outcomes, elapsed, workers)
        for group, (relation, fds, thresholds) in enumerate(jobs):
            mine = sorted(
                (o for o in outcomes if o.group == group), key=lambda o: o.index
            )
            results.append(
                self._merge(
                    relation, list(fds), thresholds, mine, elapsed, workers,
                    utilization, {**traffic, **snapshots[group]},
                )
            )
        return results

    def detect(
        self,
        relation: Relation,
        fds: Sequence[FD],
        thresholds: Dict[FD, float],
    ) -> DetectionReport:
        """Detection only: one task per FD, merged in FD order."""
        ref = shipping.publish(relation)
        snapshot = _dict_snapshot(relation)
        tasks = [
            DetectionTask(
                index=i,
                relation_ref=ref,
                fd=fd,
                tau=float(thresholds[fd]),
                config=self.config,
            )
            for i, fd in enumerate(fds)
        ]
        outcomes, elapsed, workers, traffic = self._run(
            tasks, _run_detection_task
        )
        outcomes.sort(key=lambda o: o.index)

        violations: Dict[str, List[FTViolation]] = {}
        suspects: Dict[str, Set[int]] = {}
        likely: Dict[str, Set[int]] = {}
        per_fd: List[Dict[str, Any]] = []
        for outcome in outcomes:
            violations[outcome.fd_name] = outcome.violations
            tids, minority = classify_violations(outcome.violations)
            suspects[outcome.fd_name] = tids
            likely[outcome.fd_name] = minority
            per_fd.append(
                {
                    "fd": outcome.fd_name,
                    "seconds": outcome.seconds,
                    "cpu_seconds": outcome.cpu_seconds,
                    "pid": outcome.pid,
                    "violations": len(outcome.violations),
                    "possible_pairs": outcome.possible_pairs,
                    "candidates_generated": outcome.candidates_generated,
                    "pairs_examined": outcome.pairs_examined,
                    "pairs_filtered": outcome.pairs_filtered,
                    "pairs_verified": outcome.pairs_verified,
                    "kernel_calls": outcome.kernel_calls,
                    "index_builds": outcome.index_builds,
                    "index_reuses": outcome.index_reuses,
                    "distinct_pairs_examined": outcome.distinct_pairs_examined,
                    "tuple_fanout": outcome.tuple_fanout,
                    "vector_filter_passes": outcome.vector_filter_passes,
                    "blocker": outcome.blocker,
                }
            )
        stats = ExecutionStats(
            {
                "n_jobs": workers,
                "wall_seconds": elapsed,
                "worker_utilization": _utilization(outcomes, elapsed, workers),
                "components": per_fd,
                "violations": sum(len(o.violations) for o in outcomes),
                "cache_hits": sum(o.cache_hits for o in outcomes),
                "cache_misses": sum(o.cache_misses for o in outcomes),
                "possible_pairs": sum(o.possible_pairs for o in outcomes),
                "candidates_generated": sum(
                    o.candidates_generated for o in outcomes
                ),
                "pairs_examined": sum(o.pairs_examined for o in outcomes),
                "pairs_filtered": sum(o.pairs_filtered for o in outcomes),
                "pairs_verified": sum(o.pairs_verified for o in outcomes),
                "kernel_calls": sum(o.kernel_calls for o in outcomes),
                "index_builds": sum(o.index_builds for o in outcomes),
                "index_reuses": sum(o.index_reuses for o in outcomes),
                "distinct_pairs_examined": sum(
                    o.distinct_pairs_examined for o in outcomes
                ),
                "tuple_fanout": sum(o.tuple_fanout for o in outcomes),
                "vector_filter_passes": sum(
                    o.vector_filter_passes for o in outcomes
                ),
            }
        )
        stats.update(traffic)
        stats.update(snapshot)
        _register_stats(stats)
        return DetectionReport(
            relation_size=len(relation),
            thresholds={fd.name: float(thresholds[fd]) for fd in fds},
            violations=violations,
            suspects=suspects,
            likely_errors=likely,
            stats=stats,
            timings={"detect": elapsed},
        )

    # ------------------------------------------------------------------
    def _run(self, tasks, runner) -> Tuple[List[Any], float, int, Dict[str, Any]]:
        """Run tasks serially or across the pool; stable output order.

        Returns (outcomes, elapsed wall seconds, effective workers,
        traffic counters). Warnings captured inside tasks are re-emitted
        here, in task order, so the warning stream is identical for
        every n_jobs. When tracing, the whole run is one ``execute``
        span; worker-local span trees shipped in ``outcome.trace`` are
        grafted under it in task order (the in-process path nested its
        spans live instead).

        On the pool path the relations behind the tasks' refs are packed
        once (pickle-5, out-of-band column buffers) and delivered through
        the pool *initializer*; per-task messages carry only the ref.
        The traffic dict records what actually crossed (or would cross,
        under ``fork``'s copy-on-write inheritance) the process boundary.
        """
        capped = self.config.effective_jobs(len(tasks))
        raw = self.config.effective_jobs()
        splittable = (
            runner is _run_component_task
            and raw > 1
            and self.config.split_threshold is not None
            and self.config.algorithm in SPLITTABLE_ALGORITHMS
        )
        plan: Optional[SchedulePlan] = None
        if raw > 1 and (len(tasks) > 1 or splittable):
            plan = plan_schedule(
                tasks, raw, self.config.split_threshold, splittable
            )
        coordinated = set(plan.coordinated) if plan is not None else set()
        # A coordinated run keeps the full pool even with few tasks —
        # the giant component's subtree tasks are what fill it.
        workers = raw if coordinated else capped
        use_pool = workers > 1 and (len(tasks) > 1 or bool(coordinated))
        traffic: Dict[str, Any] = {
            "relations_shipped": 0,
            "relation_payload_bytes": 0,
            "relation_bytes_shipped": 0,
            "task_bytes_max": 0,
            "task_bytes_total": 0,
            "tasks_coordinated": len(coordinated),
            "tasks_split": 0,
            "subtree_tasks": 0,
            "steals": 0,
            "incumbent_publishes": 0,
            "bound_exchange_hits": 0,
            "subtree_bytes_total": 0,
            "subtree_bytes_max": 0,
            "busy_skew_ratio": 1.0,
        }
        start = time.perf_counter()
        with span("execute", tasks=len(tasks)) as execute_span:
            if not use_pool:
                workers = 1
                outcomes = [runner(task) for task in tasks]
            else:
                assert plan is not None
                outcomes = self._run_pool(
                    tasks, runner, workers, plan, coordinated, traffic
                )
            execute_span.set(
                n_jobs=workers,
                relation_bytes_shipped=traffic["relation_bytes_shipped"],
                task_bytes_max=traffic["task_bytes_max"],
                tasks_coordinated=traffic["tasks_coordinated"],
                tasks_split=traffic["tasks_split"],
                subtree_tasks=traffic["subtree_tasks"],
                steals=traffic["steals"],
                busy_skew_ratio=traffic["busy_skew_ratio"],
            )
            tracer = current_tracer()
            if tracer is not None and tracer.enabled:
                for outcome in outcomes:
                    tree = getattr(outcome, "trace", None)
                    if tree:
                        tracer.graft(tree)
        elapsed = time.perf_counter() - start
        for outcome in outcomes:
            _reemit(getattr(outcome, "captured_warnings", ()))
        return outcomes, elapsed, workers, traffic

    def _run_pool(
        self,
        tasks,
        runner,
        workers: int,
        plan: SchedulePlan,
        coordinated: Set[int],
        traffic: Dict[str, Any],
    ) -> List[Any]:
        """The pool path: planned submission plus coordinated execution.

        Plain tasks are submitted largest-estimated-first so the long
        pole starts immediately instead of wherever discovery order put
        it. Coordinated tasks (a dominant Exact-S component) run in the
        parent under a :class:`PoolSubtreeDispatcher` — their winner
        searches are cut into subtree tasks that interleave with the
        plain queue on the same pool. The shared incumbent array must
        be allocated and installed *before* the pool exists so forked
        workers inherit it.
        """
        payload = shipping.pack([task.relation_ref for task in tasks])
        sizes = [len(pickle.dumps(task, protocol=5)) for task in tasks]
        payload_bytes = shipping.payload_nbytes(payload)
        traffic.update(
            relations_shipped=len(payload),
            relation_payload_bytes=payload_bytes,
            relation_bytes_shipped=payload_bytes * workers,
            task_bytes_max=max(sizes),
            task_bytes_total=sum(sizes),
        )
        lean = _LEAN_RUNNERS.get(runner, runner)
        exchange: Optional[BoundExchange] = None
        if coordinated:
            exchange = BoundExchange()
            bounds.install(exchange.array)
        dispatcher: Optional[PoolSubtreeDispatcher] = None
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=shipping.install,
                initargs=(payload,),
            ) as pool:
                futures = {
                    position: pool.submit(lean, tasks[position])
                    for position in plan.order
                    if position not in coordinated
                }
                parented: Dict[int, Any] = {}
                if coordinated:
                    dispatcher = PoolSubtreeDispatcher(
                        pool, self.config, exchange, traffic
                    )
                    with use_dispatcher(dispatcher):
                        for position in plan.order:
                            if position in coordinated:
                                parented[position] = runner(tasks[position])
                outcomes = [
                    parented[position]
                    if position in parented
                    else futures[position].result()
                    for position in range(len(tasks))
                ]
        except (TypeError, AttributeError) as exc:  # unpicklable
            raise RuntimeError(
                "parallel execution requires picklable FDs, "
                "relations and distance overrides (module-level "
                f"functions, not lambdas); underlying error: {exc}"
            ) from exc
        finally:
            bounds.clear()
        traffic["busy_skew_ratio"] = _busy_skew(outcomes, dispatcher)
        return outcomes

    def _merge(
        self,
        relation: Relation,
        fds: List[FD],
        thresholds: Dict[FD, float],
        outcomes: List[ComponentOutcome],
        elapsed: float,
        workers: int,
        utilization: float,
        traffic: Dict[str, Any],
    ) -> RepairResult:
        merged = merge_results(relation, [o.result for o in outcomes])
        stats = ExecutionStats(merged.stats)
        stats["algorithm"] = self.config.algorithm
        stats["thresholds"] = {fd.name: float(thresholds[fd]) for fd in fds}
        stats["fd_components"] = len(outcomes)
        stats["n_jobs"] = workers
        stats["wall_seconds"] = elapsed
        stats["worker_utilization"] = utilization
        stats["components"] = [
            {
                "index": o.index,
                "fds": list(o.fd_names),
                "algorithm": o.algorithm,
                "seconds": o.seconds,
                "cpu_seconds": o.cpu_seconds,
                "pid": o.pid,
                "patterns": o.patterns,
                "degraded": o.degraded is not None,
            }
            for o in outcomes
        ]
        stats["cache_hits"] = sum(o.cache_hits for o in outcomes)
        stats["cache_misses"] = sum(o.cache_misses for o in outcomes)
        degraded = [o.degraded for o in outcomes if o.degraded is not None]
        stats["degraded"] = bool(degraded)
        stats["degraded_components"] = degraded
        stats.update(traffic)
        _register_stats(stats)
        merged.stats = stats
        merged.timings["execute"] = elapsed
        return merged


def _dict_snapshot(relation: Relation) -> Dict[str, Any]:
    """The input relation's dictionary-encoding stats, if columnar.

    Taken *before* execution: repairs intern repaired values into the
    (shared) dictionaries, so a post-run read would depend on where the
    repair ran. The snapshot is a property of the input encoding alone
    and therefore identical for every n_jobs.
    """
    dict_stats = getattr(relation, "dict_stats", None)
    if dict_stats is None:
        return {}
    snapshot = dict_stats()
    return {
        "dictionary_entries": snapshot["dictionary_entries"],
        "dict_hit_rate": snapshot["dict_hit_rate"],
    }


def _register_stats(stats: ExecutionStats) -> None:
    """Expose *stats* as the run's unified counter view.

    The registry is **backed by the ExecutionStats dict itself** — the
    stats object is the registry's storage, so the run report's
    ``counters`` section and ``result.stats`` read the same cells
    rather than keeping parallel bookkeeping (``docs/observability.md``).
    """
    tracer = current_tracer()
    if tracer is not None and tracer.enabled:
        tracer.register(CounterRegistry(backing=stats))


def _utilization(outcomes, elapsed: float, workers: int) -> float:
    busy = sum(o.seconds for o in outcomes)
    if elapsed <= 0 or workers <= 0:
        return 1.0
    return min(1.0, busy / (elapsed * workers))


def _busy_skew(outcomes, dispatcher) -> float:
    """Max/mean busy seconds across the processes that did the work.

    1.0 is a perfectly balanced run; a static schedule with one giant
    component approaches the worker count. Subtree busy time (tracked by
    the dispatcher per worker pid) is added to the pid that ran it, and
    the parent's coordinated time excludes the seconds it merely spent
    waiting on subtree futures.
    """
    parent = os.getpid()
    busy: Dict[int, float] = {}
    parent_busy = 0.0
    for outcome in outcomes:
        pid = getattr(outcome, "pid", 0)
        seconds = getattr(outcome, "seconds", 0.0)
        if pid == parent:
            parent_busy += seconds
        elif pid:
            busy[pid] = busy.get(pid, 0.0) + seconds
    if dispatcher is not None:
        for pid, seconds in dispatcher.busy.items():
            busy[pid] = busy.get(pid, 0.0) + seconds
        parent_busy = max(0.0, parent_busy - dispatcher.wait_seconds)
    if parent_busy > 0.0:
        busy[parent] = busy.get(parent, 0.0) + parent_busy
    if not busy:
        return 1.0
    values = list(busy.values())
    mean = sum(values) / len(values)
    if mean <= 0.0:
        return 1.0
    return max(values) / mean
