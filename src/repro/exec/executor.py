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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.detection import (
    DetectionReport,
    detection_report,
    fd_violations,
)
from repro.core.distances import DistanceModel
from repro.core.multi.appro import repair_multi_fd_appro
from repro.core.multi.exact import CombinationLimitError, repair_multi_fd_exact
from repro.core.multi.fdgraph import fd_components
from repro.core.multi.greedy import repair_multi_fd_greedy
from repro.core.repair import RepairResult, merge_results, squash_edits
from repro.core.single.exact import repair_single_fd_exact
from repro.core.single.greedy import repair_single_fd_greedy
from repro.core.single.mis import ExpansionLimitError
from repro.core.violation import FTViolation, group_patterns
from repro.dataset.relation import Relation
from repro.exec import shipping
from repro.exec.config import RepairConfig
from repro.exec.planner import plan_schedule
from repro.exec.shipping import RelationRef
from repro.exec.stats import DegradedRepairWarning, ExecutionStats
from repro.index.registry import AttributeIndexRegistry
from repro.obs import CounterRegistry, Tracer, activate, current_tracer, span
from repro.obs.counters import sum_layers

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
    #: ``SimilarityJoin.counters()``
    counters: Dict[str, Any]
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
        if isinstance(exc, ExpansionLimitError):
            # Attribute the trip: which budget, and how far the
            # expansion got.
            record["limit"] = exc.limit
            record["nodes_generated"] = exc.nodes_generated
            record["level"] = exc.level
        warnings.warn(
            f"{algorithm} exhausted its search budget on component {names}"
            f" ({type(exc).__name__}: {exc}); degrading to "
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
        )
    if algorithm == "greedy-m":
        return repair_multi_fd_greedy(
            relation,
            fds,
            model,
            thresholds,
            use_tree=config.use_tree,
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
    )


def _repair_sequential(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    algorithm: str,
    config: RepairConfig,
) -> RepairResult:
    """Apply the single-FD algorithm FD by FD on the evolving data.

    The steps' counters are summed into the result's stats.
    """
    current = relation
    edits: List = []
    total = 0.0
    counters = CounterRegistry()
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
                registry=registry,
            )
        else:
            step = repair_single_fd_greedy(
                current,
                fd,
                model,
                thresholds[fd],
                registry=registry,
            )
        current = step.relation
        edits.extend(step.edits)
        total += step.cost
        counters.merge(step.stats)
    return RepairResult(current, squash_edits(edits), total, counters.snapshot())


# ----------------------------------------------------------------------
# Worker entry points (must be module-level for pickling)
# ----------------------------------------------------------------------
def _traced(task, body, name: str, **attrs: Any):
    """Run ``body(task)`` under a span called *name*.

    In-process (the serial path) an active tracer already exists, so
    the task's spans nest live under the parent's ``execute`` span. In
    a worker process there is no inherited tracer; when the config asks
    for tracing, a worker-local tracer records the task and ships its
    serialized tree back in ``outcome.trace`` for the parent to graft.
    Exactly one of the two happens, which is what keeps merged span
    trees free of double counting at every n_jobs.
    """
    tracer = current_tracer()
    if tracer is not None and tracer.enabled:
        with tracer.span(name, **attrs):
            return body(task)
    if task.config.trace:
        local = Tracer(name, **attrs)
        with activate(local):
            outcome = body(task)
        outcome.trace = local.serialize()
        return outcome
    return body(task)


def _run_component_task(task: ComponentTask) -> ComponentOutcome:
    """Execute one component task; pure function of the task."""
    return _traced(
        task,
        _component_outcome,
        "component",
        index=task.index,
        group=task.group,
        fds=[fd.name for fd in task.fds],
    )


def _component_outcome(task: ComponentTask) -> ComponentOutcome:
    model = DistanceModel(
        task.relation, task.config.weights, task.config.distance_overrides
    )
    start = time.perf_counter()
    cpu0 = time.process_time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, meta = repair_component(
            task.relation,
            task.fds,
            model,
            dict(task.thresholds),
            task.config,
        )
    seconds = time.perf_counter() - start
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
        pid=os.getpid(),
        cpu_seconds=cpu_seconds,
        captured_warnings=[
            (w.category.__name__, str(w.message)) for w in caught
        ],
    )


def _run_detection_task(task: DetectionTask) -> DetectionOutcome:
    """Detect the FT-violations of one FD; pure function of the task."""
    return _traced(
        task, _detection_outcome, "fd", index=task.index, fd=task.fd.name
    )


def _detection_outcome(task: DetectionTask) -> DetectionOutcome:
    model = DistanceModel(
        task.relation, task.config.weights, task.config.distance_overrides
    )
    start = time.perf_counter()
    cpu0 = time.process_time()
    violations, counters = fd_violations(task.relation, task.fd, model, task.tau)
    cpu_seconds = time.process_time() - cpu0
    return DetectionOutcome(
        index=task.index,
        fd_name=task.fd.name,
        violations=violations,
        seconds=time.perf_counter() - start,
        counters=counters,
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
    ) -> RepairResult:
        """Repair *relation* against *fds*; input never mutated."""
        return self.repair_many([(relation, fds, thresholds)])[0]

    def repair_many(
        self,
        jobs: Sequence[Tuple[Relation, Sequence[FD], Dict[FD, float]]],
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

        per_fd = [
            {
                "fd": outcome.fd_name,
                "seconds": outcome.seconds,
                "cpu_seconds": outcome.cpu_seconds,
                "pid": outcome.pid,
                "violations": len(outcome.violations),
                **outcome.counters,
            }
            for outcome in outcomes
        ]
        stats = ExecutionStats(
            {
                "n_jobs": workers,
                "wall_seconds": elapsed,
                "worker_utilization": _utilization(outcomes, elapsed, workers),
                "components": per_fd,
                "violations": sum(len(o.violations) for o in outcomes),
            }
        )
        sum_layers(stats, (o.counters for o in outcomes), "index")
        stats.update(traffic)
        stats.update(snapshot)
        _register_stats(stats)
        report = detection_report(
            relation,
            fds,
            thresholds,
            {outcome.fd_name: outcome.violations for outcome in outcomes},
        )
        report.stats = stats
        report.timings = {"detect": elapsed}
        return report

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
        workers = self.config.effective_jobs(len(tasks))
        traffic: Dict[str, Any] = {
            "relations_shipped": 0,
            "relation_payload_bytes": 0,
            "relation_bytes_shipped": 0,
            "task_bytes_max": 0,
            "task_bytes_total": 0,
            "busy_skew_ratio": 1.0,
        }
        start = time.perf_counter()
        with span("execute", tasks=len(tasks)) as execute_span:
            if workers > 1:
                outcomes = self._run_pool(tasks, runner, workers, traffic)
            else:
                outcomes = [runner(task) for task in tasks]
            execute_span.set(n_jobs=workers, **traffic)
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
        traffic: Dict[str, Any],
    ) -> List[Any]:
        """The pool path: tasks submitted largest-estimated-first.

        The long pole starts immediately instead of wherever discovery
        order put it (:func:`~repro.exec.planner.plan_schedule`);
        outcomes come back in task order.
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
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=shipping.install,
                initargs=(payload,),
            ) as pool:
                futures = {
                    position: pool.submit(lean, tasks[position])
                    for position in plan_schedule(tasks)
                }
                outcomes = [
                    futures[position].result()
                    for position in range(len(tasks))
                ]
        except (TypeError, AttributeError) as exc:  # unpicklable
            raise RuntimeError(
                "parallel execution requires picklable FDs, "
                "relations and distance overrides (module-level "
                f"functions, not lambdas); underlying error: {exc}"
            ) from exc
        traffic["busy_skew_ratio"] = _busy_skew(outcomes)
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


def _busy_skew(outcomes) -> float:
    """Max/mean busy seconds across the worker processes that did the work.

    1.0 is a perfectly balanced run; a schedule with one giant
    component approaches the worker count.
    """
    busy: Dict[int, float] = {}
    for outcome in outcomes:
        busy[outcome.pid] = busy.get(outcome.pid, 0.0) + outcome.seconds
    values = list(busy.values())
    mean = sum(values) / len(values)
    if mean <= 0.0:
        return 1.0
    return max(values) / mean
