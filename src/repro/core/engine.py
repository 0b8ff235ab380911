"""The repair engine: one facade over every algorithm in the paper.

:class:`Repairer` wires together threshold selection, the FD graph
decomposition (Theorem 5), the component-sharded
:class:`~repro.exec.RepairExecutor` (per-component algorithm dispatch,
optional worker-process parallelism), and repair merging:

* ``exact-s`` / ``greedy-s`` — Section 3 single-FD algorithms; on a
  multi-FD component they are applied *sequentially and independently*
  per FD (the paper's baseline treatment of single-FD repair in multi-FD
  settings).
* ``exact-m`` / ``appro-m`` / ``greedy-m`` — Section 4 joint algorithms,
  run once per connected FD-graph component.

Configuration lives in a frozen :class:`~repro.exec.RepairConfig`;
keyword overrides are applied on top of it. Typical use::

    from repro import FD, RepairConfig, Repairer
    fds = [FD.parse("City -> State"), FD.parse("City, Street -> District")]

    result = Repairer(fds, algorithm="greedy-m").repair(relation)

    # equivalently, with an explicit (shareable, immutable) config:
    config = RepairConfig(algorithm="greedy-m", n_jobs=4)
    result = Repairer(fds, config=config).repair(relation)
    clean = result.relation

The executor guarantees byte-identical output for every ``n_jobs``
value (see ``docs/parallelism.md``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.constraints import FD, validate_constraints
from repro.core.distances import DistanceModel, Weights
from repro.core.repair import RepairResult
from repro.core.thresholds import suggest_thresholds
from repro.dataset.relation import Relation
from repro.exec.config import RepairConfig
from repro.obs import (
    RunReport,
    Tracer,
    activate,
    add_counters,
    build_report,
    repair_output_hash,
    span,
)
from repro.utils.rng import SeedLike
from repro.utils.timing import Stopwatch

#: name -> (paper section, description); the library's Table 2.
ALGORITHMS: Dict[str, Dict[str, str]] = {
    "exact-s": {
        "section": "3.1",
        "description": "Expansion-based optimal algorithm for a single FD",
        "complexity": "O(mu * |V| * |E|)",
    },
    "greedy-s": {
        "section": "3.2",
        "description": "Greedy algorithm for a single FD",
        "complexity": "O(|I| * |V|)",
    },
    "exact-m": {
        "section": "4.2",
        "description": "Expansion-based optimal algorithm for multiple FDs",
        "complexity": "O(|V|^(|Sigma|+1))",
    },
    "appro-m": {
        "section": "4.3",
        "description": "Per-FD greedy sets joined into targets",
        "complexity": "O(|V|^2 * |Sigma|)",
    },
    "greedy-m": {
        "section": "4.4",
        "description": "Joint greedy with cross-FD synchronization",
        "complexity": "O(|Sigma| * |V|^2)",
    },
}


class Repairer:
    """End-to-end fault-tolerant repair of a relation against FDs.

    The canonical constructor takes the FDs plus a frozen
    :class:`~repro.exec.RepairConfig` and/or keyword-only overrides::

        Repairer(fds, config=RepairConfig(algorithm="exact-m"))
        Repairer(fds, algorithm="exact-m", n_jobs=4)
        Repairer(fds, config=base_config, thresholds=0.4)   # override one field

    Every argument after *fds* is keyword-only, and an override that is
    not a :class:`~repro.exec.RepairConfig` field raises
    :class:`TypeError`.

    Parameters
    ----------
    fds:
        The functional dependencies to enforce.
    config:
        A :class:`~repro.exec.RepairConfig`; defaults to
        ``RepairConfig()``. Keyword overrides below are applied on top.
    algorithm:
        One of :data:`ALGORITHMS`. Default ``"greedy-m"`` — the paper's
        best quality/speed trade-off.
    weights:
        LHS/RHS weights of the projection distance (Eq. 2).
    thresholds:
        Per-FD tau mapping, a single scalar for every FD, or ``None`` to
        derive taus from the data with the Section 2.1 gap heuristic at
        repair time.
    use_tree:
        Use the Section 5 target tree for multi-FD repairs (the
        "-Tree" variants of the experiments). Naive target joins
        otherwise.
    fallback:
        For exact algorithms only: ``"error"`` propagates budget
        overruns, ``"greedy"`` degrades to the corresponding greedy
        algorithm — loudly: a
        :class:`~repro.exec.DegradedRepairWarning` is emitted and the
        component recorded in ``result.stats.degraded_components``.
    max_nodes / max_combinations:
        Budgets for the exact expansions.
    distance_overrides:
        Per-attribute distance functions forwarded to
        :class:`~repro.core.distances.DistanceModel`.
    n_jobs:
        Worker processes for the component-sharded executor. ``1``
        (default) = deterministic serial execution in-process; ``-1`` =
        one worker per CPU. Output is byte-identical for every value.
    component_budget:
        Violation-graph node budget per component: an exact algorithm
        is pre-emptively degraded to its greedy counterpart on any
        component larger than this (``None`` = never).
    seed:
        Seed for threshold sampling.
    """

    def __init__(
        self,
        fds: Sequence[FD],
        *,
        config: Optional[RepairConfig] = None,
        **overrides: object,
    ) -> None:
        if not fds:
            raise ValueError("at least one FD is required")
        base = config if config is not None else RepairConfig()
        self.config: RepairConfig = base.merged(**overrides)
        self.fds: List[FD] = list(fds)
        self._last_report: Optional[RunReport] = None

    # -- config passthrough (the pre-1.1 attribute surface) -------------
    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    @property
    def weights(self) -> Weights:
        return self.config.weights

    @property
    def use_tree(self) -> bool:
        return self.config.use_tree

    @property
    def fallback(self) -> str:
        return self.config.fallback

    @property
    def max_nodes(self) -> Optional[int]:
        return self.config.max_nodes

    @property
    def max_combinations(self) -> int:
        return self.config.max_combinations

    @property
    def n_jobs(self) -> int:
        return self.config.n_jobs

    @property
    def component_budget(self) -> Optional[int]:
        return self.config.component_budget

    @property
    def seed(self) -> SeedLike:
        return self.config.seed

    # ------------------------------------------------------------------
    def build_model(self, relation: Relation) -> DistanceModel:
        """The distance model this repairer would use on *relation*."""
        return DistanceModel(
            relation,
            weights=self.config.weights,
            overrides=self.config.distance_overrides,
        )

    def resolve_thresholds(
        self, relation: Relation, model: Optional[DistanceModel] = None
    ) -> Dict[FD, float]:
        """Materialize the per-FD tau mapping for *relation*."""
        spec = self.config.thresholds
        if isinstance(spec, Mapping):
            missing = [fd for fd in self.fds if fd not in spec]
            if missing:
                raise KeyError(
                    f"no threshold for FD(s): {[fd.name for fd in missing]}"
                )
            return {fd: float(spec[fd]) for fd in self.fds}
        if isinstance(spec, (int, float)):
            return {fd: float(spec) for fd in self.fds}
        model = model or self.build_model(relation)
        return suggest_thresholds(
            relation,
            self.fds,
            model,
            ceiling=self.config.threshold_ceiling,
            rng=self.config.seed,
        )

    def _executor(self):
        from repro.exec.executor import RepairExecutor

        return RepairExecutor(self.config)

    # -- detectors -------------------------------------------------------
    def _extra_detectors(self) -> Tuple[str, ...]:
        """Configured detector names beyond the built-in FD path."""
        spec = self.config.detectors
        if not spec:
            return ()
        return tuple(name for name in spec if name != "fd")

    def _run_detectors(
        self, relation: Relation, model, thresholds, watch: Stopwatch
    ):
        """The ``detectors`` stage: run the configured non-FD detectors.

        Returns their verdicts ([] when none are configured). Nothing in
        the repair reads them; they are reported only. Emits one
        ``detector_cells_flagged.<name>`` counter per detector into the
        active tracer (``docs/observability.md``).
        """
        names = self._extra_detectors()
        if not names:
            return []
        from repro.detect import DetectorContext, run_detectors

        context = DetectorContext(
            fds=self.fds,
            model=model,
            thresholds=thresholds,
            seed=self.config.seed,
        )
        with watch.measure("detectors"), span("detectors"):
            verdicts = run_detectors(relation, names, context)
        add_counters(
            {
                f"detector_cells_flagged.{name}": count
                for name, count in _cells_flagged(verdicts).items()
            }
        )
        return verdicts

    # -- observability ---------------------------------------------------
    def _tracer(self, relation: Relation, operation: str) -> Optional[Tracer]:
        """A fresh run tracer when ``config.trace`` is on, else ``None``."""
        if not self.config.trace:
            return None
        return Tracer(
            "run",
            operation=operation,
            rows=len(relation),
            fds=[fd.name for fd in self.fds],
            algorithm=self.config.algorithm,
        )

    def _finish_report(
        self,
        tracer: Optional[Tracer],
        relation: Relation,
        operation: str,
        result_digest: Dict[str, object],
    ) -> Optional[RunReport]:
        if tracer is None:
            return None
        report = build_report(
            tracer,
            operation=operation,
            config=self.config,
            relation=relation,
            result=result_digest,
        )
        self._last_report = report
        return report

    def report(self) -> RunReport:
        """The :class:`~repro.obs.RunReport` of the last traced run.

        Requires ``trace=True`` in the config (or the CLI ``--trace`` /
        ``--report``): untraced runs keep the instrumentation points as
        no-ops and record nothing. The report covers the most recent
        :meth:`repair`, :meth:`detect`, or :meth:`repair_many` call.
        """
        if self._last_report is None:
            raise RuntimeError(
                "no traced run to report: construct the Repairer with "
                "trace=True (or RepairConfig(trace=True)) and call "
                "repair()/detect() first"
            )
        return self._last_report

    # ------------------------------------------------------------------
    def detect(self, relation: Relation):
        """Detection only: the FT-violations this repairer would resolve.

        Returns a :class:`repro.core.detection.DetectionReport`; nothing
        is modified. Useful to review suspects before committing to an
        automatic repair, or to gate a pipeline on ``report.is_clean()``.
        Like :meth:`repair`, the report carries ``.stats``
        (:class:`~repro.exec.ExecutionStats`: per-FD seconds, cache and
        filter counters) and ``.timings``; detection shards one task per
        FD under ``n_jobs``.
        """
        validate_constraints(self.fds, relation.schema)
        tracer = self._tracer(relation, "detect")
        watch = Stopwatch()
        with activate(tracer):
            with watch.measure("model"), span("model"):
                model = self.build_model(relation)
            with watch.measure("thresholds"), span("thresholds"):
                thresholds = self.resolve_thresholds(relation, model)
            verdicts = self._run_detectors(relation, model, thresholds, watch)
            report = self._executor().detect(relation, self.fds, thresholds)
        for verdict in verdicts:
            report.detector_verdicts[verdict.detector] = verdict
        if verdicts:
            report.stats["detector_cells_flagged"] = _cells_flagged(verdicts)
        report.timings.update(watch.totals)
        report.run_report = self._finish_report(
            tracer,
            relation,
            "detect",
            {"violations": report.total_violations},
        )
        return report

    # ------------------------------------------------------------------
    def repair(self, relation: Relation) -> RepairResult:
        """Repair *relation*; the input is never mutated."""
        validate_constraints(self.fds, relation.schema)
        tracer = self._tracer(relation, "repair")
        watch = Stopwatch()
        with activate(tracer):
            with watch.measure("model"), span("model"):
                model = self.build_model(relation)
            with watch.measure("thresholds"), span("thresholds"):
                thresholds = self.resolve_thresholds(relation, model)
            verdicts = self._run_detectors(relation, model, thresholds, watch)
            result = self._executor().repair(relation, self.fds, thresholds)
        if verdicts:
            result.stats["detector_cells_flagged"] = _cells_flagged(verdicts)
        result.timings.update(watch.totals)
        result.run_report = self._finish_report(
            tracer,
            relation,
            "repair",
            {
                "edits": len(result.edits),
                "cost": round(result.cost, 9),
                "output_hash": repair_output_hash(result.edits, result.cost),
            },
        )
        return result

    def repair_many(
        self, relations: Sequence[Relation]
    ) -> List[RepairResult]:
        """Repair a batch of relations through one shared executor run.

        All components of all relations enter a single task queue, so a
        batch parallelizes under ``n_jobs`` even when each individual
        relation has few FD-graph components. Results come back in input
        order; each is exactly what :meth:`repair` would have produced.
        """
        watch = Stopwatch()
        jobs = []
        tracer: Optional[Tracer] = None
        if self.config.trace and relations:
            tracer = Tracer(
                "run",
                operation="repair_many",
                jobs=len(relations),
                fds=[fd.name for fd in self.fds],
                algorithm=self.config.algorithm,
            )
        with activate(tracer):
            with watch.measure("thresholds"), span("thresholds"):
                for relation in relations:
                    validate_constraints(self.fds, relation.schema)
                    model = self.build_model(relation)
                    jobs.append(
                        (relation, self.fds,
                         self.resolve_thresholds(relation, model))
                    )
            results = self._executor().repair_many(jobs)
        for result in results:
            result.timings.setdefault("thresholds", watch.total("thresholds"))
        if tracer is not None and relations:
            # one whole-batch report, fingerprinted on the first relation
            batch = self._finish_report(
                tracer,
                relations[0],
                "repair_many",
                {
                    "jobs": len(results),
                    "edits": sum(len(r.edits) for r in results),
                    "cost": round(sum(r.cost for r in results), 9),
                },
            )
            for result in results:
                result.run_report = batch
        return results


def _cells_flagged(verdicts) -> Dict[str, int]:
    """detector name -> cells it flagged (``detector_cells_flagged``)."""
    return {v.detector: len(v.cells) for v in verdicts}
