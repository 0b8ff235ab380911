"""The component-sharded executor: determinism, degradation, stats."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.constraints import FD
from repro.core.engine import Repairer
from repro.dataset.relation import Relation, Schema
from repro.eval.explain import repair_report
from repro.eval.review import ReviewQueue
from repro.exec import (
    DegradedRepairWarning,
    ExecutionStats,
    RepairConfig,
    RepairExecutor,
    component_size,
)


def _repair(fds, thresholds, relation, **overrides):
    return Repairer(fds, thresholds=thresholds, **overrides).repair(relation)


def _rows(relation):
    return [relation.row(tid) for tid in relation.tids()]


class TestDeterminism:
    """n_jobs must never change the repair — the executor's core promise."""

    def test_citizens_identical_across_worker_counts(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        serial = _repair(citizens_fds, citizens_thresholds, citizens, n_jobs=1)
        for n_jobs in (2, 4):
            parallel = _repair(
                citizens_fds, citizens_thresholds, citizens, n_jobs=n_jobs
            )
            assert parallel.edits == serial.edits
            assert parallel.cost == serial.cost
            assert _rows(parallel.relation) == _rows(serial.relation)

    def test_hosp_identical_across_worker_counts(self, small_hosp_workload):
        w = small_hosp_workload
        serial = _repair(w["fds"], w["thresholds"], w["dirty"], n_jobs=1)
        parallel = _repair(w["fds"], w["thresholds"], w["dirty"], n_jobs=4)
        assert parallel.edits == serial.edits
        assert parallel.cost == serial.cost
        assert _rows(parallel.relation) == _rows(serial.relation)

    def test_detect_identical_across_worker_counts(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        reports = [
            Repairer(
                citizens_fds, thresholds=citizens_thresholds, n_jobs=n
            ).detect(citizens)
            for n in (1, 3)
        ]
        assert reports[0].violations.keys() == reports[1].violations.keys()
        for name in reports[0].violations:
            assert reports[0].suspects[name] == reports[1].suspects[name]
            assert (
                reports[0].likely_errors[name]
                == reports[1].likely_errors[name]
            )
        assert reports[0].suspect_tids == reports[1].suspect_tids

    def test_repair_many_matches_individual_repairs(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        repairer = Repairer(
            citizens_fds, thresholds=citizens_thresholds, n_jobs=2
        )
        batched = repairer.repair_many([citizens, citizens])
        single = repairer.repair(citizens)
        assert len(batched) == 2
        for result in batched:
            assert result.edits == single.edits
            assert result.cost == single.cost

    def test_warning_stream_identical_across_worker_counts(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        def run(n_jobs):
            with pytest.warns(DegradedRepairWarning) as record:
                _repair(
                    citizens_fds,
                    citizens_thresholds,
                    citizens,
                    algorithm="exact-m",
                    component_budget=1,
                    fallback="greedy",
                    n_jobs=n_jobs,
                )
            return [
                str(w.message)
                for w in record
                if w.category is DegradedRepairWarning
            ]

        assert run(1) == run(2)


class TestDegradation:
    def test_budget_exhausted_warns_and_flags(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        """The anytime fallback must be loud: warning + stats flag."""
        with pytest.warns(DegradedRepairWarning, match="exhausted"):
            result = _repair(
                citizens_fds,
                citizens_thresholds,
                citizens,
                algorithm="exact-m",
                max_combinations=1,
                fallback="greedy",
            )
        assert result.stats.degraded
        assert result.stats["degraded"] is True
        records = result.stats.degraded_components
        assert records
        assert all(r["reason"] == "budget_exhausted" for r in records)
        assert all(r["from"] == "exact-m" for r in records)
        assert all(r["to"] == "greedy-m" for r in records)

    def test_exhaustion_without_fallback_raises(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        from repro.core.multi.exact import CombinationLimitError

        with pytest.raises(CombinationLimitError):
            _repair(
                citizens_fds,
                citizens_thresholds,
                citizens,
                algorithm="exact-m",
                max_combinations=1,
                fallback="error",
            )

    def test_component_budget_preselects_greedy(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        with pytest.warns(DegradedRepairWarning, match="component_budget"):
            result = _repair(
                citizens_fds,
                citizens_thresholds,
                citizens,
                algorithm="exact-m",
                component_budget=1,
                fallback="greedy",
            )
        assert result.stats.degraded
        records = result.stats.degraded_components
        assert all(r["reason"] == "component_budget" for r in records)
        # every component ran greedy, none hit the exact search at all
        assert all(
            c["algorithm"] == "greedy-m" for c in result.stats.components
        )

    def test_degraded_result_matches_plain_greedy(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        greedy = _repair(
            citizens_fds, citizens_thresholds, citizens, algorithm="greedy-m"
        )
        with pytest.warns(DegradedRepairWarning):
            degraded = _repair(
                citizens_fds,
                citizens_thresholds,
                citizens,
                algorithm="exact-m",
                component_budget=1,
                fallback="greedy",
            )
        assert degraded.edits == greedy.edits
        assert degraded.cost == greedy.cost

    def test_clean_run_is_not_degraded(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = _repair(citizens_fds, citizens_thresholds, citizens)
        assert not result.stats.degraded
        assert result.stats.degraded_components == []


class TestExecutionStats:
    def test_repair_stats_surface(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = _repair(citizens_fds, citizens_thresholds, citizens)
        stats = result.stats
        assert isinstance(stats, ExecutionStats)
        # dict compatibility: the historic keys are still plain keys
        assert stats["algorithm"] == "greedy-m"
        assert stats["fd_components"] == 2
        assert stats.get("variables", set()) is not None
        # typed accessors
        assert stats.n_jobs == 1
        assert stats.wall_seconds > 0
        assert 0.0 < stats.worker_utilization <= 1.0
        assert len(stats.components) == 2
        for component in stats.components:
            assert component["seconds"] >= 0
            assert component["patterns"] > 0
            assert component["algorithm"] == "greedy-m"
        assert "n_jobs=1" in stats.describe()
        assert "component(s)" in stats.describe()

    def test_summary_mentions_execution(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = _repair(citizens_fds, citizens_thresholds, citizens)
        assert "n_jobs=1" in result.summary()

    def test_timings_cover_all_phases(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = _repair(citizens_fds, citizens_thresholds, citizens)
        assert {"model", "thresholds", "execute"} <= set(result.timings)

    def test_detect_carries_stats_and_timings(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        report = Repairer(
            citizens_fds, thresholds=citizens_thresholds
        ).detect(citizens)
        assert isinstance(report.stats, ExecutionStats)
        assert len(report.stats.components) == len(citizens_fds)
        assert report.stats["pairs_examined"] > 0
        assert "detect" in report.timings

    def test_review_queue_accepts_executor_result(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = _repair(citizens_fds, citizens_thresholds, citizens)
        queue = ReviewQueue(citizens, result)
        assert len(queue.pending()) == len(result.edits)
        queue.auto_approve(min_confidence=0.0)
        assert _rows(queue.apply()) == _rows(result.relation)

    def test_repair_report_accepts_executor_result(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = _repair(citizens_fds, citizens_thresholds, citizens)
        report = repair_report(citizens, result)
        assert str(len(result.edits)) in report.render()


class TestComponentSharding:
    def test_component_size_counts_patterns(self, citizens, citizens_fds):
        largest, per_fd = component_size(citizens, citizens_fds)
        assert set(per_fd) == {fd.name for fd in citizens_fds}
        assert largest == max(per_fd.values())

    def test_executor_reusable_across_relations(
        self, citizens, citizens_fds, citizens_thresholds, small_hosp_workload
    ):
        executor = RepairExecutor(RepairConfig(thresholds=None))
        w = small_hosp_workload
        first = executor.repair(citizens, citizens_fds, citizens_thresholds)
        second = executor.repair(w["dirty"], w["fds"], w["thresholds"])
        assert first.stats["fd_components"] == 2
        assert second.stats["fd_components"] >= 1


def _constant_distance(value):
    def distance(a, b):
        return value

    return distance


def override_cost(value):
    """exact-s cost on a 4-row relation under FD ``A -> B`` whose B
    distance is the constant *value*: rows 3 and 4 disagree with the
    majority B, so they violate only when the distance exceeds 0.5."""
    relation = Relation(
        Schema.of("A", "B"), [("a", "x"), ("a", "x"), ("a", "y"), ("a", "z")]
    )
    fd = FD.parse("A -> B")
    return Repairer(
        [fd],
        algorithm="exact-s",
        thresholds={fd: 0.5},
        distance_overrides={"B": _constant_distance(value)},
    ).repair(relation).cost


class TestDistanceOverrides:
    def test_override_closures_do_not_share_distances(self):
        """Two overrides from one factory share a ``__qualname__``; the
        second repair must still see its own distances, exactly as a
        fresh process does."""
        assert override_cost(0.0) == 0.0
        warm = override_cost(1.0)
        cold = subprocess.run(
            [
                sys.executable,
                "-c",
                "from tests.test_exec import override_cost; "
                "print(override_cost(1.0))",
            ],
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            check=True,
        )
        assert warm == float(cold.stdout) == 2.0


class TestCLI:
    def test_cli_n_jobs_and_stats(self, tmp_path, citizens):
        from repro.dataset.csvio import write_csv

        csv_path = tmp_path / "citizens.csv"
        write_csv(citizens, csv_path)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                str(csv_path),
                "--fd",
                "Education -> Level",
                "--fd",
                "City -> State",
                "--n-jobs",
                "2",
                "--stats",
                "--dry-run",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "n_jobs=2" in proc.stdout
        assert "component 0" in proc.stdout

    def test_cli_rejects_zero_jobs(self, tmp_path, citizens):
        from repro.dataset.csvio import write_csv

        csv_path = tmp_path / "citizens.csv"
        write_csv(citizens, csv_path)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                str(csv_path),
                "--fd",
                "City -> State",
                "--n-jobs",
                "0",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
