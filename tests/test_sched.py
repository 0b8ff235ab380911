"""Tests for the executor's schedule (planner, skew generator, schedule
determinism).

The determinism contract is the load-bearing property: byte-identical
repairs for every ``n_jobs``, checked end-to-end over processes for all
five algorithms on the skewed generator's one-giant-component relation,
where largest-first submission reorders the work the most. The budget
test pins the fallback record of an exhausted Exact-S search.
"""

import pytest

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.engine import ALGORITHMS
from repro.core.graph import ViolationGraph
from repro.dataset.relation import Relation, Schema
from repro.exec import RepairConfig, RepairExecutor, plan_schedule
from repro.exec.planner import estimate_task
from repro.exec.stats import DegradedRepairWarning
from repro.generator.skew import (
    SKEW_FDS,
    generate_skew,
    skew_chain_lengths,
    skew_thresholds,
)


def _repair_signature(result):
    return (
        tuple(result.edits),
        round(result.cost, 12),
        tuple(tuple(row) for row in result.relation),
    )


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def _tasks(self, *pattern_counts):
        """Fake component tasks over single-FD relations."""
        fd = FD.parse("A -> B", name="f")
        tasks = []
        for count in pattern_counts:
            relation = Relation(
                Schema.of("A", "B"),
                [(f"a{i}", f"b{i}") for i in range(count)],
            )

            class _Task:
                def __init__(self, relation, fds):
                    self.relation = relation
                    self.fds = fds

            tasks.append(_Task(relation, (fd,)))
        return tasks

    def test_estimate_sums_pattern_squares(self):
        (task,) = self._tasks(5)
        assert estimate_task(task) == 25.0

    def test_order_is_largest_first_and_stable(self):
        assert plan_schedule(self._tasks(3, 9, 3, 5)) == [1, 3, 0, 2]


# ----------------------------------------------------------------------
# Skew generator
# ----------------------------------------------------------------------
class TestSkewGenerator:
    def test_chain_lengths_match_dominance(self):
        lengths = skew_chain_lengths(dominance=0.75, chain=18)
        assert lengths[0] == 18
        fringe = sum(lengths[1:])
        assert fringe == round(18 * 0.25 / 0.75)

    @pytest.mark.parametrize("dominance,chain", [(0.9, 24), (0.6, 12)])
    def test_giant_component_shape(self, dominance, chain):
        relation = generate_skew(200, dominance=dominance, chain=chain)
        thresholds = skew_thresholds(dominance=dominance, chain=chain)
        model = DistanceModel(relation)
        fd = SKEW_FDS[0]
        graph = ViolationGraph.build(relation, fd, model, thresholds[fd])
        components = sorted(
            (len(c) for c in graph.connected_components()), reverse=True
        )
        # one giant path of `chain` vertices, plus the fringe
        assert components[0] == chain
        assert sum(components) == sum(
            skew_chain_lengths(dominance=dominance, chain=chain)
        )
        # staircase chains are paths: nothing has more than 2 neighbours
        assert max(graph.degree(u) for u in range(len(graph))) == 2

    def test_satellite_fds_have_small_components(self):
        relation = generate_skew(200)
        thresholds = skew_thresholds()
        model = DistanceModel(relation)
        for fd in SKEW_FDS[1:]:
            graph = ViolationGraph.build(relation, fd, model, thresholds[fd])
            sizes = [len(c) for c in graph.connected_components()]
            assert sizes == [4, 4, 4]

    def test_deterministic(self):
        first = generate_skew(150, dominance=0.8, chain=14)
        second = generate_skew(150, dominance=0.8, chain=14)
        assert [tuple(r) for r in first] == [tuple(r) for r in second]

    def test_rejects_underpopulated_relations(self):
        with pytest.raises(ValueError, match="rows to populate"):
            generate_skew(5, chain=24)

    def test_rejects_bad_dominance(self):
        with pytest.raises(ValueError, match="dominance"):
            skew_chain_lengths(dominance=1.5)


# ----------------------------------------------------------------------
# End-to-end schedule determinism over processes
# ----------------------------------------------------------------------
class TestScheduleDeterminism:
    @pytest.fixture(scope="class")
    def skew_job(self):
        # one giant path component dominates the first FD's task; the
        # two satellite FDs' tasks are small next to it
        relation = generate_skew(
            120, dominance=0.85, chain=12, small_chains=2
        )
        thresholds = skew_thresholds(dominance=0.85, chain=12)
        return relation, thresholds

    @pytest.fixture(scope="class")
    def serial(self, skew_job):
        """algorithm -> the signature of its serial repair."""
        return {
            algorithm: _repair_signature(self._run(skew_job, algorithm, 1))
            for algorithm in sorted(ALGORITHMS)
        }

    @staticmethod
    def _run(skew_job, algorithm, n_jobs):
        relation, thresholds = skew_job
        config = RepairConfig(algorithm=algorithm, n_jobs=n_jobs)
        return RepairExecutor(config).repair(relation, SKEW_FDS, thresholds)

    @pytest.mark.parametrize("n_jobs", [2, 8])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_byte_identical_across_jobs(
        self, skew_job, serial, algorithm, n_jobs
    ):
        result = self._run(skew_job, algorithm, n_jobs)
        # the pool ran, one worker per component at most
        assert result.stats.n_jobs == min(n_jobs, result.stats.fd_components)
        assert result.stats.busy_skew_ratio >= 1.0
        assert _repair_signature(result) == serial[algorithm], (
            f"{algorithm} diverged from serial at n_jobs={n_jobs}"
        )


# ----------------------------------------------------------------------
# Degradation attribution: the ExpansionLimitError context
# ----------------------------------------------------------------------
class TestDegradationAttribution:
    # exact-s is the algorithm whose ExpansionLimitError reaches the
    # executor's fallback (exact-m absorbs budget trips into its own
    # anytime per-component composition); the pruned search on the
    # 16-chain giant generates ~300 nodes serially.
    def test_limit_context_in_degraded_record(self):
        relation = generate_skew(150, dominance=0.9, chain=16)
        thresholds = skew_thresholds(dominance=0.9, chain=16)
        config = RepairConfig(
            algorithm="exact-s",
            fallback="greedy",
            max_nodes=100,
        )
        with pytest.warns(DegradedRepairWarning, match="exhausted"):
            result = RepairExecutor(config).repair(
                relation, SKEW_FDS, thresholds
            )
        records = [
            r
            for r in result.stats.degraded_components
            if r["error"] == "ExpansionLimitError"
        ]
        assert records
        for record in records:
            assert record["limit"] == 100
            assert record["nodes_generated"] > 100
            assert record["level"] >= 1
