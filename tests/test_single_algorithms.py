"""Tests for Exact-S and Greedy-S (Section 3)."""

import pytest

from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph
from repro.core.single.exact import repair_single_fd_exact, solve_graph_exact
from repro.core.single.greedy import (
    greedy_independent_set,
    repair_single_fd_greedy,
)
from repro.core.cost import invalid_repair_tids
from tests.oracles import scan_ft_consistent


class TestExactS:
    def test_repairs_phi1_to_ground_truth(
        self, citizens, citizens_truth, citizens_fds, citizens_model,
        citizens_thresholds
    ):
        fd = citizens_fds[0]
        result = repair_single_fd_exact(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        for tid in citizens.tids():
            assert result.relation.project(tid, fd.attributes) == \
                citizens_truth.project(tid, fd.attributes)

    def test_result_is_ft_consistent(self, citizens, citizens_fds,
                                     citizens_model, citizens_thresholds):
        fd = citizens_fds[1]
        result = repair_single_fd_exact(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        assert scan_ft_consistent(
            result.relation, [fd], citizens_model,
            {fd: citizens_thresholds[fd]},
        )

    def test_result_is_closed_world_valid(self, citizens, citizens_fds,
                                          citizens_model, citizens_thresholds):
        fd = citizens_fds[0]
        result = repair_single_fd_exact(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        assert invalid_repair_tids(citizens, result.relation, [fd]) == []

    def test_input_not_mutated(self, citizens, citizens_fds, citizens_model,
                               citizens_thresholds):
        fd = citizens_fds[0]
        snapshot = citizens.copy()
        repair_single_fd_exact(citizens, fd, citizens_model,
                               citizens_thresholds[fd])
        assert citizens == snapshot

    def test_cost_matches_edit_distances(self, citizens, citizens_fds,
                                         citizens_model, citizens_thresholds):
        fd = citizens_fds[0]
        result = repair_single_fd_exact(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        recomputed = sum(
            citizens_model.attribute_distance(e.attribute, e.old, e.new)
            for e in result.edits
        )
        assert result.cost == pytest.approx(recomputed)

    def test_stats_describe_graph(self, citizens, citizens_fds, citizens_model,
                                  citizens_thresholds):
        fd = citizens_fds[0]
        result = repair_single_fd_exact(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        assert result.stats["graph_vertices"] == 7
        assert result.stats["algorithm"] == "exact-s"

    def test_clean_input_needs_no_edits(self, citizens_truth, citizens_fds,
                                        citizens_thresholds):
        fd = citizens_fds[0]
        model = DistanceModel(citizens_truth)
        result = repair_single_fd_exact(
            citizens_truth, fd, model, citizens_thresholds[fd]
        )
        assert result.edits == []
        assert result.cost == 0.0


class TestGreedyS:
    def test_greedy_set_is_maximal_independent(
        self, citizens, citizens_fds, citizens_model, citizens_thresholds
    ):
        for fd in citizens_fds:
            graph = ViolationGraph.build(
                citizens, fd, citizens_model, citizens_thresholds[fd]
            )
            chosen = greedy_independent_set(graph)
            assert graph.is_maximal_independent(chosen)

    def test_greedy_without_seeding_also_maximal(
        self, citizens, citizens_fds, citizens_model, citizens_thresholds
    ):
        for fd in citizens_fds:
            graph = ViolationGraph.build(
                citizens, fd, citizens_model, citizens_thresholds[fd]
            )
            chosen = greedy_independent_set(graph, seed_dominant=False)
            assert graph.is_maximal_independent(chosen)

    def test_greedy_on_subset_of_vertices(self, citizens, citizens_fds,
                                          citizens_model, citizens_thresholds):
        fd = citizens_fds[0]
        graph = ViolationGraph.build(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        component = max(graph.connected_components(), key=len)
        chosen = greedy_independent_set(graph, component)
        assert chosen <= set(component)

    def test_empty_graph(self, citizens, citizens_fds, citizens_model,
                         citizens_thresholds):
        fd = citizens_fds[0]
        graph = ViolationGraph.build(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        assert greedy_independent_set(graph, []) == frozenset()

    def test_repair_is_ft_consistent(self, citizens, citizens_fds,
                                     citizens_model, citizens_thresholds):
        for fd in citizens_fds:
            result = repair_single_fd_greedy(
                citizens, fd, citizens_model, citizens_thresholds[fd]
            )
            assert scan_ft_consistent(
                result.relation, [fd], citizens_model,
                {fd: citizens_thresholds[fd]},
            )

    def test_greedy_cost_at_least_exact(self, citizens, citizens_fds,
                                        citizens_model, citizens_thresholds):
        """Exact-S is optimal: its cost lower-bounds Greedy-S (Theorem 2)."""
        for fd in citizens_fds:
            exact = repair_single_fd_exact(
                citizens, fd, citizens_model, citizens_thresholds[fd]
            )
            greedy = repair_single_fd_greedy(
                citizens, fd, citizens_model, citizens_thresholds[fd]
            )
            assert greedy.cost >= exact.cost - 1e-9

    def test_closed_world_validity(self, citizens, citizens_fds,
                                   citizens_model, citizens_thresholds):
        for fd in citizens_fds:
            result = repair_single_fd_greedy(
                citizens, fd, citizens_model, citizens_thresholds[fd]
            )
            assert invalid_repair_tids(citizens, result.relation, [fd]) == []


class TestOnGeneratedData:
    def test_exact_equals_greedy_cost_or_better_hosp(self, small_hosp_workload):
        dirty = small_hosp_workload["dirty"]
        fds = small_hosp_workload["fds"]
        thresholds = small_hosp_workload["thresholds"]
        model = DistanceModel(dirty)
        fd = fds[6]  # MeasureCode -> MeasureName (small component sizes)
        exact = repair_single_fd_exact(dirty, fd, model, thresholds[fd])
        greedy = repair_single_fd_greedy(dirty, fd, model, thresholds[fd])
        assert exact.cost <= greedy.cost + 1e-9

    def test_grouping_does_not_change_greedy_repair(self, small_hosp_workload):
        """Tuple grouping (Sec. 3.1) is an optimization, not a semantic."""
        dirty = small_hosp_workload["dirty"]
        fds = small_hosp_workload["fds"]
        thresholds = small_hosp_workload["thresholds"]
        model = DistanceModel(dirty)
        fd = fds[7]
        grouped = repair_single_fd_greedy(
            dirty, fd, model, thresholds[fd], grouping=True
        )
        assert grouped.stats["graph_vertices"] < len(dirty)
