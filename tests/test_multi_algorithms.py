"""Tests for Exact-M, Appro-M and Greedy-M (Section 4)."""

import pytest

from repro.core.cost import invalid_repair_tids, is_valid_database_repair
from repro.core.distances import DistanceModel
from repro.core.multi.appro import repair_multi_fd_appro
from repro.core.multi.exact import repair_multi_fd_exact
from repro.core.multi.greedy import repair_multi_fd_greedy
from tests.oracles import scan_ft_consistent


@pytest.fixture
def component(citizens_fds):
    return citizens_fds[1:]  # {phi2, phi3}


ALGORITHMS = {
    "exact": repair_multi_fd_exact,
    "appro": repair_multi_fd_appro,
    "greedy": repair_multi_fd_greedy,
}


class TestOnCitizens:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_repaired_component_is_ft_consistent(
        self, name, citizens, citizens_model, component, citizens_thresholds
    ):
        result = ALGORITHMS[name](
            citizens, component, citizens_model, citizens_thresholds
        )
        assert scan_ft_consistent(
            result.relation, component, citizens_model, citizens_thresholds
        )

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_closed_world_validity(
        self, name, citizens, citizens_model, component, citizens_thresholds
    ):
        result = ALGORITHMS[name](
            citizens, component, citizens_model, citizens_thresholds
        )
        assert invalid_repair_tids(citizens, result.relation, component) == []

    @pytest.mark.parametrize("name", ["exact", "greedy"])
    def test_example3_t5_city_repaired(
        self, name, citizens, citizens_model, component, citizens_thresholds
    ):
        """Example 3's headline: the joint repair fixes t5[City]."""
        result = ALGORITHMS[name](
            citizens, component, citizens_model, citizens_thresholds
        )
        assert result.relation.value(4, "City") == "New York"
        assert result.relation.value(4, "District") == "Manhattan"

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_only_component_attributes_touched(
        self, name, citizens, citizens_model, component, citizens_thresholds
    ):
        result = ALGORITHMS[name](
            citizens, component, citizens_model, citizens_thresholds
        )
        allowed = {"City", "State", "Street", "District"}
        assert {edit.attribute for edit in result.edits} <= allowed

    def test_exact_cost_lower_bounds_heuristics(
        self, citizens, citizens_model, component, citizens_thresholds
    ):
        exact = repair_multi_fd_exact(
            citizens, component, citizens_model, citizens_thresholds
        )
        assert exact.stats["exhaustive"] is True
        for name in ("appro", "greedy"):
            other = ALGORITHMS[name](
                citizens, component, citizens_model, citizens_thresholds
            )
            assert exact.cost <= other.cost + 1e-9

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_tree_and_naive_join_agree(
        self, name, citizens, citizens_model, component, citizens_thresholds
    ):
        with_tree = ALGORITHMS[name](
            citizens, component, citizens_model, citizens_thresholds,
            use_tree=True,
        )
        without = ALGORITHMS[name](
            citizens, component, citizens_model, citizens_thresholds,
            use_tree=False,
        )
        assert with_tree.cost == pytest.approx(without.cost)
        assert {e.cell for e in with_tree.edits} == {
            e.cell for e in without.edits
        }

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_input_not_mutated(self, name, citizens, citizens_model, component,
                               citizens_thresholds):
        snapshot = citizens.copy()
        ALGORITHMS[name](citizens, component, citizens_model, citizens_thresholds)
        assert citizens == snapshot

    def test_exact_pruning_does_not_change_result(
        self, citizens, citizens_model, component, citizens_thresholds
    ):
        pruned = repair_multi_fd_exact(
            citizens, component, citizens_model, citizens_thresholds, prune=True
        )
        full = repair_multi_fd_exact(
            citizens, component, citizens_model, citizens_thresholds, prune=False
        )
        assert pruned.cost == pytest.approx(full.cost)


class TestOnGeneratedData:
    @pytest.mark.parametrize("name", ["appro", "greedy"])
    def test_full_hosp_repair_is_valid(self, name, small_hosp_workload):
        dirty = small_hosp_workload["dirty"]
        fds = small_hosp_workload["fds"]
        thresholds = small_hosp_workload["thresholds"]
        model = DistanceModel(dirty)
        from repro.core.multi.fdgraph import fd_components

        for comp in fd_components(fds):
            result = ALGORITHMS[name](dirty, comp, model, thresholds)
            assert scan_ft_consistent(
                result.relation, comp, model, thresholds
            )

    def test_greedy_recovers_most_errors(self, small_hosp_workload):
        from repro.core.multi.fdgraph import fd_components
        from repro.eval.metrics import evaluate_repair

        dirty = small_hosp_workload["dirty"]
        truth = small_hosp_workload["truth"]
        fds = small_hosp_workload["fds"]
        thresholds = small_hosp_workload["thresholds"]
        model = DistanceModel(dirty)
        edits = []
        for comp in fd_components(fds):
            edits.extend(
                repair_multi_fd_greedy(dirty, comp, model, thresholds).edits
            )
        quality = evaluate_repair(edits, truth)
        assert quality.precision > 0.9
        assert quality.recall > 0.9
