"""Tests for the Repairer facade and end-to-end behaviour on Citizens."""

import pytest

from repro.core.constraints import FD
from repro.core.distances import Weights
from repro.core.engine import ALGORITHMS, Repairer
from repro.core.violation import is_ft_consistent_all
from repro.dataset.citizens import CITIZENS_ERRORS


class TestConfiguration:
    def test_rejects_unknown_algorithm(self, citizens_fds):
        with pytest.raises(ValueError):
            Repairer(citizens_fds, algorithm="magic")

    def test_rejects_empty_fd_list(self):
        with pytest.raises(ValueError):
            Repairer([])

    def test_rejects_bad_fallback(self, citizens_fds):
        with pytest.raises(ValueError):
            Repairer(citizens_fds, fallback="pray")

    def test_algorithm_registry_is_table2(self):
        assert set(ALGORITHMS) == {
            "exact-s",
            "greedy-s",
            "exact-m",
            "appro-m",
            "greedy-m",
        }
        for info in ALGORITHMS.values():
            assert {"section", "description", "complexity"} <= set(info)

    def test_unknown_fd_attribute_rejected_at_repair(self, citizens):
        repairer = Repairer([FD.parse("City -> Nowhere")], thresholds=0.5)
        with pytest.raises(KeyError):
            repairer.repair(citizens)


class TestThresholdResolution:
    def test_scalar_threshold_broadcast(self, citizens, citizens_fds):
        repairer = Repairer(citizens_fds, thresholds=0.3)
        taus = repairer.resolve_thresholds(citizens)
        assert all(tau == 0.3 for tau in taus.values())

    def test_mapping_threshold_passthrough(self, citizens, citizens_fds,
                                           citizens_thresholds):
        repairer = Repairer(citizens_fds, thresholds=citizens_thresholds)
        assert repairer.resolve_thresholds(citizens) == citizens_thresholds

    def test_mapping_missing_fd_rejected(self, citizens, citizens_fds):
        partial = {citizens_fds[0]: 0.3}
        repairer = Repairer(citizens_fds, thresholds=partial)
        with pytest.raises(KeyError):
            repairer.resolve_thresholds(citizens)

    def test_auto_thresholds_derived_from_data(self, citizens, citizens_fds):
        repairer = Repairer(citizens_fds)  # no thresholds given
        taus = repairer.resolve_thresholds(citizens)
        assert set(taus) == set(citizens_fds)
        assert all(tau > 0 for tau in taus.values())


class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_algorithms_produce_ft_consistent_output(
        self, algorithm, citizens, citizens_fds, citizens_thresholds,
        citizens_model
    ):
        repairer = Repairer(
            citizens_fds, algorithm=algorithm, thresholds=citizens_thresholds
        )
        result = repairer.repair(citizens)
        if algorithm in ("exact-s", "greedy-s"):
            # sequential per-FD repair does not guarantee joint
            # FT-consistency (the paper's motivating weakness) — only
            # check it returns something sane
            assert result.relation is not None
        else:
            assert is_ft_consistent_all(
                result.relation, citizens_fds, citizens_model,
                citizens_thresholds,
            )

    def test_greedy_m_restores_all_citizens_errors(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        """The paper's running example, repaired perfectly (Example 3)."""
        repairer = Repairer(
            citizens_fds, algorithm="greedy-m", thresholds=citizens_thresholds
        )
        result = repairer.repair(citizens)
        by_cell = result.edits_by_cell()
        for cell, clean_value in CITIZENS_ERRORS.items():
            assert cell in by_cell, f"error {cell} not repaired"
            assert by_cell[cell].new == clean_value
        assert len(result.edits) == len(CITIZENS_ERRORS)

    def test_exact_m_matches_greedy_m_on_citizens(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        exact = Repairer(
            citizens_fds, algorithm="exact-m", thresholds=citizens_thresholds
        ).repair(citizens)
        greedy = Repairer(
            citizens_fds, algorithm="greedy-m", thresholds=citizens_thresholds
        ).repair(citizens)
        assert exact.cost <= greedy.cost + 1e-9

    def test_stats_expose_thresholds_and_components(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = Repairer(
            citizens_fds, algorithm="appro-m", thresholds=citizens_thresholds
        ).repair(citizens)
        assert result.stats["fd_components"] == 2
        assert set(result.stats["thresholds"]) == {"phi1", "phi2", "phi3"}

    def test_input_never_mutated(self, citizens, citizens_fds,
                                 citizens_thresholds):
        snapshot = citizens.copy()
        for algorithm in ALGORITHMS:
            Repairer(
                citizens_fds, algorithm=algorithm,
                thresholds=citizens_thresholds,
            ).repair(citizens)
        assert citizens == snapshot

    def test_sequential_squashes_reverted_edits(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        result = Repairer(
            citizens_fds, algorithm="greedy-s", thresholds=citizens_thresholds
        ).repair(citizens)
        for edit in result.edits:
            assert edit.old != edit.new

    def test_weights_are_configurable(self, citizens, citizens_fds):
        repairer = Repairer(
            citizens_fds,
            algorithm="greedy-m",
            weights=Weights(0.3, 0.7),
            thresholds=0.4,
        )
        result = repairer.repair(citizens)
        assert result.relation is not None

    def test_exact_fallback_to_greedy(self, small_hosp_workload):
        """A tiny node budget forces exact-m into the greedy fallback."""
        dirty = small_hosp_workload["dirty"]
        fds = small_hosp_workload["fds"]
        thresholds = small_hosp_workload["thresholds"]
        repairer = Repairer(
            fds,
            algorithm="exact-m",
            thresholds=thresholds,
            max_nodes=50,
            max_combinations=10,
            fallback="greedy",
        )
        result = repairer.repair(dirty)
        assert result.relation is not None

    def test_exact_fallback_error_mode_raises(self, small_hosp_workload):
        from repro.core.multi.exact import CombinationLimitError
        from repro.core.single.mis import ExpansionLimitError

        dirty = small_hosp_workload["dirty"]
        fds = small_hosp_workload["fds"]
        thresholds = small_hosp_workload["thresholds"]
        repairer = Repairer(
            fds,
            algorithm="exact-m",
            thresholds=thresholds,
            max_nodes=200000,
            max_combinations=1,
            fallback="error",
        )
        with pytest.raises((CombinationLimitError, ExpansionLimitError)):
            repairer.repair(dirty)


class TestJoinStrategyThroughEngine:
    @pytest.mark.parametrize("strategy", ["naive", "vectorized"])
    def test_strategies_produce_identical_repairs(
        self, strategy, citizens, citizens_fds, citizens_thresholds
    ):
        reference = Repairer(
            citizens_fds, algorithm="greedy-m",
            thresholds=citizens_thresholds, join_strategy="naive",
        ).repair(citizens)
        other = Repairer(
            citizens_fds, algorithm="greedy-m",
            thresholds=citizens_thresholds, join_strategy=strategy,
        ).repair(citizens)
        assert {(e.cell, e.new) for e in other.edits} == {
            (e.cell, e.new) for e in reference.edits
        }

    def test_strategies_byte_identical_repaired_relations(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        """Not just the same edit set: identical rows, costs and order."""
        outputs = []
        for strategy in ("naive", "vectorized"):
            result = Repairer(
                citizens_fds, algorithm="greedy-m",
                thresholds=citizens_thresholds, join_strategy=strategy,
            ).repair(citizens)
            outputs.append(
                (
                    [tuple(result.relation.row(t))
                     for t in result.relation.tids()],
                    [(e.cell, e.old, e.new) for e in result.edits],
                    result.cost,
                )
            )
        assert all(output == outputs[0] for output in outputs[1:])

    def test_simjoin_strategy_alias_removed(self, citizens_fds):
        with pytest.raises(TypeError, match="simjoin_strategy"):
            Repairer(citizens_fds, simjoin_strategy="naive")
        assert not hasattr(Repairer(citizens_fds), "simjoin_strategy")

    def test_default_strategy_is_vectorized(self, citizens_fds):
        assert Repairer(citizens_fds).join_strategy == "vectorized"

    def test_unknown_strategy_raises_at_construction(self, citizens_fds,
                                                     citizens_thresholds):
        with pytest.raises(ValueError, match="naive"):
            Repairer(
                citizens_fds, thresholds=citizens_thresholds,
                join_strategy="hash-blocking",
            )


class TestSquashEdits:
    def test_reverted_cell_disappears(self):
        from repro.core.repair import CellEdit, squash_edits

        edits = [
            CellEdit(0, "A", "x", "y"),
            CellEdit(0, "A", "y", "x"),  # reverted
            CellEdit(1, "B", "p", "q"),
        ]
        squashed = squash_edits(edits)
        assert len(squashed) == 1
        assert squashed[0].cell == (1, "B")

    def test_chained_edits_collapse(self):
        from repro.core.repair import CellEdit, squash_edits

        edits = [
            CellEdit(0, "A", "x", "y"),
            CellEdit(0, "A", "y", "z"),
        ]
        squashed = squash_edits(edits)
        assert squashed == [CellEdit(0, "A", "x", "z")]

    def test_order_preserved(self):
        from repro.core.repair import CellEdit, squash_edits

        edits = [
            CellEdit(1, "B", "p", "q"),
            CellEdit(0, "A", "x", "y"),
        ]
        squashed = squash_edits(edits)
        assert [e.cell for e in squashed] == [(1, "B"), (0, "A")]
