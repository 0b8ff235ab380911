"""Tests for the cost model and closed-world validity (Section 2.2)."""

import pytest

from repro.core.cost import (
    database_repair_cost,
    invalid_repair_tids,
    is_valid_database_repair,
    is_valid_tuple_repair,
    original_projections,
    tuple_repair_cost,
)
from repro.core.distances import DistanceModel
from repro.dataset.relation import Relation, Schema


class TestTupleCost:
    def test_identical_rows_cost_zero(self, citizens, citizens_model):
        row = citizens.row(0)
        names = citizens.schema.names
        assert tuple_repair_cost(citizens_model, names, row, row) == 0.0

    def test_paper_cost_example(self, citizens, citizens_model):
        """cost(t10, t10') = ned(Bachelers, Bachelors) + ned(NY, MA)."""
        names = citizens.schema.names
        dirty = citizens.row(9)
        repaired = list(dirty)
        repaired[names.index("Education")] = "Bachelors"
        repaired[names.index("State")] = "MA"
        cost = tuple_repair_cost(citizens_model, names, dirty, repaired)
        assert cost == pytest.approx(1 / 9 + 1.0)

    def test_cost_additive_over_attributes(self, citizens, citizens_model):
        names = citizens.schema.names
        a = citizens.row(0)
        b = citizens.row(6)
        total = tuple_repair_cost(citizens_model, names, a, b)
        by_attr = sum(
            citizens_model.attribute_distance(attr, x, y)
            for attr, x, y in zip(names, a, b)
        )
        assert total == pytest.approx(by_attr)


class TestDatabaseCost:
    def test_zero_for_identity(self, citizens, citizens_model):
        assert database_repair_cost(citizens_model, citizens, citizens.copy()) == 0.0

    def test_accumulates_over_tuples(self, citizens, citizens_model):
        repaired = citizens.copy()
        repaired.set_value(0, "City", "Boston")
        repaired.set_value(1, "City", "Boston")
        single = citizens_model.attribute_distance("City", "New York", "Boston")
        assert database_repair_cost(
            citizens_model, citizens, repaired
        ) == pytest.approx(2 * single)

    def test_schema_mismatch_rejected(self, citizens, citizens_model):
        other = Relation(Schema.of("A"), [("x",)])
        with pytest.raises(ValueError):
            database_repair_cost(citizens_model, citizens, other)


class TestValidity:
    def test_original_projections(self, citizens, citizens_fds):
        pool = original_projections(citizens, citizens_fds[0])
        assert ("Masters", 4.0) in pool
        assert ("Masters", 9.0) not in pool

    def test_paper_validity_example(self, citizens, citizens_fds):
        """Repairing t6 to (Masters, 4) is valid; (Bachelors, 4) is not."""
        record = citizens.as_record(5)
        record["Education"] = "Masters"
        assert is_valid_tuple_repair(citizens, [citizens_fds[0]], record)
        record["Education"] = "Bachelors"
        assert not is_valid_tuple_repair(citizens, [citizens_fds[0]], record)

    def test_invalid_repair_tids_flags_new_combinations(self, citizens,
                                                        citizens_fds):
        repaired = citizens.copy()
        repaired.set_value(0, "Level", 9.0)  # (Bachelors, 9) never existed
        bad = invalid_repair_tids(citizens, repaired, citizens_fds)
        assert bad == [0]

    def test_unchanged_relation_is_valid(self, citizens, citizens_fds):
        assert invalid_repair_tids(citizens, citizens.copy(), citizens_fds) == []

    def test_full_validity_check(self, citizens, citizens_fds,
                                 citizens_thresholds):
        from repro.core.engine import Repairer

        model = DistanceModel(citizens)
        repairer = Repairer(
            citizens_fds, algorithm="greedy-m", thresholds=citizens_thresholds
        )
        result = repairer.repair(citizens)
        assert is_valid_database_repair(
            citizens, result.relation, citizens_fds, model, citizens_thresholds
        )
