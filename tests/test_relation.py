"""Unit tests for the relation substrate."""

import pytest

from repro.dataset.relation import (
    NUMERIC,
    STRING,
    Attribute,
    Relation,
    Schema,
)


class TestAttribute:
    def test_default_kind_is_string(self):
        assert Attribute("A").kind == STRING

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Attribute("A", "blob")


class TestSchema:
    def test_of_builder(self):
        schema = Schema.of("A", "B", numeric=["B"])
        assert schema.kind_of("A") == STRING
        assert schema.kind_of("B") == NUMERIC

    def test_of_rejects_unknown_numeric(self):
        with pytest.raises(ValueError):
            Schema.of("A", numeric=["Z"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Schema([Attribute("A"), Attribute("A")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_index_of(self):
        schema = Schema.of("A", "B", "C")
        assert schema.index_of("C") == 2
        with pytest.raises(KeyError):
            schema.index_of("Z")

    def test_indexes_of_preserves_order(self):
        schema = Schema.of("A", "B", "C")
        assert schema.indexes_of(["C", "A"]) == (2, 0)

    def test_contains_len_iter(self):
        schema = Schema.of("A", "B")
        assert "A" in schema and "Z" not in schema
        assert len(schema) == 2
        assert [a.name for a in schema] == ["A", "B"]

    def test_equality_and_hash(self):
        assert Schema.of("A", "B") == Schema.of("A", "B")
        assert Schema.of("A") != Schema.of("B")
        assert hash(Schema.of("A", "B")) == hash(Schema.of("A", "B"))


class TestRelation:
    def test_append_and_row(self, simple_schema):
        rel = Relation(simple_schema)
        tid = rel.append(("a", "b", "c", 5))
        assert tid == 0
        assert rel.row(0) == ("a", "b", "c", 5.0)

    def test_append_rejects_wrong_arity(self, simple_schema):
        rel = Relation(simple_schema)
        with pytest.raises(ValueError):
            rel.append(("a", "b"))

    def test_numeric_coercion(self, simple_schema):
        rel = Relation(simple_schema, [("a", "b", "c", "7")])
        assert rel.value(0, "N") == 7.0

    def test_numeric_rejects_bool(self, simple_schema):
        rel = Relation(simple_schema)
        with pytest.raises(TypeError):
            rel.append(("a", "b", "c", True))

    def test_string_coercion(self, simple_schema):
        rel = Relation(simple_schema, [(1, 2, 3, 4)])
        assert rel.value(0, "A") == "1"

    def test_set_value(self, simple_relation):
        simple_relation.set_value(0, "A", "patched")
        assert simple_relation.value(0, "A") == "patched"

    def test_record(self, simple_relation):
        record = simple_relation.as_record(0)
        assert record == {"A": "x1", "B": "y1", "C": "z1", "N": 1.0}

    def test_project(self, simple_relation):
        assert simple_relation.project(2, ["C", "A"]) == ("z2", "x2")

    def test_project_indexes(self, simple_relation):
        idx = simple_relation.schema.indexes_of(["B", "N"])
        assert simple_relation.project_indexes(3, idx) == ("y2", 4.0)

    def test_active_domain_order_and_uniqueness(self, simple_relation):
        assert simple_relation.active_domain("A") == ["x1", "x2"]
        assert simple_relation.active_domain("C") == ["z1", "z2", "z9"]

    def test_value_range(self, simple_relation):
        assert simple_relation.value_range("N") == 3.0

    def test_value_range_rejects_strings(self, simple_relation):
        with pytest.raises(TypeError):
            simple_relation.value_range("A")

    def test_value_range_empty(self, simple_schema):
        assert Relation(simple_schema).value_range("N") == 0.0

    def test_value_counts(self, simple_relation):
        counts = simple_relation.value_counts(["A"])
        assert counts == {("x1",): 2, ("x2",): 2}

    def test_copy_is_independent(self, simple_relation):
        clone = simple_relation.copy()
        clone.set_value(0, "A", "other")
        assert simple_relation.value(0, "A") == "x1"

    def test_equality(self, simple_relation):
        assert simple_relation == simple_relation.copy()
        other = simple_relation.copy()
        other.set_value(0, "A", "zzz")
        assert simple_relation != other

    def test_len_iter_tids(self, simple_relation):
        assert len(simple_relation) == 4
        assert list(simple_relation.tids()) == [0, 1, 2, 3]
        assert len(list(simple_relation)) == 4

    def test_from_dicts(self, simple_schema):
        rel = Relation.from_records(
            simple_schema, [{"A": "a", "B": "b", "C": "c", "N": 1}]
        )
        assert rel.row(0) == ("a", "b", "c", 1.0)

    def test_to_text_contains_header_and_values(self, simple_relation):
        text = simple_relation.to_text()
        assert "A" in text and "x1" in text

    def test_to_text_limit(self, simple_relation):
        text = simple_relation.to_text(limit=2)
        assert "2 more" in text
