"""The columnar substrate vs a row-major reference model.

Hypothesis drives random build/mutate programs against two
implementations at once — the dictionary-encoded :class:`Relation` and a
trivial list-of-dicts reference — and asserts every observation (cells,
domains, ranges, projections, counts, iteration, equality) agrees.
This is the observational-equivalence contract that let the columnar
rewrite land with zero behavioural change.

The encoded API (value ids, dictionaries, zero-copy columns) is tested
directly below against its documented invariants.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.relation import Relation, Schema, ValueDictionary

SCHEMA = Schema.of("A", "B", "N", numeric=["N"])

strings_a = st.sampled_from(["x", "y", "zz", "x ", "", "émile"])
strings_b = st.sampled_from(["red", "blue", "red ", "REd", "0"])
numbers = st.sampled_from([0.0, 1.0, -3.5, 2.0, 1e6])
rows = st.tuples(strings_a, strings_b, numbers)


class ReferenceRelation:
    """The pre-1.2 semantics, spelled as naively as possible."""

    def __init__(self, rows):
        self.rows = [
            {"A": str(a), "B": str(b), "N": float(n)} for a, b, n in rows
        ]

    def set_value(self, tid, attribute, value):
        coerce = float if attribute == "N" else str
        self.rows[tid][attribute] = coerce(value)

    def value(self, tid, attribute):
        return self.rows[tid][attribute]

    def active_domain(self, attribute):
        seen = {}
        for row in self.rows:
            seen.setdefault(row[attribute], None)
        return list(seen)

    def value_range(self):
        values = [row["N"] for row in self.rows]
        return float(max(values) - min(values)) if values else 0.0

    def value_counts(self, attributes):
        counts = {}
        for row in self.rows:
            key = tuple(row[a] for a in attributes)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def project(self, tid, attributes):
        return tuple(self.rows[tid][a] for a in attributes)


#: a random mutation program: (tid_seed, attribute, value_seed)
mutations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from(["A", "B", "N"]),
        st.integers(min_value=0, max_value=10 ** 6),
    ),
    max_size=10,
)

STRING_POOL = ["x", "y", "zz", "", "new", "émile", "red"]
NUMBER_POOL = [0.0, 1.0, -3.5, 7.25, 1e6]


def _apply(program, *relations):
    n = len(relations[0].rows if hasattr(relations[0], "rows") else relations[0])
    if not n:
        return
    for tid_seed, attribute, value_seed in program:
        tid = tid_seed % n
        if attribute == "N":
            value = NUMBER_POOL[value_seed % len(NUMBER_POOL)]
        else:
            value = STRING_POOL[value_seed % len(STRING_POOL)]
        for relation in relations:
            relation.set_value(tid, attribute, value)


@settings(deadline=None, max_examples=120)
@given(data=st.lists(rows, max_size=12), program=mutations)
def test_observational_equivalence(data, program):
    columnar = Relation(SCHEMA, data)
    reference = ReferenceRelation(data)
    _apply(program, columnar, reference)

    assert len(columnar) == len(reference.rows)
    for tid in columnar.tids():
        for attribute in ("A", "B", "N"):
            assert columnar.value(tid, attribute) == reference.value(
                tid, attribute
            )
        assert columnar.as_record(tid) == reference.rows[tid]
        assert columnar.project(tid, ["B", "A"]) == reference.project(
            tid, ["B", "A"]
        )
    for attribute in ("A", "B", "N"):
        assert columnar.active_domain(attribute) == reference.active_domain(
            attribute
        )
    if len(columnar):
        assert columnar.value_range("N") == reference.value_range()
    assert columnar.value_counts(["A", "B"]) == reference.value_counts(
        ["A", "B"]
    )
    assert columnar.value_counts(["N"]) == reference.value_counts(["N"])
    assert list(columnar) == [
        tuple(row[a] for a in ("A", "B", "N")) for row in reference.rows
    ]


@settings(deadline=None, max_examples=60)
@given(data=st.lists(rows, max_size=10), program=mutations)
def test_copy_is_independent_and_equal(data, program):
    original = Relation(SCHEMA, data)
    clone = original.copy()
    assert original == clone
    _apply(program, clone)
    # the original never sees the clone's writes
    for tid in original.tids():
        assert original.row(tid) == tuple(
            str(v) if a != "N" else float(v)
            for a, v in zip(("A", "B", "N"), data[tid])
        )


@settings(deadline=None, max_examples=60)
@given(data=st.lists(rows, max_size=10))
def test_equality_across_independent_builds(data):
    # separately built relations have distinct dictionaries (and so
    # possibly different id assignments); equality is by value
    left = Relation(SCHEMA, data)
    right = Relation(SCHEMA, list(reversed(data)))
    assert left == Relation(SCHEMA, data)
    assert (left == right) == (list(left) == list(right))


@settings(deadline=None, max_examples=80)
@given(data=st.lists(rows, min_size=1, max_size=12), program=mutations)
def test_intern_invariant(data, program):
    relation = Relation(SCHEMA, data)
    _apply(program, relation)
    for attribute in ("A", "B", "N"):
        column = relation.column(attribute)
        by_id = {}
        for tid in relation.tids():
            vid = relation.value_id(tid, attribute)
            assert column[tid] == vid
            value = relation.decode(attribute, vid)
            assert value == relation.value(tid, attribute)
            # equal values <-> equal ids, per attribute
            assert by_id.setdefault(vid, value) == value
        values = list(by_id.values())
        assert len(values) == len(set(map(repr, values)))


@settings(deadline=None, max_examples=60)
@given(data=st.lists(rows, min_size=1, max_size=12))
def test_project_ids_groups_like_values(data):
    relation = Relation(SCHEMA, data)
    indexes = relation.schema.indexes_of(["A", "B"])
    by_ids = {}
    by_values = {}
    for tid in relation.tids():
        by_ids.setdefault(relation.project_ids(tid, indexes), []).append(tid)
        by_values.setdefault(
            relation.project_indexes(tid, indexes), []
        ).append(tid)
    assert sorted(by_ids.values()) == sorted(by_values.values())


class TestEncodedApi:
    def test_column_is_readonly_and_live(self):
        relation = Relation(SCHEMA, [("x", "red", 1.0), ("y", "blue", 2.0)])
        column = relation.column("A")
        with pytest.raises(TypeError):
            column[0] = 7
        relation.set_value(0, "A", "y")
        assert column[0] == relation.value_id(1, "A")

    def test_encode_value_matches_existing_ids(self):
        relation = Relation(SCHEMA, [("x", "red", 1.0)])
        assert relation.encode_value("A", "x") == relation.value_id(0, "A")
        fresh = relation.encode_value("A", "brand-new")
        assert relation.decode("A", fresh) == "brand-new"

    def test_encode_value_coerces_numerics(self):
        relation = Relation(SCHEMA, [("x", "red", 1.0)])
        assert relation.encode_value("N", "1") == relation.value_id(0, "N")

    def test_dictionary_shared_across_copies(self):
        relation = Relation(SCHEMA, [("x", "red", 1.0)])
        clone = relation.copy()
        assert clone.dictionary("A") is relation.dictionary("A")
        clone.set_value(0, "A", "clone-only")
        # the original's column never references the clone's id
        assert relation.value(0, "A") == "x"

    def test_dict_stats(self):
        relation = Relation(
            SCHEMA, [("x", "red", 1.0), ("x", "red", 1.0), ("y", "red", 1.0)]
        )
        stats = relation.dict_stats()
        assert stats["rows"] == 3
        assert stats["cells"] == 9
        assert stats["dictionary_entries"] == 2 + 1 + 1
        assert stats["encoded_bytes"] == 9 * 4
        assert stats["intern_probes"] == 9
        assert stats["intern_hits"] == 9 - 4
        assert stats["dict_hit_rate"] == pytest.approx(5 / 9)

    def test_value_dictionary_roundtrip(self):
        vd = ValueDictionary()
        ids = [vd.intern(v) for v in ("a", "b", "a", "c")]
        assert ids == [0, 1, 0, 2]
        assert vd.id_of("b") == 1
        assert vd.decode(2) == "c"
        assert "a" in vd and "zzz" not in vd
        assert vd.values() == ("a", "b", "c")
        assert (vd.probes, vd.hits) == (4, 1)

    def test_value_dictionary_pickle_rebuilds_index(self):
        import pickle

        vd = ValueDictionary()
        for v in ("a", "b", "a"):
            vd.intern(v)
        clone = pickle.loads(pickle.dumps(vd))
        assert clone.values() == vd.values()
        assert clone.id_of("b") == vd.id_of("b")
        assert (clone.probes, clone.hits) == (vd.probes, vd.hits)
