"""Tests for the target tree (Section 5): structure + search correctness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import parse_fds
from repro.core.distances import DistanceModel
from repro.core.multi.target_tree import TargetTree
from repro.core.multi.targets import (
    TargetJoinError,
    join_targets,
    nearest_target_naive,
)
from repro.dataset.relation import Relation, Schema
from tests.oracles import ScalarTargetTree


@pytest.fixture
def component_fds(citizens_fds):
    return citizens_fds[1:]


@pytest.fixture
def example_sets():
    return [
        [("New York", "NY"), ("Boston", "MA")],
        [
            ("New York", "Main", "Manhattan"),
            ("New York", "Western", "Queens"),
            ("Boston", "Main", "Financial"),
            ("Boston", "Arlingto", "Brookside"),
        ],
    ]


class TestConstruction:
    def test_targets_match_naive_join(self, component_fds, example_sets,
                                      citizens_model):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        tree_targets = {t.values for t in tree.targets()}
        naive = {t.values for t in join_targets(component_fds, example_sets)}
        assert tree_targets == naive

    def test_smaller_sets_near_root(self, component_fds, example_sets,
                                    citizens_model):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        # phi2 has 2 elements, phi3 has 4: phi2 forms level 1
        assert tree.fds[0].name == "phi2"
        first = tree.levels()[0]
        assert first.fd.name == "phi2"
        assert len(first.elements) == 2
        assert first.parents == [-1, -1]

    def test_attribute_order_follows_caller(self, component_fds, example_sets,
                                            citizens_model):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        # caller order: phi2 then phi3 -> City, State, Street, District
        assert tree.attributes == ("City", "State", "Street", "District")
        # ...even when the sets are passed in reverse size order
        reversed_tree = TargetTree(
            list(reversed(component_fds)),
            list(reversed(example_sets)),
            citizens_model,
        )
        assert reversed_tree.attributes == ("City", "Street", "District", "State")

    def test_incompatible_sets_raise(self, component_fds, citizens_model):
        with pytest.raises(TargetJoinError):
            TargetTree(
                component_fds,
                [[("New York", "NY")], [("Boston", "Main", "Financial")]],
                citizens_model,
            )

    def test_subtree_value_sets(self, component_fds, example_sets,
                                citizens_model):
        """Fig. 4: node (New York, NY) stores its descendants' values."""
        tree = TargetTree(component_fds, example_sets, citizens_model)
        first = tree.levels()[0]
        ny_node = first.elements.index(("New York", "NY"))
        ny_values = first.subtree_values[ny_node]
        assert ny_values["Street"] == {"Main", "Western"}
        assert ny_values["District"] == {"Manhattan", "Queens"}

    def test_levels_link_children_to_parents(self, component_fds, example_sets,
                                             citizens_model):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        first, second = tree.levels()
        for element, parent in zip(second.elements, second.parents):
            # a child agrees with its parent on the shared City
            assert element[0] == first.elements[parent][0]
        assert second.subtree_values == [{}] * 4
        assert tree.node_count == 1 + 2 + 4

    def test_incomplete_paths_pruned(self, citizens_model):
        """Elements that join nothing are dropped from the tree."""
        fds = parse_fds(["A -> B", "B -> C"])
        sets = [
            [("a1", "b1"), ("a2", "bX")],  # bX joins no second-level element
            [("b1", "c1")],
        ]
        tree = TargetTree(fds, sets, citizens_model)
        assert len(tree.targets()) == 1
        first, second = tree.levels()
        assert first.elements == [("b1", "c1")]
        assert second.elements == [("a1", "b1")]


    def test_branches_dying_deeper_are_pruned(self, citizens_model):
        """A path that joins level 2 but not level 3 leaves no node."""
        fds = parse_fds(["A -> B", "B -> C", "C -> D"])
        sets = [
            [("a1", "b1"), ("a2", "b2")],
            [("b1", "c1"), ("b2", "c2"), ("b9", "c9")],
            [("c1", "d1"), ("c7", "d7"), ("c8", "d8"), ("c9", "d9")],
        ]
        tree = TargetTree(fds, sets, citizens_model)
        assert [level.elements for level in tree.levels()] == [
            [("a1", "b1")], [("b1", "c1")], [("c1", "d1")]
        ]
        assert tree.node_count == 4


class TestSearch:
    def test_example14_search(self, citizens, citizens_model, component_fds,
                              example_sets):
        """Example 14: t4=(New York, Western, Queens, MA) resolves to
        (New York, Western, Queens, NY) at cost 1.0 (the State cell)."""
        tree = TargetTree(component_fds, example_sets, citizens_model)
        values = citizens.project(3, tree.attributes)
        target, cost = tree.nearest_target(values)
        assert target.as_mapping() == {
            "City": "New York",
            "State": "NY",
            "Street": "Western",
            "District": "Queens",
        }
        assert cost == pytest.approx(1.0)

    def test_agrees_with_naive_on_all_citizens(self, citizens, citizens_model,
                                               component_fds, example_sets):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        targets = join_targets(component_fds, example_sets)
        for tid in citizens.tids():
            values = citizens.project(tid, tree.attributes)
            _, tree_cost = tree.nearest_target(values)
            _, naive_cost = nearest_target_naive(
                citizens_model, targets, values
            )
            assert tree_cost == pytest.approx(naive_cost)

    def test_search_counters_update(self, citizens, citizens_model,
                                    component_fds, example_sets):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        tree.nearest_target(citizens.project(0, tree.attributes))
        assert tree.searches == 1
        assert tree.nodes_visited >= 1

    def test_wrong_arity_rejected(self, citizens_model, component_fds,
                                  example_sets):
        tree = TargetTree(component_fds, example_sets, citizens_model)
        with pytest.raises(ValueError):
            tree.nearest_target(("just", "two"))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_property_tree_search_equals_naive_scan(seed):
    """Random overlapping FDs + random sets: tree == naive everywhere."""
    rng = random.Random(seed)
    schema = Schema.of("A", "B", "C")
    values_a = [f"a{i}" for i in range(3)]
    values_b = [f"b{i}" for i in range(3)]
    values_c = [f"c{i}" for i in range(3)]
    rows = [
        (rng.choice(values_a), rng.choice(values_b), rng.choice(values_c))
        for _ in range(8)
    ]
    relation = Relation(schema, rows)
    model = DistanceModel(relation)
    fds = parse_fds(["A -> B", "B -> C"])
    set_ab = list({(r[0], r[1]) for r in rows})
    set_bc = list({(r[1], r[2]) for r in rows})
    try:
        tree = TargetTree(fds, [set_ab, set_bc], model)
        targets = join_targets(fds, [set_ab, set_bc])
    except TargetJoinError:
        return  # incompatible random draw: nothing to compare
    for tid in relation.tids():
        values = relation.project(tid, tree.attributes)
        _, tree_cost = tree.nearest_target(values)
        _, naive_cost = nearest_target_naive(model, targets, values)
        assert tree_cost == pytest.approx(naive_cost)


# ----------------------------------------------------------------------
# Exact differential test against the scalar node-object search
# ----------------------------------------------------------------------
#: component shapes: one level, shared chains, no shared attribute, and
#: every attribute kind (S* strings, N numeric, O override)
_SHAPES = [
    ["S1 -> S2"],
    ["N -> S1"],
    ["S1 -> S2", "S2 -> N"],
    ["S1 -> N", "S1 -> O", "O -> S2"],
    ["S1 -> S2", "N -> O"],
    ["S1, S2 -> N", "S2 -> O", "O -> S1"],
]
_LONG = "x" * 70
_STRINGS = ["", "a", "ab", "ba", "abc", "café", "naïve", "日本", "日本語",
            _LONG, _LONG + "y", "y" + _LONG, "z" * 64]
_NUMBERS = [0, 1, 2, 3.5, 7, 10, float("inf")]


def _override(a, b):
    """A coarse distance with many ties: length gap over ten."""
    return min(abs(len(str(a)) - len(str(b))) / 10.0, 1.0)


#: "n/a" does not coerce to float and NaN is out of [0, 1]: the scalar
#: kernel raises ValueError on both, and the array search must too
_OUTSIDE = {
    "N": [-4, 11.25, 99, "n/a", float("nan")],
    "S": ["abd", "cafe", "日", _LONG + "q", "?"],
}


def _pool(attr):
    return _NUMBERS if attr == "N" else _STRINGS


@st.composite
def _tree_case(draw):
    fds = parse_fds(draw(st.sampled_from(_SHAPES)))
    attributes = sorted({a for fd in fds for a in fd.attributes})
    # a few values per attribute, so the sets join and costs tie often
    domain = {
        a: draw(st.lists(st.sampled_from(_pool(a)), min_size=1, max_size=4,
                         unique=True))
        for a in attributes
    }
    if "N" in domain and draw(st.booleans()):
        # a numeric column whose elements all hold one non-numeric token
        domain["N"] = ["n/a"]
    sets = [
        [
            tuple(draw(st.sampled_from(domain[a])) for a in fd.attributes)
            for _ in range(draw(st.integers(1, 8)))
        ]
        for fd in fds
    ]
    outside = {a: _pool(a) + _OUTSIDE["N" if a == "N" else "S"] for a in attributes}
    queries = [
        tuple(
            draw(st.sampled_from(outside[a] if draw(st.booleans()) else domain[a]))
            for a in attributes
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    zero_spread = draw(st.booleans())
    return fds, sets, attributes, queries, zero_spread


@settings(deadline=None, max_examples=250)
@given(case=_tree_case())
def test_array_tree_equals_scalar_search_exactly(case):
    """Same target, cost and nodes_visited, with ==.

    The oracle never prunes a child (its ``nodes_pruned`` stays 0), which
    is why the array search returns at the first leaf it pops. A query
    the scalar kernel rejects raises ValueError in both.
    """
    fds, sets, attributes, queries, zero_spread = case
    schema = Schema.of("S1", "S2", "N", "O", numeric=["N"])
    numbers = [5, 5] if zero_spread else [0, 10]
    relation = Relation(schema, [("a", "b", n, "o") for n in numbers])
    model = DistanceModel(relation, overrides={"O": _override})
    try:
        oracle = ScalarTargetTree(fds, sets, model)
    except TargetJoinError:
        with pytest.raises(TargetJoinError):
            TargetTree(fds, sets, model)
        return
    tree = TargetTree(fds, sets, model)
    assert tree.node_count == oracle.node_count
    assert [t.values for t in tree.targets()] == [t.values for t in oracle.targets()]
    for projection in queries:
        values = tuple(projection[attributes.index(a)] for a in tree.attributes)
        before = (oracle.nodes_visited, tree.nodes_visited)
        try:
            expected, expected_cost = oracle.nearest_target(values)
        except ValueError as error:
            # the same rejection, maybe of another pair of values
            with pytest.raises(type(error)) as raised:
                tree.nearest_target(values)
            assert str(raised.value).split(":")[0] == str(error).split(":")[0]
            continue
        target, cost = tree.nearest_target(values)
        assert target.values == expected.values
        assert cost == expected_cost
        assert tree.nodes_visited - before[1] == oracle.nodes_visited - before[0]
    assert oracle.nodes_pruned == 0


def test_wide_value_table_equals_scalar_search_exactly():
    """Past 64 values a table computes in-table vectors one at a time."""
    rng = random.Random(7)
    words = sorted({
        "".join(rng.choice("abcde") for _ in range(rng.randint(1, 9)))
        for _ in range(200)
    })[:80]
    sets = [[(w, words[i % 5]) for i, w in enumerate(words)]]
    fds = parse_fds(["A -> B"])
    relation = Relation(Schema.of("A", "B"), [(w, w) for w in words])
    model = DistanceModel(relation)
    tree = TargetTree(fds, sets, model)
    oracle = ScalarTargetTree(fds, sets, model)
    assert tree.memo_capacity == 85  # 80 + 5 values: A's table is wide
    for query in [(w, words[0]) for w in words[:20]] + [("abX", "zz"), ("", "a")]:
        target, cost = tree.nearest_target(query)
        expected, expected_cost = oracle.nearest_target(query)
        assert (target.values, cost) == (expected.values, expected_cost)
    assert tree.nodes_visited == oracle.nodes_visited
    assert tree.memo_size <= tree.memo_capacity
