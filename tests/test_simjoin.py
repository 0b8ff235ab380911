"""Tests for the similarity self-join against the definition-level scan.

``STRATEGIES`` names the two joins the tests compare: the library's
``SimilarityJoin`` (``vectorized``) and the oracle ``ScanJoin``
(``naive``), which evaluates Eq. (2) on every pattern pair.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.distances import DistanceModel, Weights
from repro.core.violation import group_patterns
from repro.dataset.relation import Relation, Schema
from repro.index.simjoin import SimilarityJoin
from tests.oracles import ScanJoin

JOINS = {"naive": ScanJoin, "vectorized": SimilarityJoin}
STRATEGIES = tuple(JOINS)


@pytest.fixture
def fd():
    return FD.parse("City -> State")


def _join(citizens, model, fd, tau, strategy):
    join = JOINS[strategy](fd, model, tau)
    patterns = group_patterns(citizens, fd)
    pairs = join.join(patterns)
    return {
        frozenset((v.left.values, v.right.values)) for v in pairs
    }, join


class TestStrategies:
    def test_unknown_strategy_rejected(self, citizens_model, fd):
        # the strategy argument left with the naive scan (2.9)
        with pytest.raises(TypeError, match="strategy"):
            SimilarityJoin(fd, citizens_model, 0.5, strategy="magic")

    def test_negative_tau_rejected(self, citizens_model, fd):
        with pytest.raises(ValueError):
            SimilarityJoin(fd, citizens_model, -0.1)

    def test_nan_tau_rejected(self, citizens_model, fd):
        with pytest.raises(ValueError, match="non-negative"):
            SimilarityJoin(fd, citizens_model, float("nan"))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_finds_expected_citizens_pairs(self, citizens, citizens_model, fd,
                                           strategy):
        pairs, _ = _join(citizens, citizens_model, fd, 0.55, strategy)
        # (Boton, MA) must pair with (Boston, MA) — the t8 typo
        assert frozenset({("Boton", "MA"), ("Boston", "MA")}) in pairs

    def test_all_strategies_agree(self, citizens, citizens_model, fd):
        reference, _ = _join(citizens, citizens_model, fd, 0.55, "naive")
        for strategy in STRATEGIES[1:]:
            pairs, _ = _join(citizens, citizens_model, fd, 0.55, strategy)
            assert pairs == reference

    def test_filter_counters(self, citizens, fd):
        # a distance override forces the length-filtered scan fallback
        model = DistanceModel(citizens, overrides={"State": _flat_distance})
        _, join = _join(citizens, model, fd, 0.55, "vectorized")
        assert join.plan.kind == "scan"
        assert join.pairs_examined == 10  # 5 distinct patterns -> C(5,2)
        assert 0 <= join.pairs_filtered <= join.pairs_examined

    def test_tau_zero_yields_nothing(self, citizens, citizens_model, fd):
        pairs, _ = _join(citizens, citizens_model, fd, 0.0, "vectorized")
        assert pairs == set()

    def test_large_tau_yields_all_pairs(self, citizens, citizens_model, fd):
        pairs, join = _join(citizens, citizens_model, fd, 10.0, "vectorized")
        assert len(pairs) == join.pairs_examined


def _flat_distance(a, b):
    """A custom distance: the vectorized join cannot block on it."""
    return 0.0 if a == b else 0.25


def _exact_violation_list(relation, fd, model, tau, strategy):
    """(left, right, distance) triples, in emission order."""
    join = JOINS[strategy](fd, model, tau)
    return [
        (v.left.values, v.right.values, v.distance)
        for v in join.join(group_patterns(relation, fd))
    ]


@settings(deadline=None, max_examples=40)
@given(
    rows=st.lists(
        st.tuples(
            st.text("abcd", min_size=1, max_size=6),
            st.text("xy", min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=12,
    ),
    tau=st.floats(0.0, 1.2),
)
def test_property_strategies_identical_on_random_relations(rows, tau):
    schema = Schema.of("City", "State")
    relation = Relation(schema, rows)
    fd = FD.parse("City -> State")
    model = DistanceModel(relation)
    patterns = group_patterns(relation, fd)
    results = []
    for join_class in JOINS.values():
        join = join_class(fd, model, tau)
        results.append(
            {
                frozenset((v.left.values, v.right.values))
                for v in join.join(patterns)
            }
        )
    assert all(result == results[0] for result in results[1:])


class TestIndexedEquivalence:
    """Index-driven detection — the vectorized blocker union and its scan
    fallback — must match the scan oracle exactly: pairs, distances, and emission
    order, including every degenerate regime."""

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("abc", min_size=0, max_size=7),  # empty strings in
                st.text("xyz", min_size=0, max_size=5),
            ),
            min_size=1,
            max_size=14,
        ),
        tau=st.floats(0.0, 1.1),
        w_lhs=st.sampled_from([0.0, 0.3, 0.5, 1.0]),  # weight-0 attrs in
        override=st.booleans(),  # forces the scan fallback
    )
    def test_random_string_relations(self, rows, tau, w_lhs, override):
        relation = Relation(Schema.of("City", "State"), rows)
        fd = FD.parse("City -> State")
        model = DistanceModel(
            relation,
            weights=Weights(w_lhs, round(1.0 - w_lhs, 12)),
            overrides={"State": _flat_distance} if override else None,
        )
        reference = _exact_violation_list(relation, fd, model, tau, "naive")
        vectorized = _exact_violation_list(
            relation, fd, model, tau, "vectorized"
        )
        assert vectorized == reference

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-50, 50).map(lambda f: round(f, 2)),
                st.floats(0, 10).map(lambda f: round(f, 2)),
            ),
            min_size=1,
            max_size=14,
        ),
        tau=st.floats(0.0, 1.1),
    )
    def test_random_all_numeric_relations(self, rows, tau):
        schema = Schema.of("A", "B", numeric=("A", "B"))
        relation = Relation(schema, rows)
        fd = FD.parse("A -> B")
        model = DistanceModel(relation)
        reference = _exact_violation_list(relation, fd, model, tau, "naive")
        vectorized = _exact_violation_list(
            relation, fd, model, tau, "vectorized"
        )
        assert vectorized == reference

    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("pqr", min_size=1, max_size=6),
                st.floats(-20, 20).map(lambda f: round(f, 1)),
            ),
            min_size=1,
            max_size=12,
        ),
        tau=st.floats(0.0, 0.9),
    )
    def test_random_mixed_relations(self, rows, tau):
        schema = Schema.of("Name", "Score", numeric=("Score",))
        relation = Relation(schema, rows)
        fd = FD.parse("Name -> Score")
        model = DistanceModel(relation)
        reference = _exact_violation_list(relation, fd, model, tau, "naive")
        vectorized = _exact_violation_list(
            relation, fd, model, tau, "vectorized"
        )
        assert vectorized == reference

    def test_tau_zero(self, citizens, citizens_model, fd):
        assert _exact_violation_list(
            citizens, fd, citizens_model, 0.0, "vectorized"
        ) == _exact_violation_list(citizens, fd, citizens_model, 0.0, "naive")

    def test_indexed_counters_are_consistent(self, citizens, citizens_model,
                                             fd):
        join = SimilarityJoin(fd, citizens_model, 0.55)
        join.join(group_patterns(citizens, fd))
        assert join.candidates_generated == join.pairs_examined
        assert join.pairs_examined == join.pairs_filtered + join.pairs_verified
        assert join.pairs_examined <= join.possible_pairs
        assert 0.0 <= join.reduction_ratio <= 1.0
        counters = join.counters()
        assert counters["possible_pairs"] == join.possible_pairs
        assert counters["blocker"] is not None  # scan or a blocker label

    def test_naive_never_filters(self, citizens, citizens_model, fd):
        join = ScanJoin(fd, citizens_model, 0.55)
        join.join(group_patterns(citizens, fd))
        assert join.pairs_filtered == 0
        assert join.pairs_verified == join.pairs_examined == join.possible_pairs
