"""Equivalence and fallback tests for the similarity join.

The library join (``vectorized``) must be observationally identical to
the definition-level scan oracle (``naive``,
:class:`tests.oracles.ScanJoin`): the same violations, the same
distances, the same emission order — while examining candidate pairs at distinct-dictionary-id
granularity and fanning matches back out to tuple pairs through the
dictionary frequency lists. Where it cannot block soundly it falls back
to the length-filtered pair scan, with the same guarantee.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.distances import DistanceModel, Weights
from repro.core.engine import Repairer
from repro.core.violation import group_patterns
from repro.dataset.relation import Relation, Schema
from repro.exec import RepairConfig
from repro.index import simjoin
from repro.index.simjoin import SimilarityJoin
from tests.oracles import ScanJoin

JOINS = {"naive": ScanJoin, "vectorized": SimilarityJoin}


def _violations(relation, fd, model, tau, strategy):
    """(left, right, distance) triples, in emission order."""
    join = JOINS[strategy](fd, model, tau)
    return [
        (v.left.values, v.right.values, v.distance)
        for v in join.join(group_patterns(relation, fd))
    ], join


def _assert_all_equal(relation, fd, model, tau):
    reference, _ = _violations(relation, fd, model, tau, "naive")
    vectorized, join = _violations(relation, fd, model, tau, "vectorized")
    assert vectorized == reference
    return join


def _squared_gap(a, b):
    """A custom numeric distance the blocker union cannot reason about."""
    return min(1.0, (float(a) - float(b)) ** 2 / 100.0)


class TestVectorizedEquivalence:
    """vectorized == naive, distances and order included."""

    def test_registered_strategy(self):
        # one join in the library; the one-value field stays until the
        # benchmark stops passing it
        assert not hasattr(simjoin, "STRATEGIES")
        assert not hasattr(simjoin, "DEFAULT_JOIN")
        assert RepairConfig().join_strategy == "vectorized"
        with pytest.raises(ValueError, match="test suite"):
            RepairConfig(join_strategy="naive")

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
    )
    def test_random_string_relations(self, rows, tau, w_lhs):
        relation = Relation(Schema.of("City", "State"), rows)
        fd = FD.parse("City -> State")
        model = DistanceModel(
            relation, weights=Weights(w_lhs, round(1.0 - w_lhs, 12))
        )
        _assert_all_equal(relation, fd, model, tau)

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
        override=st.booleans(),  # forces the scan fallback
    )
    def test_random_all_numeric_relations(self, rows, tau, override):
        schema = Schema.of("A", "B", numeric=("A", "B"))
        relation = Relation(schema, rows)
        fd = FD.parse("A -> B")
        model = DistanceModel(
            relation, overrides={"B": _squared_gap} if override else None
        )
        _assert_all_equal(relation, fd, model, tau)

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
        _assert_all_equal(relation, fd, DistanceModel(relation), tau)

    def test_citizens_slice(self, citizens, citizens_model, fd=None):
        fd = FD.parse("City -> State")
        for tau in (0.0, 0.3, 0.55, 10.0):
            _assert_all_equal(citizens, fd, citizens_model, tau)


class TestDegenerateRegimes:
    def test_empty_relation(self):
        relation = Relation(Schema.of("City", "State"))
        fd = FD.parse("City -> State")
        _assert_all_equal(relation, fd, DistanceModel(relation), 0.5)
        out, join = _violations(
            relation, fd, DistanceModel(relation), 0.5, "vectorized"
        )
        assert out == []
        assert join.plan is not None

    def test_single_distinct_value(self):
        relation = Relation(Schema.of("City", "State"), [("aa", "x")] * 5)
        fd = FD.parse("City -> State")
        _assert_all_equal(relation, fd, DistanceModel(relation), 0.5)

    def test_all_identical_column(self):
        rows = [("aa", "x"), ("aa", "y"), ("aa", "xy"), ("aa", "x")]
        relation = Relation(Schema.of("City", "State"), rows)
        fd = FD.parse("City -> State")
        for tau in (0.0, 0.4, 1.0):
            _assert_all_equal(relation, fd, DistanceModel(relation), tau)

    def test_tau_zero(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        out, _ = _violations(citizens, fd, citizens_model, 0.0, "vectorized")
        reference, _ = _violations(citizens, fd, citizens_model, 0.0, "naive")
        assert out == reference == []


class TestScanFallback:
    """Each trigger of the scan fallback, against the scan oracle."""

    ROWS = [("alpha", "x"), ("alpah", "x"), ("beta", "y"), ("alpha", "xy"),
            ("gamma", "x"), ("alpha", "x")]

    def test_distance_override_on_fd_attribute(self):
        relation = Relation(Schema.of("City", "State"), self.ROWS)
        fd = FD.parse("City -> State")
        model = DistanceModel(
            relation, overrides={"State": lambda a, b: 0.0 if a == b else 0.2}
        )
        for tau in (0.0, 0.15, 0.3, 0.6):
            join = _assert_all_equal(relation, fd, model, tau)
            assert join.plan.kind == "scan"

    def test_non_numeric_value_in_numeric_column(self):
        # the model treats Score as numeric; this relation stores it as
        # text, so "n/a" refuses the float coercion the blockers need
        numeric = Relation(
            Schema.of("Name", "Score", numeric=("Score",)),
            [("a", 1.0), ("b", 3.0)],
        )
        model = DistanceModel(numeric)
        relation = Relation(
            Schema.of("Name", "Score"),
            [(name, "n/a") for name, _ in self.ROWS],
        )
        fd = FD.parse("Name -> Score")
        for tau in (0.0, 0.2, 0.45):
            join = _assert_all_equal(relation, fd, model, tau)
            assert join.plan.kind == "scan"

    def test_tau_no_budget_split_covers(self):
        relation = Relation(Schema.of("City", "State"), self.ROWS)
        fd = FD.parse("City -> State")
        model = DistanceModel(relation)
        # the weights sum to 1 and every blocker goes vacuous near ratio
        # 1, so no sound budget split covers these taus
        for tau in (0.995, 1.0, 1.5):
            join = _assert_all_equal(relation, fd, model, tau)
            assert join.plan.kind == "scan"
            assert join.pairs_examined == join.possible_pairs


class TestCounters:
    def test_distinct_counters_populate(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        _, join = _violations(citizens, fd, citizens_model, 0.55, "vectorized")
        counters = join.counters()
        assert counters["distinct_pairs_examined"] == join.distinct_pairs_examined
        assert counters["tuple_fanout"] == join.tuple_fanout
        assert counters["vector_filter_passes"] == join.vector_filter_passes
        # at tuple granularity the fan-out dominates the distinct work
        assert join.distinct_pairs_examined <= max(1, join.tuple_fanout)
        assert join.vector_filter_passes > 0

    def test_kernel_runs_once_per_distinct_pair(self, citizens, citizens_model):
        # string attributes only: every distinct pair the blocker settles
        # or the verification needs is one kernel evaluation, uncached
        fd = FD.parse("City -> State")
        _, join = _violations(citizens, fd, citizens_model, 0.55, "vectorized")
        assert join.plan.kind == "block"
        assert join.kernel_calls == join.distinct_pairs_examined > 0

    def test_scalar_strategies_report_zero(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        scan_model = DistanceModel(
            citizens, overrides={"State": lambda a, b: float(a != b)}
        )
        for strategy, model in (("naive", citizens_model),
                                ("vectorized", scan_model)):
            _, join = _violations(citizens, fd, model, 0.55, strategy)
            assert join.distinct_pairs_examined == 0
            assert join.tuple_fanout == 0
            assert join.vector_filter_passes == 0

    def test_counters_invariant_across_n_jobs(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        def stats_for(n_jobs):
            report = Repairer(
                citizens_fds,
                thresholds=citizens_thresholds,
                n_jobs=n_jobs,
            ).detect(citizens)
            return report.stats

        serial, parallel = stats_for(1), stats_for(2)
        for key in (
            "distinct_pairs_examined",
            "tuple_fanout",
            "vector_filter_passes",
            "pairs_examined",
        ):
            assert serial[key] == parallel[key], key
        assert serial["distinct_pairs_examined"] > 0
        # the new counters flow into the aggregated pruning view and the
        # human-readable describe() line
        assert "distinct_pairs_examined" in serial.pruning
        assert "distinct pair(s)" in serial.describe()
