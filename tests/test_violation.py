"""Tests for FT-violation semantics (Section 2.1) on the running example.

Violations come from the library's join (``fd_violations``);
FT-consistency is checked by definition with the scan oracle.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.constraints import FD
from repro.core.detection import fd_violations
from repro.core.distances import DistanceModel, Weights
from repro.core.violation import (
    PreparedProjection,
    classic_violation_pairs,
    group_patterns,
    is_consistent,
    is_consistent_all,
    subsumes_classic_threshold,
)
from repro.dataset.relation import Relation, Schema
from tests.oracles import ScanJoin, scan_ft_consistent


def _tuple_violations(relation, fd, model, tau):
    """Tuple-level FT-violations ``(tid1, tid2, distance)``, tid1 < tid2."""
    violations, _counters = fd_violations(relation, fd, model, tau)
    for violation in violations:
        for t1 in violation.left.tids:
            for t2 in violation.right.tids:
                yield min(t1, t2), max(t1, t2), violation.distance


class TestGroupPatterns:
    def test_grouping_on_citizens_phi1(self, citizens, citizens_fds):
        patterns = group_patterns(citizens, citizens_fds[0])
        # 7 distinct (Education, Level) combinations in Table 1
        assert len(patterns) == 7
        assert sum(p.multiplicity for p in patterns) == len(citizens)

    def test_multiplicity_descending_order(self, citizens, citizens_fds):
        patterns = group_patterns(citizens, citizens_fds[0])
        mults = [p.multiplicity for p in patterns]
        assert mults == sorted(mults, reverse=True)
        assert patterns[0].values == ("Bachelors", 3.0)

    def test_pattern_accessors(self, citizens, citizens_fds):
        fd = citizens_fds[2]  # City, Street -> District
        pattern = group_patterns(citizens, fd)[0]
        assert pattern.lhs_values(fd) == pattern.values[:2]
        assert pattern.rhs_values(fd) == pattern.values[2:]

    def test_tids_partition_relation(self, citizens, citizens_fds):
        patterns = group_patterns(citizens, citizens_fds[1])
        tids = sorted(t for p in patterns for t in p.tids)
        assert tids == list(citizens.tids())


class TestClassicSemantics:
    def test_example4_violation(self, citizens, citizens_fds):
        """(t4, t8) violate phi1: same Education, different Level."""
        pairs = classic_violation_pairs(citizens, citizens_fds[0])
        assert (3, 7) in pairs  # paper's t4, t8 are our tids 3, 7

    def test_example4_non_violation(self, citizens, citizens_fds):
        """(t4, t6) do not classically violate phi1 (different LHS)."""
        pairs = classic_violation_pairs(citizens, citizens_fds[0])
        assert (3, 5) not in pairs

    def test_is_consistent_detects_dirty(self, citizens, citizens_fds):
        assert not is_consistent(citizens, citizens_fds[0])

    def test_clean_citizens_is_consistent(self, citizens_truth, citizens_fds):
        assert is_consistent_all(citizens_truth, citizens_fds)

    def test_single_tuple_relation_is_consistent(self):
        rel = Relation(Schema.of("A", "B"), [("x", "y")])
        assert is_consistent(rel, FD.parse("A -> B"))


class TestFTViolations:
    def test_t8_city_error_detected_only_by_ft(self, citizens, citizens_model):
        """The paper's t8 (Boton) is invisible classically, visible FT."""
        fd = FD.parse("City -> State")
        classic = classic_violation_pairs(citizens, fd)
        assert not any(7 in pair for pair in classic)
        ft = list(_tuple_violations(citizens, fd, citizens_model, 0.55))
        assert any(7 in (a, b) for a, b, _ in ft)

    def test_identical_projections_never_violate(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        for a, b, _ in _tuple_violations(citizens, fd, citizens_model, 0.55):
            assert citizens.project(a, fd.attributes) != citizens.project(
                b, fd.attributes
            )

    def test_distances_below_threshold(self, citizens, citizens_model, citizens_fds):
        fd = citizens_fds[1]
        violations, _ = fd_violations(citizens, fd, citizens_model, 0.55)
        assert violations
        for violation in violations:
            assert violation.distance <= 0.55

    def test_example6_pair(self, citizens, citizens_model, citizens_fds):
        """(t4, t6) FT-violate phi1 at tau=0.35 (Example 6)."""
        fd = citizens_fds[0]
        prepared = PreparedProjection(citizens_model, fd, ("Masters", 4.0))
        d = prepared.distance_within(("Masers", 4.0), 0.35)
        assert d == pytest.approx(0.5 / 7)

    def test_projection_distance_none_above_tau(self, citizens_model, citizens_fds):
        fd = citizens_fds[0]
        prepared = PreparedProjection(citizens_model, fd, ("Bachelors", 3.0))
        assert prepared.distance_within(("HS-grad", 9.0), 0.35) is None

    def test_filters_do_not_change_results(self, citizens, citizens_model):
        fd = FD.parse("City, Street -> District")
        # the join's filters against the unfiltered scan
        patterns = group_patterns(citizens, fd)
        with_filters, _ = fd_violations(citizens, fd, citizens_model, 0.55)
        without = ScanJoin(fd, citizens_model, 0.55).join(patterns)
        key = lambda v: (v.left.values, v.right.values)
        assert sorted(map(key, with_filters)) == sorted(map(key, without))

    def test_ft_consistency_of_clean_data(self, citizens_truth, citizens_fds,
                                          citizens_thresholds):
        model = DistanceModel(citizens_truth)
        # The *clean* instance still has near values (Boston/New York are
        # far, but (New York, NY)/(Boston, MA)... ) — check it holds for
        # phi1 at its threshold.
        fd = citizens_fds[0]
        assert scan_ft_consistent(
            citizens_truth, [fd], model, {fd: citizens_thresholds[fd]}
        )
        assert not fd_violations(
            citizens_truth, fd, model, citizens_thresholds[fd]
        )[0]

    def test_dirty_citizens_not_ft_consistent(
        self, citizens, citizens_model, citizens_fds, citizens_thresholds
    ):
        assert not scan_ft_consistent(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )

    def test_tau_zero_detects_only_identical_nothing(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        # tau=0: only pairs at distance exactly 0, but those are grouped
        # away — no violations at all.
        assert fd_violations(citizens, fd, citizens_model, 0.0)[0] == []


class TestTheorem1:
    """tau >= w_r * |Y|: FT-consistency implies classic consistency."""

    def test_bound_value(self, citizens_model, citizens_fds):
        assert subsumes_classic_threshold(citizens_fds[0], citizens_model) == 0.5

    def test_bound_scales_with_rhs_width(self, citizens):
        model = DistanceModel(citizens, weights=Weights(0.3, 0.7))
        fd = FD.parse("City -> State, District")
        assert subsumes_classic_threshold(fd, model) == pytest.approx(1.4)

    @given(st.integers(0, 2**31 - 1))
    def test_ft_consistent_implies_consistent_random_instances(self, seed):
        """Property: at tau = w_r*|Y|, FT-consistent => consistent."""
        import random

        rng = random.Random(seed)
        schema = Schema.of("A", "B")
        values = ["aa", "ab", "ba", "bb"]
        rel = Relation(
            schema,
            [
                (rng.choice(values), rng.choice(values))
                for _ in range(rng.randint(1, 8))
            ],
        )
        fd = FD.parse("A -> B")
        model = DistanceModel(rel)
        tau = subsumes_classic_threshold(fd, model)
        if scan_ft_consistent(rel, [fd], model, {fd: tau}):
            assert is_consistent(rel, fd)

    def test_classic_violation_is_ft_violation_at_bound(
        self, citizens, citizens_model, citizens_fds
    ):
        fd = citizens_fds[1]
        tau = subsumes_classic_threshold(fd, citizens_model)
        ft_pairs = {
            (a, b)
            for a, b, _ in _tuple_violations(citizens, fd, citizens_model, tau)
        }
        for pair in classic_violation_pairs(citizens, fd):
            assert pair in ft_pairs
