"""Cross-module property-based tests.

Random small relations + the `K -> V` dependency, checking the paper's
structural guarantees end-to-end: every repair algorithm must produce an
FT-consistent, closed-world-valid output whose reported cost matches its
edits, touch only constrained attributes, and be idempotent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.cost import invalid_repair_tids
from repro.core.distances import DistanceModel
from repro.core.engine import Repairer
from repro.core.single.exact import repair_single_fd_exact
from repro.core.single.greedy import repair_single_fd_greedy
from repro.core.violation import group_patterns
from repro.dataset.relation import Relation, Schema
from repro.index.simjoin import SimilarityJoin
from tests.oracles import scan_ft_consistent

FD_KV = FD.parse("K -> V")

#: small value pools with a mix of near and far strings
keys = st.sampled_from(["alpha", "alpho", "bravo", "briva", "charlie"])
values = st.sampled_from(["red", "rad", "blue", "blua", "green"])
relations = st.lists(
    st.tuples(keys, values), min_size=1, max_size=14
).map(lambda rows: Relation(Schema.of("K", "V", "Extra"),
                            [(k, v, "x") for k, v in rows]))
taus = st.sampled_from([0.1, 0.2, 0.3, 0.5])


@settings(deadline=None, max_examples=60)
@given(relation=relations, tau=taus)
def test_greedy_repair_is_ft_consistent_and_valid(relation, tau):
    model = DistanceModel(relation)
    result = repair_single_fd_greedy(relation, FD_KV, model, tau)
    assert scan_ft_consistent(result.relation, [FD_KV], model, {FD_KV: tau})
    assert invalid_repair_tids(relation, result.relation, [FD_KV]) == []


@settings(deadline=None, max_examples=60)
@given(relation=relations, tau=taus)
def test_exact_repair_is_ft_consistent_and_optimal_bound(relation, tau):
    model = DistanceModel(relation)
    exact = repair_single_fd_exact(relation, FD_KV, model, tau)
    greedy = repair_single_fd_greedy(relation, FD_KV, model, tau)
    assert scan_ft_consistent(exact.relation, [FD_KV], model, {FD_KV: tau})
    assert exact.cost <= greedy.cost + 1e-9


@settings(deadline=None, max_examples=40)
@given(relation=relations, tau=taus)
def test_repair_touches_only_fd_attributes(relation, tau):
    model = DistanceModel(relation)
    result = repair_single_fd_greedy(relation, FD_KV, model, tau)
    assert {edit.attribute for edit in result.edits} <= {"K", "V"}
    for tid in relation.tids():
        assert result.relation.value(tid, "Extra") == "x"


@settings(deadline=None, max_examples=40)
@given(relation=relations, tau=taus)
def test_repair_is_idempotent(relation, tau):
    model = DistanceModel(relation)
    first = repair_single_fd_greedy(relation, FD_KV, model, tau)
    model2 = DistanceModel(first.relation)
    second = repair_single_fd_greedy(first.relation, FD_KV, model2, tau)
    assert second.edits == []


@settings(deadline=None, max_examples=40)
@given(relation=relations, tau=taus)
def test_cost_equals_sum_of_edit_distances(relation, tau):
    model = DistanceModel(relation)
    result = repair_single_fd_greedy(relation, FD_KV, model, tau)
    recomputed = sum(
        model.attribute_distance(e.attribute, e.old, e.new)
        for e in result.edits
    )
    assert result.cost == pytest.approx(recomputed)


@settings(deadline=None, max_examples=40)
@given(relation=relations, tau=taus)
def test_repaired_values_come_from_active_domain(relation, tau):
    model = DistanceModel(relation)
    result = repair_single_fd_greedy(relation, FD_KV, model, tau)
    domains = {
        attr: set(relation.active_domain(attr)) for attr in ("K", "V")
    }
    for edit in result.edits:
        assert edit.new in domains[edit.attribute]


@settings(deadline=None, max_examples=40)
@given(relation=relations)
def test_pattern_multiplicities_partition(relation):
    patterns = group_patterns(relation, FD_KV)
    assert sum(p.multiplicity for p in patterns) == len(relation)
    tids = sorted(t for p in patterns for t in p.tids)
    assert tids == list(relation.tids())


@settings(deadline=None, max_examples=25)
@given(relation=relations, tau=taus)
def test_engine_multi_algorithms_agree_with_direct_call(relation, tau):
    """The engine facade adds dispatch, not semantics."""
    model = DistanceModel(relation)
    direct = repair_single_fd_greedy(relation, FD_KV, model, tau)
    engine = Repairer(
        [FD_KV], algorithm="greedy-s", thresholds=tau
    ).repair(relation)
    assert {e.cell for e in engine.edits} == {e.cell for e in direct.edits}


@settings(deadline=None, max_examples=25)
@given(relation=relations, tau=taus)
def test_tau_monotonicity_of_detection(relation, tau):
    """Raising tau can only add FT-violations, never remove them."""
    model = DistanceModel(relation)
    patterns = group_patterns(relation, FD_KV)
    small = {
        (v.left.values, v.right.values)
        for v in SimilarityJoin(FD_KV, model, tau).join(patterns)
    }
    large = {
        (v.left.values, v.right.values)
        for v in SimilarityJoin(FD_KV, model, tau + 0.2).join(patterns)
    }
    assert small <= large


# ----------------------------------------------------------------------
# Multi-FD engine fuzz: two overlapping constraints over random data
# ----------------------------------------------------------------------
FD_AB = FD.parse("A -> B")
FD_BC = FD.parse("B -> C")

a_values = st.sampled_from(["ax-11", "bx-22", "cx-33"])
b_values = st.sampled_from(["mm-77", "nn-88"])
c_values = st.sampled_from(["pp-44", "qq-55", "rr-66"])
multi_relations = st.lists(
    st.tuples(a_values, b_values, c_values), min_size=2, max_size=12
).map(lambda rows: Relation(Schema.of("A", "B", "C"), rows))


@settings(deadline=None, max_examples=40)
@given(relation=multi_relations, tau=st.sampled_from([0.2, 0.4]))
def test_multi_engine_output_is_ft_consistent_and_valid(relation, tau):
    repairer = Repairer([FD_AB, FD_BC], algorithm="greedy-m", thresholds=tau)
    result = repairer.repair(relation)
    model = DistanceModel(relation)
    thresholds = {FD_AB: tau, FD_BC: tau}
    assert scan_ft_consistent(
        result.relation, [FD_AB, FD_BC], model, thresholds
    )
    assert invalid_repair_tids(relation, result.relation, [FD_AB, FD_BC]) == []


@settings(deadline=None, max_examples=30)
@given(relation=multi_relations, tau=st.sampled_from([0.2, 0.4]))
def test_multi_engine_deterministic(relation, tau):
    repairer = Repairer([FD_AB, FD_BC], algorithm="appro-m", thresholds=tau)
    assert repairer.repair(relation).edits == repairer.repair(relation).edits


@settings(deadline=None, max_examples=25)
@given(relation=multi_relations, tau=st.sampled_from([0.2, 0.4]))
def test_exact_m_never_beaten_by_heuristics(relation, tau):
    exact = Repairer(
        [FD_AB, FD_BC], algorithm="exact-m", thresholds=tau,
        max_nodes=50_000, max_combinations=50_000,
    ).repair(relation)
    if not exact.stats.get("exhaustive", False):
        return  # anytime mode: no optimality claim
    for algorithm in ("appro-m", "greedy-m"):
        other = Repairer(
            [FD_AB, FD_BC], algorithm=algorithm, thresholds=tau
        ).repair(relation)
        assert exact.cost <= other.cost + 1e-9
