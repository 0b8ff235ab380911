"""Unit tests for Greedy-M's synchronization machinery (Section 4.4)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import parse_fds
from repro.core.distances import DistanceModel, Weights
from repro.core.graph import ViolationGraph
from repro.core.multi.greedy import _FDState, repair_multi_fd_greedy
from repro.core.violation import PreparedProjection
from repro.dataset.relation import Relation, Schema


@pytest.fixture
def phi2_state(citizens, citizens_model, citizens_fds, citizens_thresholds):
    fd = citizens_fds[1]
    graph = ViolationGraph.build(
        citizens, fd, citizens_model, citizens_thresholds[fd]
    )
    return _FDState(fd, graph)


class TestFDState:
    def test_conflict_weights_match_neighbor_multiplicities(self, phi2_state):
        graph = phi2_state.graph
        for v in range(len(graph)):
            expected = sum(
                graph.multiplicity(u) for u in graph.neighbors(v)
            )
            assert phi2_state.conflict_weight[v] == expected

    def test_vertex_of_tid_covers_relation(self, phi2_state, citizens):
        assert set(phi2_state.vertex_of_tid) == set(citizens.tids())
        for tid, vertex in phi2_state.vertex_of_tid.items():
            assert tid in phi2_state.graph.patterns[vertex].tids

    def test_add_blocks_neighbors(self, phi2_state):
        graph = phi2_state.graph
        vertex = max(range(len(graph)), key=graph.degree)
        phi2_state.add(vertex)
        assert vertex in phi2_state.chosen
        for neighbor in graph.neighbors(vertex):
            assert neighbor in phi2_state.blocked

    def test_candidates_shrink_after_add(self, phi2_state):
        before = set(phi2_state.candidates())
        vertex = next(iter(before))
        phi2_state.add(vertex)
        after = set(phi2_state.candidates())
        assert vertex not in after
        assert after < before

    def test_conflicts_of_existing_pattern(self, citizens_model, phi2_state,
                                           citizens_thresholds, citizens_fds):
        tau = citizens_thresholds[citizens_fds[1]]
        graph = phi2_state.graph
        for v in range(len(graph)):
            got = phi2_state.conflicts_of_values(
                graph.patterns[v].values, citizens_model, tau
            )
            assert got == phi2_state.conflict_weight[v]

    def test_conflicts_of_novel_pattern(self, citizens_model, phi2_state,
                                        citizens_thresholds, citizens_fds):
        tau = citizens_thresholds[citizens_fds[1]]
        # (Boson, MA): a value combination not present in the data,
        # close to (Boston, MA) m4 and (Boton, MA) m1
        got = phi2_state.conflicts_of_values(("Boson", "MA"), citizens_model, tau)
        assert got >= 5

    def test_novel_pattern_cached(self, citizens_model, phi2_state,
                                  citizens_thresholds, citizens_fds):
        tau = citizens_thresholds[citizens_fds[1]]
        phi2_state.conflicts_of_values(("Boson", "MA"), citizens_model, tau)
        assert ("Boson", "MA") in phi2_state._novel_cache

    def test_median_edge_cost_positive(self, phi2_state):
        assert phi2_state.median_edge_cost > 0


class TestSynchronizationEffect:
    def test_synchronization_repairs_t5_city_not_district(
        self, citizens, citizens_model, citizens_fds, citizens_thresholds
    ):
        """Section 4.4's motivating case: considering phi3 jointly, t5's
        City must move to New York rather than its District to
        Financial."""
        result = repair_multi_fd_greedy(
            citizens, citizens_fds[1:], citizens_model, citizens_thresholds
        )
        assert result.relation.value(4, "City") == "New York"
        assert result.relation.value(4, "District") == "Manhattan"


# ----------------------------------------------------------------------
# The vector conflict weight against the pairwise distance_within loop
# ----------------------------------------------------------------------
def _loop_weight(state, model, values, tau):
    """The scalar conflict weight: one ``distance_within`` per pattern."""
    prepared = PreparedProjection(model, state.fd, values)
    total = 0.0
    for pattern in state.graph.patterns:
        if prepared.distance_within(pattern.values, tau) is not None:
            total += pattern.multiplicity
    return total


def _override(a, b):
    """A coarse distance with many ties: length gap over ten."""
    return min(abs(len(str(a)) - len(str(b))) / 10.0, 1.0)


_SCHEMA = Schema.of("S", "T", "N", "O", numeric=["N"])
_POOLS = {
    "S": ["", "ab", "abc", "abd", "café", "x" * 70, "x" * 69 + "y"],
    "T": ["t", "tt", "ut", "日本"],
    "N": [0.0, 1.0, 2.5, 4.0, 10.0],
    "O": ["o", "oo", "ooo", "p"],
}


@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_vector_conflict_weight_equals_distance_within_loop(data):
    fd = parse_fds([data.draw(st.sampled_from(
        ["S -> T", "S, N -> O", "O -> S", "N -> T", "T, O -> N"]
    ))])[0]
    rows = data.draw(st.lists(
        st.tuples(*(st.sampled_from(_POOLS[a]) for a in _SCHEMA.names)),
        min_size=2, max_size=12,
    ))
    relation = Relation(_SCHEMA, rows)
    weight = data.draw(st.sampled_from([0.5, 0.3, 0.7]))
    model = DistanceModel(
        relation, weights=Weights(weight, 1 - weight), overrides={"O": _override}
    )
    graph = ViolationGraph.build(relation, fd, model, 0.3)
    state = _FDState(fd, graph)
    novel = [
        tuple(data.draw(st.sampled_from(_POOLS[a])) for a in fd.attributes)
        for _ in range(4)
    ]
    for values in novel:
        if values in state.by_values:
            continue
        # thresholds at 0, at the exact distance and at the length bound
        # to some pattern, and wide
        pattern = data.draw(st.sampled_from(graph.patterns)).values
        prepared = PreparedProjection(model, fd, values)
        exact = prepared.distance_within(pattern, 2.0, use_filters=False)
        for tau in (0.0, exact, prepared.length_lower_bound(pattern), 0.3, 1.0):
            fresh = _FDState(fd, graph)
            assert fresh.conflicts_of_values(values, model, tau) == _loop_weight(
                fresh, model, values, tau
            )


@pytest.mark.parametrize("weight, included_at_exact", [(0.5, 3.0), (0.3, 0.0)])
def test_tau_at_a_length_bound_equal_to_the_exact_distance(weight, included_at_exact):
    """("abcdef", "t") against ("abcdefg", "t"): one insertion, so the
    length bound and the exact distance are both ``w * 1/7``. Rounded,
    ``(0.5 * 1) / 7 == 0.5 * (1 / 7)`` but ``(0.3 * 1) / 7`` is one ulp
    above ``0.3 * (1 / 7)``, so at tau = the exact distance the length
    bound rejects the pattern; at tau = the bound it is within, and one
    ulp below the smaller of the two it is not."""
    fd = parse_fds(["S -> T"])[0]
    rows = [("abcdefg", "t", 0.0, "o")] * 3 + [("x", "tt", 0.0, "o")]
    relation = Relation(_SCHEMA, rows)
    model = DistanceModel(relation, weights=Weights(weight, 1 - weight))
    graph = ViolationGraph.build(relation, fd, model, 0.3)
    values = ("abcdef", "t")
    prepared = PreparedProjection(model, fd, values)
    bound = prepared.length_lower_bound(("abcdefg", "t"))
    exact = prepared.distance_within(("abcdefg", "t"), 1.0, use_filters=False)
    assert bound == (weight * 1) / 7 and exact == weight * (1 / 7)
    cases = (
        (exact, included_at_exact),
        (bound, 3.0),
        (math.nextafter(min(bound, exact), 0.0), 0.0),
    )
    for tau, expected in cases:
        state = _FDState(fd, graph)
        got = state.conflicts_of_values(values, model, tau)
        assert got == _loop_weight(state, model, values, tau) == expected
