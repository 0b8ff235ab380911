"""Differential tests for the bitset search kernel (``docs/search.md``).

The branch-and-bound engine in ``repro.core.single.mis`` and the bitset
graph predicates must be *bit-for-bit* equivalent to their set-based
references: same sets in the same order, same statistics, same budget
trip point, same greedy growth sequence. Hypothesis drives random
graphs (plus the structured extremes: isolated vertices, cliques,
multi-component unions) through both implementations and rejects any
divergence.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.engine import Repairer
from repro.core.graph import ViolationGraph, mask_bits
from repro.core.single.greedy import _absorb, greedy_independent_set
from repro.core.single.mis import (
    ExpansionLimitError,
    ExpansionStats,
    best_maximal_independent_set,
    enumerate_maximal_independent_sets,
)
from repro.core.violation import Pattern
from repro.dataset.relation import Relation, Schema
from repro.obs import repair_output_hash
from tests.oracles import enumerate_maximal_independent_sets_setbased

# statistics fields the two enumeration engines must agree on exactly
# (the search_* counters are bitset-only instrumentation)
SHARED_STATS = (
    "levels",
    "nodes_generated",
    "nodes_pruned",
    "duplicates_removed",
    "non_maximal_discarded",
    "sets_enumerated",
)


def _graph_from(n: int, edge_spec, multiplicities) -> ViolationGraph:
    """A synthetic violation graph from drawn structure."""
    schema = Schema.of("A", "B")
    relation = Relation(schema, [(f"a{i}", f"b{i}") for i in range(n)])
    fd = FD.parse("A -> B")
    model = DistanceModel(relation)
    patterns, tid = [], 0
    for i in range(n):
        mult = multiplicities[i % len(multiplicities)] if multiplicities else 1
        patterns.append(
            Pattern((f"a{i}", f"b{i}"), tuple(range(tid, tid + mult)))
        )
        tid += mult
    edges = [(i, j, cost) for (i, j), cost in edge_spec if i < j < n]
    return ViolationGraph(fd, model, 0.5, patterns, edges)


@st.composite
def graphs(draw, n_max: int = 10):
    """Random violation graphs: arbitrary density, costs, multiplicities."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    edge_spec = []
    for pair in pairs:
        if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
            cost = draw(st.floats(min_value=0.05, max_value=0.95))
            edge_spec.append((pair, cost))
    multiplicities = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
    )
    return _graph_from(n, edge_spec, multiplicities)


def _structured_graph(kind: str) -> ViolationGraph:
    """The extremes the random strategy rarely hits head-on."""
    rng = random.Random(17)
    if kind == "isolated":  # no edges at all
        return _graph_from(6, [], [2, 1, 3])
    if kind == "clique":  # every pair in conflict
        spec = [
            ((i, j), rng.uniform(0.1, 0.9))
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        return _graph_from(6, spec, [1, 4, 2])
    # two cliques plus isolated vertices, multiple components
    spec = [((i, j), rng.uniform(0.1, 0.9)) for i in range(3) for j in range(i + 1, 3)]
    spec += [((i, j), rng.uniform(0.1, 0.9)) for i in range(3, 6) for j in range(i + 1, 6)]
    return _graph_from(8, spec, [3, 1, 2, 1])


STRUCTURED = ["isolated", "clique", "multi_component"]


class TestEnumerationDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), prune=st.booleans())
    def test_bitset_matches_setbased(self, graph, prune):
        s_new, s_old = ExpansionStats(), ExpansionStats()
        got = enumerate_maximal_independent_sets(graph, prune=prune, stats=s_new)
        want = enumerate_maximal_independent_sets_setbased(
            graph, prune=prune, stats=s_old
        )
        assert got == want  # list equality: same sets in the same order
        new_d, old_d = s_new.as_dict(), s_old.as_dict()
        for key in SHARED_STATS:
            assert new_d[key] == old_d[key], key

    @pytest.mark.parametrize("kind", STRUCTURED)
    @pytest.mark.parametrize("prune", [False, True])
    def test_structured_extremes(self, kind, prune):
        graph = _structured_graph(kind)
        got = enumerate_maximal_independent_sets(graph, prune=prune)
        want = enumerate_maximal_independent_sets_setbased(graph, prune=prune)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(n_max=8), max_nodes=st.integers(min_value=1, max_value=12))
    def test_budget_trips_at_identical_point(self, graph, max_nodes):
        """Both engines raise (or not) with identical error payloads."""

        def run(engine):
            try:
                engine(graph, prune=True, max_nodes=max_nodes)
            except ExpansionLimitError as exc:
                return (exc.limit, exc.nodes_generated, exc.level)
            return None

        assert run(enumerate_maximal_independent_sets) == run(
            enumerate_maximal_independent_sets_setbased
        )

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(n_max=8))
    def test_best_set_unchanged_by_pruning(self, graph):
        assert best_maximal_independent_set(
            graph, prune=True
        ) == best_maximal_independent_set(graph, prune=False)


class TestGraphPredicates:
    """Bitset predicates vs their first-principles definitions."""

    @settings(max_examples=80, deadline=None)
    @given(graph=graphs(n_max=8), data=st.data())
    def test_predicates_match_definitions(self, graph, data):
        n = len(graph)
        members = data.draw(
            st.frozensets(st.integers(min_value=0, max_value=n - 1))
        )
        independent = not any(
            u in graph.neighbors(v) for v in members for u in members
        )
        assert graph.is_independent(members) == independent
        maximal = independent and all(
            any(u in graph.neighbors(v) for u in members)
            for v in range(n)
            if v not in members
        )
        assert graph.is_maximal_independent(members) == maximal
        vertex = data.draw(st.integers(min_value=0, max_value=n - 1))
        kept = frozenset(
            v for v in members if v not in graph.neighbors(vertex)
        )
        assert graph.consistent_subset(vertex, members) == kept

    def test_mask_round_trip(self):
        graph = _structured_graph("multi_component")
        masks = graph.subgraph_masks([5, 2, 7])
        assert masks.to_vertices(masks.to_mask([2, 7])) == [2, 7]
        assert mask_bits(0b10110) == [1, 2, 4]
        # cached per vertex order
        assert graph.subgraph_masks([5, 2, 7]) is masks


class TestGreedyDifferential:
    @settings(max_examples=100, deadline=None)
    @given(graph=graphs(n_max=12), seed_dominant=st.booleans())
    def test_heap_growth_matches_full_scan(self, graph, seed_dominant):
        got = greedy_independent_set(graph, seed_dominant=seed_dominant)
        want = _full_scan_greedy(graph, seed_dominant)
        assert got == want

    def test_revalidation_counter_threaded(self):
        graph = _structured_graph("clique")
        counters = {}
        greedy_independent_set(graph, counters=counters)
        assert counters.get("search_heap_revalidations", -1) >= 0


def _full_scan_greedy(graph, seed_dominant):
    """The pre-heap Greedy-S loop: full Eq. (8) rescans every round."""
    order = list(range(len(graph)))
    allowed = set(order)

    def directed(v, u):
        return graph.multiplicity(v) * graph.neighbors(v)[u]

    chosen = {
        v for v in order if not any(u in allowed for u in graph.neighbors(v))
    }
    candidates = {v for v in order if v not in chosen}
    current_cost = {}
    if seed_dominant and candidates:
        for v in sorted(candidates, key=lambda u: (-graph.multiplicity(u), u)):
            if v not in candidates:
                continue
            rank = (graph.multiplicity(v), -v)
            if all(
                (graph.multiplicity(u), -u) < rank
                for u in graph.neighbors(v)
                if u in allowed
            ):
                chosen.add(v)
                candidates.discard(v)
                _absorb(graph, v, allowed, candidates, current_cost)
    if not chosen and candidates:
        first = min(
            candidates,
            key=lambda t: (
                sum(directed(v, t) for v in graph.neighbors(t) if v in allowed),
                t,
            ),
        )
        chosen.add(first)
        candidates.discard(first)
        _absorb(graph, first, allowed, candidates, current_cost)
    while candidates:

        def incremental_cost(t):
            delta = 0.0
            for v in graph.neighbors(t):
                if v not in allowed:
                    continue
                cost_to_t = directed(v, t)
                if v in current_cost:
                    delta += min(current_cost[v], cost_to_t) - current_cost[v]
                else:
                    delta += cost_to_t
            return delta

        best = min(candidates, key=lambda t: (incremental_cost(t), t))
        chosen.add(best)
        candidates.discard(best)
        _absorb(graph, best, allowed, candidates, current_cost)
    return frozenset(chosen)


class TestExpansionLimitError:
    def test_reports_limit_and_count(self):
        graph = _structured_graph("clique")
        with pytest.raises(ExpansionLimitError) as excinfo:
            enumerate_maximal_independent_sets(graph, max_nodes=2)
        exc = excinfo.value
        assert exc.limit == 2
        assert exc.nodes_generated == 3  # the emission that tripped it
        assert exc.level >= 1
        message = str(exc)
        assert "2-node budget" in message
        assert "3 nodes generated" in message


class TestEdgeCountCache:
    def test_cached_and_invalidated_on_add_edge(self):
        graph = _graph_from(4, [((0, 1), 0.3), ((1, 2), 0.4)], [1])
        assert graph.edge_count == 2
        graph.add_edge(2, 3, 0.5)
        assert graph.edge_count == 3
        assert graph.pair_cost(2, 3) == 0.5
        # re-adding an existing edge only updates the cost
        graph.add_edge(0, 1, 0.9)
        assert graph.edge_count == 3
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_add_edge_invalidates_masks(self):
        graph = _graph_from(3, [((0, 1), 0.3)], [1])
        before = graph.subgraph_masks()
        assert before.adjacency[2] == 0
        graph.add_edge(1, 2, 0.2)
        after = graph.subgraph_masks()
        assert after is not before
        assert after.adjacency[2] == 0b010


class TestEndToEndHashes:
    """n_jobs and the bitset kernel must not move any repair."""

    @pytest.mark.parametrize(
        "algorithm", ["exact-s", "greedy-s", "exact-m", "appro-m", "greedy-m"]
    )
    def test_hash_stable_across_worker_counts(
        self, small_hosp_workload, algorithm
    ):
        w = small_hosp_workload
        hashes = set()
        for n_jobs in (1, 2):
            repairer = Repairer(
                w["fds"],
                algorithm=algorithm,
                thresholds=w["thresholds"],
                n_jobs=n_jobs,
                fallback="greedy",
            )
            result = repairer.repair(w["dirty"])
            hashes.add(repair_output_hash(result.edits, result.cost))
        assert len(hashes) == 1
