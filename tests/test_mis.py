"""Tests for maximal-independent-set enumeration (Section 3.1).

The expansion algorithm is cross-checked against a brute-force oracle on
the running example and on random graphs.
"""

import random

import pytest

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph
from repro.core.single.mis import (
    ExpansionLimitError,
    ExpansionStats,
    best_maximal_independent_set,
    enumerate_maximal_independent_sets,
)
from repro.core.violation import Pattern
from repro.dataset.relation import Relation, Schema
from tests.oracles import brute_force_maximal_independent_sets


def _random_graph(seed: int, n_max: int = 9) -> ViolationGraph:
    """A synthetic violation graph with arbitrary edges and weights."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    schema = Schema.of("A", "B")
    rows = [(f"a{i}", f"b{i}") for i in range(n)]
    relation = Relation(schema, rows)
    fd = FD.parse("A -> B")
    model = DistanceModel(relation)
    # genuinely varied multiplicities — a mult-1 only generator hid a
    # pruning bug (the Eq. 5 bound must not charge the undecided vertex)
    tid = 0
    patterns = []
    for i in range(n):
        mult = rng.randint(1, 4)
        patterns.append(
            Pattern((f"a{i}", f"b{i}"), tuple(range(tid, tid + mult)))
        )
        tid += mult
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.append((i, j, rng.uniform(0.05, 0.9)))
    return ViolationGraph(fd, model, 0.5, patterns, edges)


class TestEnumerationOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        graph = _random_graph(seed)
        expected = set(brute_force_maximal_independent_sets(graph))
        got = set(enumerate_maximal_independent_sets(graph))
        assert got == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_all_results_are_maximal_independent(self, seed):
        graph = _random_graph(seed)
        for mis in enumerate_maximal_independent_sets(graph):
            assert graph.is_maximal_independent(mis)

    def test_empty_vertex_list(self, citizens, citizens_model, citizens_fds,
                               citizens_thresholds):
        fd = citizens_fds[0]
        graph = ViolationGraph.build(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        assert enumerate_maximal_independent_sets(graph, []) == []

    def test_singleton_component(self, citizens, citizens_model, citizens_fds,
                                 citizens_thresholds):
        fd = citizens_fds[0]
        graph = ViolationGraph.build(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        isolated = next(
            c[0] for c in graph.connected_components() if len(c) == 1
        )
        assert enumerate_maximal_independent_sets(graph, [isolated]) == [
            frozenset({isolated})
        ]

    def test_node_budget_enforced(self):
        graph = _random_graph(3, n_max=9)
        with pytest.raises(ExpansionLimitError):
            enumerate_maximal_independent_sets(graph, max_nodes=1)

    def test_stats_populated(self):
        graph = _random_graph(5)
        stats = ExpansionStats()
        enumerate_maximal_independent_sets(graph, stats=stats)
        assert stats.nodes_generated >= 1
        assert stats.sets_enumerated >= 1


class TestPruning:
    @pytest.mark.parametrize("seed", range(25))
    def test_pruned_search_keeps_an_optimal_set(self, seed):
        """Pruning may drop sets, but never all minimum-cost ones."""
        graph = _random_graph(seed)
        order = list(range(len(graph)))
        best_pruned = best_maximal_independent_set(graph, order, prune=True)
        best_full = best_maximal_independent_set(graph, order, prune=False)

        def cost(members):
            total = 0.0
            for v in order:
                if v in members:
                    continue
                pool = [u for u in members if u in graph.neighbors(v)] or list(
                    members
                )
                total += graph.multiplicity(v) * min(
                    graph.pair_cost(v, u) for u in pool
                )
            return total

        assert cost(best_pruned) == pytest.approx(cost(best_full))

    def test_pruning_reduces_or_equals_nodes(self):
        totals = {}
        for prune in (False, True):
            stats = ExpansionStats()
            graph = _random_graph(7)
            enumerate_maximal_independent_sets(graph, prune=prune, stats=stats)
            totals[prune] = stats.nodes_generated
        assert totals[True] <= totals[False]


class TestOnCitizens:
    def test_example8_best_set(self, citizens, citizens_model, citizens_fds,
                               citizens_thresholds):
        """Example 8: I_B = {(Bachelors,3), (Masters,4), (HS-grad,9)}."""
        fd = citizens_fds[0]
        graph = ViolationGraph.build(
            citizens, fd, citizens_model, citizens_thresholds[fd]
        )
        chosen = set()
        for component in graph.connected_components():
            chosen |= set(best_maximal_independent_set(graph, component))
        values = {graph.patterns[v].values for v in chosen}
        assert values == {
            ("Bachelors", 3.0),
            ("Masters", 4.0),
            ("HS-grad", 9.0),
        }
