"""Tests for the adaptive skew-aware scheduler (planner, subtree split,
bound exchange, skew generator).

The determinism contract under splitting is the load-bearing property:
byte-identical repairs for every ``n_jobs`` x ``split_threshold``
combination. It is checked end-to-end over processes and, via an
inline (process-free) dispatcher, property-tested on random graphs
against the serial winner search. The budget test pins that a split
search honours ``max_nodes`` across its chunks.
"""

import random
import warnings
from concurrent.futures import Future

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph
from repro.core.single.frontier import ExpansionStats, SearchKernel
from repro.core.single.mis import best_maximal_independent_set
from repro.core.single.subtree import use_dispatcher
from repro.core.violation import Pattern
from repro.dataset.relation import Relation, Schema
from repro.exec import (
    BoundExchange,
    PoolSubtreeDispatcher,
    RepairConfig,
    RepairExecutor,
    SlotBound,
    plan_schedule,
)
from repro.exec.planner import estimate_task
from repro.exec import subtrees
from repro.exec.stats import DegradedRepairWarning
from repro.exec.subtrees import _chunk_bounds
from repro.generator.skew import (
    SKEW_FDS,
    generate_skew,
    skew_chain_lengths,
    skew_thresholds,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _random_graph(seed: int, n_max: int = 9) -> ViolationGraph:
    """A synthetic violation graph with arbitrary edges and weights."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    schema = Schema.of("A", "B")
    rows = [(f"a{i}", f"b{i}") for i in range(n)]
    relation = Relation(schema, rows)
    fd = FD.parse("A -> B")
    model = DistanceModel(relation)
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


class _InlinePool:
    """A pool stand-in that runs submissions synchronously in-process."""

    def submit(self, fn, *args):
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - mirrored to future
            future.set_exception(exc)
        return future


def _inline_dispatcher(
    split_threshold=2, fanout=3, yield_nodes=None
) -> PoolSubtreeDispatcher:
    config = RepairConfig(split_threshold=split_threshold)
    counters = {
        "tasks_split": 0,
        "subtree_tasks": 0,
        "steals": 0,
        "incumbent_publishes": 0,
        "bound_exchange_hits": 0,
        "subtree_bytes_total": 0,
        "subtree_bytes_max": 0,
    }
    dispatcher = PoolSubtreeDispatcher(_InlinePool(), config, None, counters)
    dispatcher._fanout = fanout
    if yield_nodes is not None:
        dispatcher._yield_nodes = yield_nodes
    return dispatcher


@pytest.fixture
def small_fanout(monkeypatch):
    """Cut split frontiers into 4 chunks, so small chains still split."""
    monkeypatch.setattr(subtrees, "SUBTREE_FANOUT", 4)


def _repair_signature(result):
    return (
        tuple(result.edits),
        round(result.cost, 12),
        tuple(tuple(row) for row in result.relation),
    )


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def _tasks(self, *pattern_counts):
        """Fake component tasks over single-FD relations."""
        fd = FD.parse("A -> B", name="f")
        tasks = []
        for count in pattern_counts:
            relation = Relation(
                Schema.of("A", "B"),
                [(f"a{i}", f"b{i}") for i in range(count)],
            )

            class _Task:
                def __init__(self, relation, fds):
                    self.relation = relation
                    self.fds = fds

            tasks.append(_Task(relation, (fd,)))
        return tasks

    def test_estimate_sums_pattern_squares(self):
        (task,) = self._tasks(5)
        estimate, largest = estimate_task(task)
        assert estimate == 25.0
        assert largest == 5

    def test_order_is_largest_first_and_stable(self):
        plan = plan_schedule(self._tasks(3, 9, 3, 5), workers=2)
        assert plan.order == [1, 3, 0, 2]
        assert plan.estimates == [9.0, 81.0, 9.0, 25.0]

    def test_no_coordination_when_not_splittable(self):
        plan = plan_schedule(self._tasks(9, 2, 2), workers=4)
        assert plan.coordinated == []

    def test_dominant_task_is_coordinated(self):
        plan = plan_schedule(
            self._tasks(9, 2, 2),
            workers=4,
            split_threshold=5,
            splittable=True,
        )
        assert plan.coordinated == [0]

    def test_threshold_gates_coordination(self):
        # dominant by estimate, but its largest graph is under threshold
        plan = plan_schedule(
            self._tasks(9, 2, 2),
            workers=4,
            split_threshold=50,
            splittable=True,
        )
        assert plan.coordinated == []

    def test_balanced_tasks_are_not_coordinated(self):
        plan = plan_schedule(
            self._tasks(6, 6, 6, 6),
            workers=4,
            split_threshold=2,
            splittable=True,
        )
        assert plan.coordinated == []


# ----------------------------------------------------------------------
# Skew generator
# ----------------------------------------------------------------------
class TestSkewGenerator:
    def test_chain_lengths_match_dominance(self):
        lengths = skew_chain_lengths(dominance=0.75, chain=18)
        assert lengths[0] == 18
        fringe = sum(lengths[1:])
        assert fringe == round(18 * 0.25 / 0.75)

    @pytest.mark.parametrize("dominance,chain", [(0.9, 24), (0.6, 12)])
    def test_giant_component_shape(self, dominance, chain):
        relation = generate_skew(200, dominance=dominance, chain=chain)
        thresholds = skew_thresholds(dominance=dominance, chain=chain)
        model = DistanceModel(relation)
        fd = SKEW_FDS[0]
        graph = ViolationGraph.build(relation, fd, model, thresholds[fd])
        components = sorted(
            (len(c) for c in graph.connected_components()), reverse=True
        )
        # one giant path of `chain` vertices, plus the fringe
        assert components[0] == chain
        assert sum(components) == sum(
            skew_chain_lengths(dominance=dominance, chain=chain)
        )
        # staircase chains are paths: nothing has more than 2 neighbours
        assert max(graph.degree(u) for u in range(len(graph))) == 2

    def test_satellite_fds_have_small_components(self):
        relation = generate_skew(200)
        thresholds = skew_thresholds()
        model = DistanceModel(relation)
        for fd in SKEW_FDS[1:]:
            graph = ViolationGraph.build(relation, fd, model, thresholds[fd])
            sizes = [len(c) for c in graph.connected_components()]
            assert sizes == [4, 4, 4]

    def test_deterministic(self):
        first = generate_skew(150, dominance=0.8, chain=14)
        second = generate_skew(150, dominance=0.8, chain=14)
        assert [tuple(r) for r in first] == [tuple(r) for r in second]

    def test_rejects_underpopulated_relations(self):
        with pytest.raises(ValueError, match="rows to populate"):
            generate_skew(5, chain=24)

    def test_rejects_bad_dominance(self):
        with pytest.raises(ValueError, match="dominance"):
            skew_chain_lengths(dominance=1.5)


# ----------------------------------------------------------------------
# Subtree split vs serial enumeration (process-free, property-based)
# ----------------------------------------------------------------------
class TestSubtreeMergeTheorem:
    @given(seed=st.integers(0, 10_000), fanout=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_split_best_equals_serial(self, seed, fanout):
        graph = _random_graph(seed)
        serial = best_maximal_independent_set(graph)
        dispatcher = _inline_dispatcher(fanout=fanout)
        with use_dispatcher(dispatcher):
            split = best_maximal_independent_set(graph)
        assert split == serial

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_resplit_steals_preserve_enumeration(self, seed):
        graph = _random_graph(seed, n_max=11)
        serial = best_maximal_independent_set(graph)
        # a 3-node steal quantum forces cooperative yields, re-splits,
        # and whole resubmissions past the re-split depth cap
        dispatcher = _inline_dispatcher(fanout=2, yield_nodes=3)
        with use_dispatcher(dispatcher):
            split = best_maximal_independent_set(graph)
        assert split == serial

    def test_chunk_bounds_partition(self):
        for total in range(1, 20):
            for parts in range(1, 8):
                slices = _chunk_bounds(total, parts)
                assert slices[0][0] == 0
                assert slices[-1][1] == total
                for (_, hi), (lo, _) in zip(slices, slices[1:]):
                    assert hi == lo

    def test_manual_frontier_chunking_equals_serial(self):
        """The merge theorem, stated directly on kernel primitives."""
        graph = _random_graph(3, n_max=10)
        order = list(range(len(graph)))
        serial_kernel = SearchKernel.for_graph(graph, order, prune=False)
        serial_state = serial_kernel.seed(ExpansionStats())
        serial_kernel.advance(serial_state, ExpansionStats())

        kernel = SearchKernel.for_graph(graph, order, prune=False)
        state = kernel.seed(ExpansionStats())
        stats = ExpansionStats()
        while len(state.masks) < 3:
            if kernel.advance(state, stats, stop_level=state.level + 1):
                break
        merged, seen = [], set()
        for lo, hi in _chunk_bounds(len(state.masks), 3):
            chunk_kernel = SearchKernel(
                adjacency=kernel.adjacency,
                multiplicities=kernel.multiplicities,
                prune=False,
            )
            chunk_state = type(state)(
                level=state.level,
                masks=state.masks[lo:hi],
                lower=state.lower[lo:hi],
                coverage=state.coverage[lo:hi],
            )
            chunk_kernel.advance(chunk_state, ExpansionStats())
            for mask in chunk_state.masks:
                if mask not in seen:
                    seen.add(mask)
                    merged.append(mask)
        assert merged == serial_state.masks


class TestBoundExchange:
    def test_abandon_prunes_every_frontier_node(self):
        # after a budget trip the parent abandons the slot, so chunks
        # still running stop at their next level boundary
        graph = _random_graph(3, n_max=10)
        assert len(graph) >= 3
        exchange = BoundExchange(slots=1)
        slot = exchange.acquire(float("inf"))
        exchange.abandon(slot)
        kernel = SearchKernel.for_graph(
            graph, list(range(len(graph))), prune=True
        )
        stats = ExpansionStats()
        state = kernel.seed(stats)
        bound = SlotBound(exchange.array, slot)
        assert kernel.advance(state, stats, bound=bound)
        assert state.masks == []
        assert stats.nodes_generated == 1
        assert bound.hits >= 1


# ----------------------------------------------------------------------
# End-to-end determinism over processes
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("small_fanout")
class TestSplitDeterminism:
    @pytest.fixture(scope="class")
    def skew_job(self):
        # small_chains=2 keeps the satellite FDs' estimates well below
        # the giant's, so the planner coordinates the giant at any
        # worker count under test
        relation = generate_skew(
            120, dominance=0.85, chain=12, small_chains=2
        )
        thresholds = skew_thresholds(dominance=0.85, chain=12)
        return relation, thresholds

    def _run(self, skew_job, algorithm, n_jobs, split_threshold):
        relation, thresholds = skew_job
        config = RepairConfig(
            algorithm=algorithm,
            n_jobs=n_jobs,
            split_threshold=split_threshold,
        )
        return RepairExecutor(config).repair(relation, SKEW_FDS, thresholds)

    @pytest.mark.parametrize("algorithm", ["exact-s", "exact-m", "greedy-m"])
    def test_byte_identical_across_jobs_and_splitting(
        self, skew_job, algorithm
    ):
        baseline = _repair_signature(
            self._run(skew_job, algorithm, n_jobs=1, split_threshold=None)
        )
        for n_jobs in (2, 8):
            for split_threshold in (None, 6):
                result = self._run(skew_job, algorithm, n_jobs, split_threshold)
                assert _repair_signature(result) == baseline, (
                    f"{algorithm} diverged at n_jobs={n_jobs}, "
                    f"split_threshold={split_threshold}"
                )

    def test_split_run_actually_splits(self, skew_job):
        result = self._run(skew_job, "exact-s", n_jobs=2, split_threshold=6)
        assert result.stats.tasks_coordinated >= 1
        assert result.stats.tasks_split >= 1
        assert result.stats.subtree_tasks >= 2
        assert result.stats.busy_skew_ratio >= 1.0

    def test_bound_exchange_runs_on_pruned_search(self, skew_job):
        result = self._run(skew_job, "exact-s", n_jobs=2, split_threshold=6)
        assert result.stats.incumbent_publishes > 0

    def test_exact_m_is_never_coordinated(self, skew_job):
        # only exact-s has a splittable search; exact-m stays in the pool
        result = self._run(skew_job, "exact-m", n_jobs=2, split_threshold=6)
        assert result.stats.tasks_coordinated == 0
        assert result.stats.tasks_split == 0
        baseline = self._run(skew_job, "exact-m", 1, None)
        assert _repair_signature(result) == _repair_signature(baseline)


# ----------------------------------------------------------------------
# Degradation attribution (satellite: ExpansionLimitError context)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("small_fanout")
class TestDegradationAttribution:
    # exact-s is the algorithm whose ExpansionLimitError reaches the
    # executor's fallback (exact-m absorbs budget trips into its own
    # anytime per-component composition); the pruned search on the
    # 16-chain giant generates ~300 nodes serially.
    def test_limit_context_in_degraded_record(self):
        relation = generate_skew(150, dominance=0.9, chain=16)
        thresholds = skew_thresholds(dominance=0.9, chain=16)
        config = RepairConfig(
            algorithm="exact-s",
            fallback="greedy",
            max_nodes=100,
        )
        with pytest.warns(DegradedRepairWarning, match="exhausted"):
            result = RepairExecutor(config).repair(
                relation, SKEW_FDS, thresholds
            )
        records = [
            r
            for r in result.stats.degraded_components
            if r["error"] == "ExpansionLimitError"
        ]
        assert records
        for record in records:
            assert record["limit"] == 100
            assert record["nodes_generated"] > 100
            assert record["level"] >= 1

    def test_subtree_attribution_when_split_trips(self):
        relation = generate_skew(150, dominance=0.9, chain=16)
        thresholds = skew_thresholds(dominance=0.9, chain=16)
        # the budget survives the serial prefix but is small enough
        # that a single subtree chunk must exceed it
        config = RepairConfig(
            algorithm="exact-s",
            fallback="greedy",
            n_jobs=2,
            split_threshold=6,
            max_nodes=40,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = RepairExecutor(config).repair(
                relation, SKEW_FDS, thresholds
            )
        records = [
            r
            for r in result.stats.degraded_components
            if r["error"] == "ExpansionLimitError" and "subtree" in r
        ]
        assert records, "expected a subtree-attributed degradation"
        lineage = records[0]["subtree"]
        assert all(isinstance(part, int) for part in lineage)
        messages = [
            str(w.message)
            for w in caught
            if w.category is DegradedRepairWarning
        ]
        assert any("split subtree" in message for message in messages)


class TestSplitBudget:
    def test_split_search_honours_max_nodes_across_chunks(self, monkeypatch):
        # Every chunk used to get the whole remaining allowance and the
        # summed total was only checked after the merge, so a split run
        # could overshoot max_nodes by the fanout's multiple (or hang on
        # a large search). The merged total is now checked after every
        # chunk result or yield.
        quantum = 20
        max_nodes = 1_000
        monkeypatch.setattr(subtrees, "SUBTREE_YIELD_NODES", quantum)
        # the serial exact-s search of this 28-chain generates ~7400 nodes
        relation = generate_skew(224, dominance=0.9, chain=28)
        thresholds = skew_thresholds(dominance=0.9, chain=28)
        config = RepairConfig(
            algorithm="exact-s",
            fallback="greedy",
            n_jobs=2,
            split_threshold=6,
            max_nodes=max_nodes,
        )
        with pytest.warns(DegradedRepairWarning, match="exhausted"):
            result = RepairExecutor(config).repair(
                relation, SKEW_FDS, thresholds
            )
        records = [
            r
            for r in result.stats.degraded_components
            if r["error"] == "ExpansionLimitError"
        ]
        assert records
        for record in records:
            assert max_nodes < record["nodes_generated"]
            assert record["nodes_generated"] <= max_nodes + 16 * quantum
