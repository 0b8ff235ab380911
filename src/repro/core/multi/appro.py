"""Appro-M: the single-FD greedy, extended to multiple FDs (Section 4.3).

Run Greedy-S once per FD to get one expected-best independent set each,
join them into targets, and repair every unresolved tuple to its nearest
target. O(|V|^2 * |Sigma|); no cross-FD awareness during set selection —
that is Greedy-M's job (Section 4.4).

When the per-FD greedy sets happen to admit no joint target (possible on
adversarial inputs; the paper does not discuss the case), the fallback
retries with the *full* pattern sets of the disagreeing FDs removed one
at a time, and ultimately repairs FDs sequentially and independently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.graph import ViolationGraph, accumulate_join_counters
from repro.core.multi.base import repair_with_sets
from repro.core.multi.targets import TargetJoinError
from repro.core.repair import RepairResult, apply_edits
from repro.core.single.greedy import greedy_independent_set
from repro.dataset.relation import Relation
from repro.index.registry import AttributeIndexRegistry
from repro.index.simjoin import DEFAULT_JOIN


def greedy_sets_per_fd(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    join_strategy: str = DEFAULT_JOIN,
    seed_dominant: bool = True,
    registry: Optional[AttributeIndexRegistry] = None,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[List[ViolationGraph], List[List[Tuple]]]:
    """One Greedy-S independent set per FD, as element value-tuples.

    ``seed_dominant`` is on by default (see
    :func:`repro.core.single.greedy.greedy_independent_set`): the literal
    Eq. (7)/(8) greedy occasionally crowns a cheap typo pattern, and the
    joint-target repair amplifies every such flip into a wholesale
    rewrite — precision then swings wildly between runs. Pass ``False``
    for the paper-literal behaviour; ``benchmarks/test_ablation_seeding``
    quantifies the difference.
    """
    if registry is None:
        registry = AttributeIndexRegistry()  # shared across the per-FD joins
    graphs: List[ViolationGraph] = []
    elements: List[List[Tuple]] = []
    for fd in fds:
        graph = ViolationGraph.build(
            relation,
            fd,
            model,
            thresholds[fd],
            join_strategy=join_strategy,
            registry=registry,
        )
        chosen = greedy_independent_set(
            graph, seed_dominant=seed_dominant, counters=counters
        )
        graphs.append(graph)
        elements.append([graph.patterns[v].values for v in sorted(chosen)])
    return graphs, elements


def repair_multi_fd_appro(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    use_tree: bool = True,
    join_strategy: str = DEFAULT_JOIN,
) -> RepairResult:
    """Appro-M repair of one FD-graph component."""
    fds = list(fds)
    search_counters: Dict[str, int] = {}
    graphs, elements = greedy_sets_per_fd(
        relation, fds, model, thresholds, join_strategy=join_strategy,
        counters=search_counters,
    )
    try:
        edits, cost, repair_stats = repair_with_sets(
            relation, fds, model, elements, use_tree=use_tree
        )
    except TargetJoinError:
        return _sequential_fallback(relation, fds, model, thresholds, join_strategy)
    repaired = apply_edits(relation, edits)
    stats: Dict[str, object] = {
        "algorithm": "appro-m", **search_counters, **repair_stats
    }
    accumulate_join_counters(stats, graphs)
    return RepairResult(repaired, edits, cost, stats)


def _sequential_fallback(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Dict[FD, float],
    join_strategy: str,
) -> RepairResult:
    """Independent, sequential Greedy-S repairs when no joint target exists."""
    from repro.core.single.greedy import repair_single_fd_greedy

    current = relation
    edits = []
    total = 0.0
    for fd in fds:
        result = repair_single_fd_greedy(
            current, fd, model, thresholds[fd], join_strategy=join_strategy
        )
        current = result.relation
        edits.extend(result.edits)
        total += result.cost
    return RepairResult(
        current,
        edits,
        total,
        {"algorithm": "appro-m", "joint_target_fallback": True},
    )
