"""Ablation: target tree vs naive join in a combinatorial target space.

Section 5's motivation is that materializing the join of per-FD
independent sets "may be exponential to the number of tuples". On
entity-aligned workloads (HOSP/Tax) the join is nearly bijective and the
tree only ties the naive scan (see figs 8-10); this bench constructs the
regime the index was built for — several FDs sharing only their RHS
attribute, so the target space is a product of the per-FD sets — and
measures construction plus nearest-target search both ways.

Expected shape: the best-first search visits a small, pruned fraction of
the tree while the naive scan pays the full product for every query.
"""

import time

import pytest

from _harness import record_custom
from repro.core.constraints import parse_fds
from repro.core.distances import DistanceModel
from repro.core.multi.target_tree import TargetTree
from repro.core.multi.targets import join_targets, nearest_target_naive
from repro.dataset.relation import Relation, Schema
from repro.eval.metrics import RepairQuality
from repro.eval.runner import Trial
from repro.generator.vocab import build_vocabulary

#: three FDs sharing only the hub attribute B: the target space is the
#: per-hub product of the A/C/D fibres.
FDS = parse_fds(["A -> B", "C -> B", "D -> B"])
HUBS = 4
FIBRE = 7  # values of A (resp. C, D) per hub value


def _component():
    a_vocab = build_vocabulary("aa", HUBS * FIBRE, rng=1)
    c_vocab = build_vocabulary("cc", HUBS * FIBRE, rng=2)
    d_vocab = build_vocabulary("dd", HUBS * FIBRE, rng=3)
    b_vocab = build_vocabulary("bb", HUBS, rng=4)
    rows = []
    for i in range(HUBS * FIBRE):
        hub = b_vocab[i % HUBS]
        rows.append((a_vocab[i], hub, c_vocab[i], d_vocab[i]))
    relation = Relation(Schema.of("A", "B", "C", "D"), rows)
    sets = [
        [(a_vocab[i], b_vocab[i % HUBS]) for i in range(HUBS * FIBRE)],
        [(c_vocab[i], b_vocab[i % HUBS]) for i in range(HUBS * FIBRE)],
        [(d_vocab[i], b_vocab[i % HUBS]) for i in range(HUBS * FIBRE)],
    ]
    return relation, sets


TRIAL = Trial(dataset="hosp", n=HUBS * FIBRE, seed=406)


@pytest.mark.parametrize("variant", ["tree", "naive"])
def test_ablation_targettree(benchmark, variant):
    relation, sets = _component()
    model = DistanceModel(relation)
    attrs = ("A", "B", "C", "D")
    queries = [relation.project(tid, attrs) for tid in relation.tids()]

    if variant == "tree":

        def run():
            tree = TargetTree(FDS, sets, model)
            return [tree.nearest_target(q)[1] for q in queries], tree

    else:

        def run():
            targets = join_targets(FDS, sets)
            return (
                [nearest_target_naive(model, targets, q)[1] for q in queries],
                targets,
            )

    start = time.perf_counter()
    costs, structure = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = time.perf_counter() - start
    placeholder = RepairQuality(1.0, 1.0, 1.0, 0, 0.0, 0)
    extra = {}
    if variant == "tree":
        extra = {
            "nodes": structure.node_count,
            "visited": structure.nodes_visited,
        }
    else:
        extra = {"targets_materialized": len(structure)}
    record_custom(
        "ablation_targettree", variant, TRIAL, placeholder, seconds,
        len(costs), extra,
    )
    # every query is itself a target: cost 0 everywhere, both ways
    assert all(c == 0.0 for c in costs)


def test_tree_and_naive_agree_on_offset_queries(benchmark):
    relation, sets = _component()
    model = DistanceModel(relation)
    tree = TargetTree(FDS, sets, model)
    targets = join_targets(FDS, sets)
    attrs = ("A", "B", "C", "D")
    queries = [
        tuple(v + "x" for v in relation.project(tid, attrs))
        for tid in list(relation.tids())[:10]
    ]

    def both():
        return [
            (tree.nearest_target(q)[1], nearest_target_naive(model, targets, q)[1])
            for q in queries
        ]

    pairs = benchmark.pedantic(both, rounds=1, iterations=1)
    for tree_cost, naive_cost in pairs:
        assert abs(tree_cost - naive_cost) < 1e-9
