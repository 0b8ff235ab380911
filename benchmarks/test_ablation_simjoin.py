"""Ablation: the similarity join against the naive scan oracle.

The library's join (``vectorized``) and the definition-level scan
(``naive``, :class:`tests.oracles.ScanJoin`) return identical violation
sets; the join trades blocking, length/count filters and distinct-value
batching against the scan's edit-distance dynamic program on every
pair. This bench
measures detection over *long* values — 25-character strings, the
regime of real HOSP hospital names and addresses — where skipping the
DP pays most.

``test_hosp_slice_trajectory`` additionally times end-to-end detection
of both on a noisy generated HOSP slice (5k tuples at
``REPRO_BENCH_SCALE=paper``, 800 at smoke) and appends the wall clocks
and candidate counters to the ``BENCH_simjoin.json`` trajectory file at
the repository root. (The ``simjoin`` gate of
``benchmarks/check_all_gates.py`` checks the ``vectorized_simjoin``
entries ``benchmarks/_trajectory.py --simjoin`` appends there.)
"""

import json
import time
from pathlib import Path

import pytest

from _harness import SCALE, record_custom
from repro.core.constraints import FD
from repro.core.distances import DistanceModel, Weights
from repro.core.violation import group_patterns
from repro.dataset.relation import Relation, Schema
from repro.eval.metrics import RepairQuality
from repro.eval.runner import Trial
from repro.generator.hosp import HOSP_FDS, generate_hosp, hosp_thresholds
from repro.generator.noise import NoiseConfig, inject_noise
from repro.generator.vocab import build_vocabulary
from repro.index.registry import AttributeIndexRegistry
from repro.index.simjoin import SimilarityJoin
from repro.utils.rng import make_rng
from tests.oracles import ScanJoin

TRIAL = Trial(dataset="hosp", n=400, error_rate=0.06, seed=402)
N_ENTITIES = 120
FD_LONG = FD.parse("LongKey -> LongName")
HOSP_SLICE_N = 5000 if SCALE == "paper" else 800
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simjoin.json"
#: label -> join class; the labels name the BENCH_simjoin.json rows
STRATEGIES = {"naive": ScanJoin, "vectorized": SimilarityJoin}


def _long_string_relation() -> Relation:
    """An instance whose constrained values are 25-character strings."""
    rng = make_rng(7)
    keys = build_vocabulary("key", N_ENTITIES, suffix_length=22, min_edits=8,
                            rng=rng)
    names = build_vocabulary("nam", N_ENTITIES, suffix_length=22, min_edits=8,
                             rng=rng)
    relation = Relation(Schema.of("LongKey", "LongName"))
    for i in range(N_ENTITIES):
        for _ in range(3):
            relation.append((keys[i], names[i]))
    # sprinkle typos so violations exist
    for i in range(0, N_ENTITIES, 5):
        tid = relation.append((keys[i], names[i]))
        text = relation.value(tid, "LongName")
        relation.set_value(tid, "LongName", text[:-2] + "zz")
    return relation


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_ablation_simjoin(benchmark, strategy):
    relation = _long_string_relation()
    patterns = group_patterns(relation, FD_LONG)
    tau = 0.15  # catches the seeded typos only

    def detect():
        # fresh model per run: the distance cache must not leak between
        # strategies or the later ones get a free ride
        model = DistanceModel(relation)
        join = STRATEGIES[strategy](FD_LONG, model, tau)
        return join, join.join(patterns)

    start = time.perf_counter()
    join, violations = benchmark.pedantic(detect, rounds=1, iterations=1)
    seconds = time.perf_counter() - start
    placeholder = RepairQuality(1.0, 1.0, 1.0, 0, 0.0, 0)
    record_custom(
        "ablation_simjoin", strategy, TRIAL, placeholder, seconds,
        len(violations),
        {"pairs_examined": join.pairs_examined,
         "pairs_filtered": join.pairs_filtered},
    )
    assert violations


def test_strategies_agree_on_long_strings(benchmark):
    relation = _long_string_relation()
    patterns = group_patterns(relation, FD_LONG)

    def all_strategies():
        results = []
        for join_class in STRATEGIES.values():
            model = DistanceModel(relation)
            join = join_class(FD_LONG, model, 0.15)
            results.append(
                {
                    frozenset((v.left.values, v.right.values))
                    for v in join.join(patterns)
                }
            )
        return results

    results = benchmark.pedantic(all_strategies, rounds=1, iterations=1)
    assert all(result == results[0] for result in results[1:])


# ----------------------------------------------------------------------
# The BENCH_simjoin.json trajectory: noisy HOSP slice, both strategies
# ----------------------------------------------------------------------
def _noisy_hosp_workload():
    clean = generate_hosp(HOSP_SLICE_N, rng=7)
    relation, _errors = inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)
    weights = Weights(0.5, 0.5)
    thresholds = hosp_thresholds(weights=weights)
    patterns = {fd: group_patterns(relation, fd) for fd in HOSP_FDS}
    return relation, weights, thresholds, patterns


def test_hosp_slice_trajectory(benchmark):
    relation, weights, thresholds, patterns = _noisy_hosp_workload()

    def detect_all_fds(strategy):
        """One full-FD detection pass; fresh model, shared registry."""
        # fresh model per run: the distance cache must not leak between
        # runs or later ones get a free ride
        model = DistanceModel(relation, weights=weights)
        registry = AttributeIndexRegistry()  # shared across the FDs
        counters = {
            "possible_pairs": 0,
            "candidates_generated": 0,
            "pairs_examined": 0,
            "pairs_filtered": 0,
            "pairs_verified": 0,
            "kernel_calls": 0,
            "index_builds": 0,
            "index_reuses": 0,
            "distinct_pairs_examined": 0,
            "tuple_fanout": 0,
            "vector_filter_passes": 0,
        }
        out = []
        start = time.perf_counter()
        for fd in HOSP_FDS:
            join = STRATEGIES[strategy](
                fd, model, thresholds[fd], registry=registry
            )
            out.append(
                [
                    (v.left.values, v.right.values, v.distance)
                    for v in join.join(patterns[fd])
                ]
            )
            for key in counters:
                counters[key] += getattr(join, key)
        counters["seconds"] = round(time.perf_counter() - start, 4)
        return counters, out

    def run_all():
        runs = {}
        violations = {}
        for strategy in STRATEGIES:
            runs[strategy], violations[strategy] = detect_all_fds(strategy)
        return runs, violations

    runs, violations = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # both strategies return the identical violation list, distances and
    # order included
    assert violations["vectorized"] == violations["naive"]

    # the shared registry must actually reuse its per-attribute indexes
    assert runs["vectorized"]["index_reuses"] > 0
    # distinct-id granularity pays: the vectorized strategy settles far
    # fewer value pairs than the tuple-level fan-out it stands in for
    assert (
        runs["vectorized"]["distinct_pairs_examined"]
        <= runs["vectorized"]["tuple_fanout"]
    )
    assert runs["vectorized"]["vector_filter_passes"] > 0

    entry = {
        "scale": SCALE,
        "n_tuples": HOSP_SLICE_N,
        "n_fds": len(HOSP_FDS),
        "possible_pairs": runs["naive"]["possible_pairs"],
        "strategies": runs,
        "vectorized_verified_fraction": round(
            runs["vectorized"]["pairs_verified"]
            / max(1, runs["naive"]["possible_pairs"]),
            4,
        ),
    }
    trajectory = []
    if BENCH_PATH.exists():
        trajectory = json.loads(BENCH_PATH.read_text())
    trajectory.append(entry)
    BENCH_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")

    placeholder = RepairQuality(1.0, 1.0, 1.0, 0, 0.0, 0)
    slice_trial = Trial(dataset="hosp", n=HOSP_SLICE_N, error_rate=0.06,
                        seed=7)
    for strategy, counters in runs.items():
        record_custom(
            "ablation_simjoin", f"hosp-{strategy}", slice_trial, placeholder,
            counters["seconds"], 0, dict(counters),
        )
