"""Append one traced repair run to the ``BENCH_repair.json`` trajectory.

The standard workload is the noisy HOSP slice the simjoin trajectory
also uses (800 tuples at ``REPRO_BENCH_SCALE=smoke``, 5000 at
``paper``), repaired end-to-end with the engine default (greedy-m,
vectorized detection) under ``trace=True``. Each run appends one
normalized entry:

* identity — scale, tuple/FD counts, algorithm, dataset fingerprint;
* wall clocks — end-to-end seconds plus the per-phase span totals of
  the run report, and the machine calibration constant
  (:func:`benchmarks._gate.calibration_seconds`) that lets the gate
  compare runs across machines;
* counters — the unified registry snapshot (pair/kernel/cache work);
* correctness — the repair output hash. The perf gate
  (``benchmarks/check_perf_gate.py``) fails on any hash drift: a perf
  win that changes repairs is a correctness regression.

Each entry also breaks the *search phase* out of the span totals
(``search_phase_seconds``: ``mis_enumeration``, ``greedy_growth``,
``combination``, ``tree_search``; ``search_seconds`` is their sum) —
the numbers ``benchmarks/check_search_gate.py`` compares against the
committed pre-bitset baselines.

``--substrate`` appends a ``tax_substrate`` entry instead: the columnar
substrate measured at paper scale — a 1M-row (125k at smoke) Tax load in
fresh subprocesses at two sizes (the marginal per-tuple RSS between them
is the flatness number ``benchmarks/check_substrate_gate.py`` gates), an
``n_jobs=2`` repair recording the relation-shipping traffic
(``relation_bytes_shipped``, per-task message sizes, and the row-major
bytes the pre-1.2 substrate would have pickled per task), and the
800-tuple HOSP output hash of every algorithm (always the smoke slice,
so the gate can pin exact values at every scale).

``--simjoin`` appends a ``vectorized_simjoin`` entry to
``BENCH_simjoin.json`` instead: the vectorized-vs-naive detection
sweep on the noisy HOSP slice (detect-phase walls, the distinct-id
counters), the same sweep on a Tax substrate slice whose constant
active domain is the regime dictionary-granularity filtering exists
for, and a five-algorithm repair-hash sweep at serial and ``n_jobs=2``
under ``join_strategy="vectorized"`` — the equalities
``benchmarks/check_simjoin_gate.py`` gates.

``--sched`` appends a ``skew_sched`` entry: the exact-s winner-search
split (``docs/parallelism.md``) measured on the skewed generator's
one-giant-component workload. It repairs the same relation three ways —
serial, statically scheduled at ``n_jobs=2``, and split into subtree
tasks at ``n_jobs=2`` — in three interleaved rounds, and records the
median, min and max wall clock of each setting; these measured medians
are what ``benchmarks/check_sched_gate.py`` gates. A five-algorithm
hash sweep across serial and split settings pins the determinism
contract: splitting may only re-order work, never change the repair.

Usage::

    PYTHONPATH=src python benchmarks/_trajectory.py \
        [--algorithm greedy-m] [--substrate] [--sched] [--simjoin] \
        [path/to/BENCH_repair.json]
"""

from __future__ import annotations

import gc
import json
import pickle
import subprocess
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _gate import ROOT, calibration_seconds  # noqa: E402
from _harness import SCALE  # noqa: E402

from repro.core.engine import Repairer  # noqa: E402
from repro.core.distances import Weights  # noqa: E402
from repro.generator.hosp import (  # noqa: E402
    HOSP_FDS,
    generate_hosp,
    hosp_thresholds,
)
from repro.generator.noise import NoiseConfig, inject_noise  # noqa: E402

DEFAULT_PATH = ROOT / "BENCH_repair.json"
HOSP_SLICE_N = 5000 if SCALE == "paper" else 800
ALGORITHM = "greedy-m"

#: --substrate: Tax rows at full load (the paper's largest x-axis)
TAX_SUBSTRATE_N = 1_000_000 if SCALE == "paper" else 125_000
#: fixed entity-catalog sizes — a constant active domain makes the load
#: linear in n and is the shape that exercises dictionary encoding
TAX_CATALOG = {"n_residences": 400, "n_employers": 300, "n_filings": 40}
#: rows of the noisy slice the shipping measurement repairs at n_jobs=2
TAX_SHIPPING_N = 2000
#: every algorithm's hash is pinned on the 800-tuple smoke HOSP slice
HASH_SLICE_N = 800
HASH_ALGORITHMS = ("appro-m", "exact-m", "exact-s", "greedy-m", "greedy-s")

#: search-phase entry keys -> the span names whose totals they sum
SEARCH_PHASES = {
    "mis_enumeration": "mis/expand",
    "greedy_growth": "greedy/grow",
    "combination": "combinations",
    "tree_search": "targets/search",
}

#: counters worth trending run over run (subset of the unified registry)
TRENDED_COUNTERS = (
    "possible_pairs",
    "candidates_generated",
    "pairs_examined",
    "pairs_filtered",
    "pairs_verified",
    "kernel_calls",
    "index_builds",
    "index_reuses",
    "cache_hits",
    "cache_misses",
    "fd_components",
)


def workload():
    """The standard noisy HOSP slice (deterministic seeds)."""
    clean = generate_hosp(HOSP_SLICE_N, rng=7)
    relation, _errors = inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)
    return relation


def run_entry(algorithm: str = ALGORITHM) -> dict:
    """One traced repair of the standard workload as a trajectory entry."""
    relation = workload()
    weights = Weights(0.5, 0.5)
    thresholds = hosp_thresholds(weights=weights)
    extra = {}
    if algorithm.startswith("exact"):
        # Exact searches legitimately exhaust their budgets on the big
        # components of this slice; degrade like the CLI default does.
        extra["fallback"] = "greedy"
    repairer = Repairer(
        HOSP_FDS,
        algorithm=algorithm,
        weights=weights,
        thresholds=thresholds,
        trace=True,
        **extra,
    )
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degradations are expected here
        result = repairer.repair(relation)
    wall = time.perf_counter() - start
    report = repairer.report()
    counters = report.counters
    totals = report.phase_totals()
    search_phases = {
        key: round(totals.get(name, 0.0), 4)
        for key, name in sorted(SEARCH_PHASES.items())
    }
    return {
        "scale": SCALE,
        "n_tuples": HOSP_SLICE_N,
        "n_fds": len(HOSP_FDS),
        "algorithm": algorithm,
        "dataset_sha256": report.dataset["sha256"],
        "wall_seconds": round(wall, 4),
        "calibration_seconds": round(calibration_seconds(), 4),
        "phase_seconds": {
            name: round(seconds, 4)
            for name, seconds in sorted(totals.items())
        },
        "search_phase_seconds": search_phases,
        "search_seconds": round(sum(search_phases.values()), 4),
        "counters": {
            key: counters[key] for key in TRENDED_COUNTERS if key in counters
        },
        "edits": len(result.edits),
        "cost": round(result.cost, 9),
        "output_hash": report.result["output_hash"],
        "rss_peak_bytes": report.rss.get("peak_bytes"),
    }


# ----------------------------------------------------------------------
# --substrate: columnar memory, shipping traffic, and hash pinning
# ----------------------------------------------------------------------
def _vm_rss_bytes() -> int:
    """Current resident set size, from /proc (Linux)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found in /proc/self/status")


def substrate_point(n: int) -> dict:
    """Load an n-row Tax instance and measure its resident footprint.

    Run in a *fresh* subprocess per point (``--_substrate-point``), so
    the RSS reflects one relation and not interpreter history; the gate
    uses the marginal bytes between two points, which also cancels the
    fixed interpreter + import overhead out.
    """
    from repro.generator.tax import generate_tax

    relation = generate_tax(n, rng=0, **TAX_CATALOG)
    gc.collect()
    stats = relation.dict_stats()
    return {
        "n_tuples": len(relation),
        "rss_bytes": _vm_rss_bytes(),
        "encoded_bytes": stats["encoded_bytes"],
        "dictionary_entries": stats["dictionary_entries"],
        "dict_hit_rate": round(stats["dict_hit_rate"], 6),
    }


def _measure_point(n: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--_substrate-point", str(n)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _shipping_measurement() -> dict:
    """An n_jobs=2 Tax repair, recording what crossed the pool boundary."""
    from repro.core.engine import Repairer
    from repro.generator.noise import NoiseConfig, inject_noise
    from repro.generator.tax import (
        TAX_FDS,
        generate_tax,
        tax_thresholds,
    )

    clean = generate_tax(TAX_SHIPPING_N, rng=5, **TAX_CATALOG)
    relation, _errors = inject_noise(clean, TAX_FDS, NoiseConfig(), rng=13)
    repairer = Repairer(
        TAX_FDS,
        algorithm="greedy-m",
        thresholds=tax_thresholds(),
        n_jobs=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = repairer.repair(relation)
    stats = result.stats
    # what the pre-1.2 substrate paid: the whole relation pickled into
    # every per-task message, row-major (schema + row tuples)
    row_major = len(
        pickle.dumps((relation.schema, list(relation)), protocol=5)
    )
    components = int(stats.get("fd_components", 0))
    return {
        "n_tuples": len(relation),
        "n_jobs": stats.n_jobs,
        "fd_components": components,
        "relations_shipped": int(stats.get("relations_shipped", 0)),
        "relation_payload_bytes": int(stats.get("relation_payload_bytes", 0)),
        "relation_bytes_shipped": stats.relation_bytes_shipped,
        "task_bytes_max": stats.task_bytes_max,
        "task_bytes_total": int(stats.get("task_bytes_total", 0)),
        "row_major_task_bytes": row_major,
        "row_major_total_bytes": row_major * components,
        "task_reduction_ratio": round(
            row_major / stats.task_bytes_max, 2
        ) if stats.task_bytes_max else None,
        "dict_hit_rate": round(stats.dict_hit_rate, 6),
    }


def _hash_sweep() -> dict:
    """Every algorithm's output hash on the pinned 800-tuple HOSP slice."""
    from repro.obs import repair_output_hash

    clean = generate_hosp(HASH_SLICE_N, rng=7)
    relation, _errors = inject_noise_hosp(clean)
    weights = Weights(0.5, 0.5)
    thresholds = hosp_thresholds(weights=weights)
    hashes = {}
    for algorithm in HASH_ALGORITHMS:
        extra = {"fallback": "greedy"} if algorithm.startswith("exact") else {}
        repairer = Repairer(
            HOSP_FDS,
            algorithm=algorithm,
            weights=weights,
            thresholds=thresholds,
            **extra,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = repairer.repair(relation)
        hashes[algorithm] = repair_output_hash(result.edits, result.cost)
    return hashes


def inject_noise_hosp(clean):
    from repro.generator.noise import NoiseConfig, inject_noise

    return inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)


def run_substrate_entry() -> dict:
    """The ``tax_substrate`` trajectory entry (see module docstring)."""
    small = _measure_point(max(TAX_SUBSTRATE_N // 8, 1000))
    full = _measure_point(TAX_SUBSTRATE_N)
    marginal = (full["rss_bytes"] - small["rss_bytes"]) / (
        full["n_tuples"] - small["n_tuples"]
    )
    shipping = _shipping_measurement()
    return {
        "workload": "tax_substrate",
        "scale": SCALE,
        "n_tuples": TAX_SUBSTRATE_N,
        "calibration_seconds": round(calibration_seconds(), 4),
        "load_points": [small, full],
        "marginal_bytes_per_tuple": round(marginal, 2),
        "shipping": shipping,
        "hash_slice_n": HASH_SLICE_N,
        "output_hashes": _hash_sweep(),
    }


# ----------------------------------------------------------------------
# --simjoin: the vectorized distinct-id detection sweep
# ----------------------------------------------------------------------
SIMJOIN_PATH = ROOT / "BENCH_simjoin.json"
#: rows of the noisy Tax slice the sweep also detects over — the
#: constant-active-domain regime where tuple counts dwarf distinct ids
TAX_SIMJOIN_N = TAX_SUBSTRATE_N
#: the counters each strategy's sweep row records
SIMJOIN_COUNTERS = (
    "pairs_examined",
    "pairs_filtered",
    "pairs_verified",
    "kernel_calls",
    "distinct_pairs_examined",
    "tuple_fanout",
    "vector_filter_passes",
)


def _simjoin_detect_sweep(relation, fds, thresholds, rounds: int = 2) -> dict:
    """Detect-phase walls and counters: naive vs vectorized.

    Mirrors the ablation bench's measurement discipline — a fresh
    distance model per run (no cache leakage between strategies), one
    shared attribute-index registry per run, best wall of *rounds* —
    and asserts the two strategies emit identical violation triples.
    """
    from repro.core.distances import DistanceModel
    from repro.core.violation import group_patterns
    from repro.index.registry import AttributeIndexRegistry
    from repro.index.simjoin import SimilarityJoin

    weights = Weights(0.5, 0.5)
    patterns = {fd: group_patterns(relation, fd) for fd in fds}
    out: dict = {"n_tuples": len(relation), "n_fds": len(fds)}
    signatures = {}
    for strategy in ("naive", "vectorized"):
        best_wall = None
        best_counters: dict = {}
        signature = None
        for _ in range(rounds):
            model = DistanceModel(relation, weights=weights)
            registry = AttributeIndexRegistry()
            counters = dict.fromkeys(SIMJOIN_COUNTERS, 0)
            signature = []
            start = time.perf_counter()
            for fd in fds:
                join = SimilarityJoin(
                    fd,
                    model,
                    thresholds[fd],
                    strategy=strategy,
                    registry=registry,
                )
                signature.append(
                    [
                        (v.left.values, v.right.values, v.distance)
                        for v in join.join(patterns[fd])
                    ]
                )
                for key in SIMJOIN_COUNTERS:
                    counters[key] += getattr(join, key)
            wall = time.perf_counter() - start
            if best_wall is None or wall < best_wall:
                best_wall = wall
                best_counters = counters
        signatures[strategy] = signature
        out[strategy] = {"seconds": round(best_wall, 4), **best_counters}
    if signatures["vectorized"] != signatures["naive"]:
        raise AssertionError(
            "vectorized and naive detection disagree on this workload"
        )
    out["violations_equal"] = True
    out["speedup"] = round(
        out["naive"]["seconds"] / max(out["vectorized"]["seconds"], 1e-9), 3
    )
    return out


def _vectorized_hash_sweep() -> dict:
    """Repair hashes of every algorithm under the vectorized strategy.

    For each algorithm: the naive-serial reference hash plus the
    vectorized hash at serial and ``n_jobs=2`` — three values the gate
    requires to be one.
    """
    from repro.obs import repair_output_hash

    clean = generate_hosp(HASH_SLICE_N, rng=7)
    relation, _errors = inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)
    weights = Weights(0.5, 0.5)
    thresholds = hosp_thresholds(weights=weights)
    settings = (
        ("naive", {"join_strategy": "naive"}),
        ("vectorized", {"join_strategy": "vectorized"}),
        ("vectorized_n_jobs2", {"join_strategy": "vectorized", "n_jobs": 2}),
    )
    hashes = {}
    for algorithm in HASH_ALGORITHMS:
        extra = {"fallback": "greedy"} if algorithm.startswith("exact") else {}
        per_setting = {}
        for label, kwargs in settings:
            repairer = Repairer(
                HOSP_FDS,
                algorithm=algorithm,
                weights=weights,
                thresholds=thresholds,
                **kwargs,
                **extra,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = repairer.repair(relation)
            per_setting[label] = repair_output_hash(result.edits, result.cost)
        hashes[algorithm] = per_setting
    return hashes


def run_simjoin_entry() -> dict:
    """The ``vectorized_simjoin`` trajectory entry (see module docstring)."""
    from repro.generator.tax import TAX_FDS, generate_tax, tax_thresholds

    hosp_sweep = _simjoin_detect_sweep(
        workload(), HOSP_FDS, hosp_thresholds(weights=Weights(0.5, 0.5))
    )
    # The clean substrate relation, not a noisy copy: its constant
    # entity catalog keeps the distinct patterns in the hundreds while
    # the tuple count runs to a million — the regime where distinct-id
    # candidate work is dwarfed by the tuple fan-out it stands in for.
    tax_relation = generate_tax(TAX_SIMJOIN_N, rng=0, **TAX_CATALOG)
    tax_sweep = _simjoin_detect_sweep(
        tax_relation, TAX_FDS, tax_thresholds(), rounds=1
    )
    sweep = _vectorized_hash_sweep()
    return {
        "workload": "vectorized_simjoin",
        "scale": SCALE,
        "calibration_seconds": round(calibration_seconds(), 4),
        "hosp": hosp_sweep,
        "tax": tax_sweep,
        "hash_slice_n": HASH_SLICE_N,
        "output_hashes": sweep,
        "hashes_match": all(
            len(set(values.values())) == 1 for values in sweep.values()
        ),
    }


# ----------------------------------------------------------------------
# --sched: exact-s winner-search splitting, measured wall clock
# ----------------------------------------------------------------------
#: the skewed workload: one giant path component of SCHED_CHAIN patterns.
#: exact-s is the only algorithm whose search splits (its winner search);
#: every other algorithm runs unsplit at any n_jobs.
SCHED_CHAIN = 40
SCHED_N = 600
SCHED_DOMINANCE = 0.9
SCHED_ALGORITHM = "exact-s"
SCHED_JOBS = 2
SCHED_SPLIT_THRESHOLD = 16
#: interleaved runs per setting (serial, static, split, serial, ...)
SCHED_RUNS = 3

#: the smaller slice every algorithm's split determinism is hashed on
#: (exact-s splits it into 16 subtree tasks at both split settings)
SCHED_HASH_CHAIN = 14
SCHED_HASH_N = 400
#: (n_jobs, split_threshold) settings of the hash sweep
SCHED_HASH_SETTINGS = ((1, None), (2, 8), (4, 8))


def _sched_workload(n: int, chain: int):
    from repro.generator.skew import generate_skew, skew_thresholds

    relation = generate_skew(
        n, dominance=SCHED_DOMINANCE, chain=chain, small_chains=2
    )
    thresholds = skew_thresholds(dominance=SCHED_DOMINANCE, chain=chain)
    return relation, thresholds


def _sched_run(n_jobs: int, split_threshold):
    """One repair of the skewed workload: (result, wall, output hash)."""
    from repro.generator.skew import SKEW_FDS
    from repro.obs import repair_output_hash

    relation, thresholds = _sched_workload(SCHED_N, SCHED_CHAIN)
    repairer = Repairer(
        SKEW_FDS,
        algorithm=SCHED_ALGORITHM,
        thresholds=thresholds,
        max_nodes=None,  # the giant chain is the point; never degrade
        n_jobs=n_jobs,
        split_threshold=split_threshold,
    )
    start = time.perf_counter()
    result = repairer.repair(relation)
    wall = time.perf_counter() - start
    return result, wall, repair_output_hash(result.edits, result.cost)


def _sched_hash_sweep() -> dict:
    """Every algorithm's output hash across serial and split settings.

    The determinism contract under test: for each algorithm, the three
    hashes (serial, 2 workers + splitting, 4 workers + splitting) must
    be one value — bound exchange and subtree scheduling may only prune,
    never change the selected repair.
    """
    from repro.generator.skew import SKEW_FDS
    from repro.obs import repair_output_hash

    relation, thresholds = _sched_workload(SCHED_HASH_N, SCHED_HASH_CHAIN)
    hashes = {}
    for algorithm in HASH_ALGORITHMS:
        per_setting = []
        for n_jobs, split in SCHED_HASH_SETTINGS:
            repairer = Repairer(
                SKEW_FDS,
                algorithm=algorithm,
                thresholds=thresholds,
                max_nodes=None,
                n_jobs=n_jobs,
                split_threshold=split,
            )
            result = repairer.repair(relation)
            per_setting.append(
                repair_output_hash(result.edits, result.cost)
            )
        hashes[algorithm] = per_setting
    return hashes


def run_sched_entry() -> dict:
    """The ``skew_sched`` trajectory entry (see module docstring).

    Every number is a measured wall clock: ``SCHED_RUNS`` interleaved
    rounds of serial, static (``n_jobs=SCHED_JOBS``, no split) and
    split runs, reported as median, min and max per setting. The
    wall clocks only show a speedup on a host with ``SCHED_JOBS`` free
    cores; ``cpu_count`` records what the host exposed.
    """
    import os
    import statistics

    settings = {
        "serial": (1, None),
        "static": (SCHED_JOBS, None),
        "split": (SCHED_JOBS, SCHED_SPLIT_THRESHOLD),
    }
    walls: dict = {mode: [] for mode in settings}
    hashes: dict = {mode: set() for mode in settings}
    last = {}
    for _ in range(SCHED_RUNS):
        for mode, (n_jobs, split) in settings.items():
            result, wall, digest = _sched_run(n_jobs, split)
            walls[mode].append(wall)
            hashes[mode].add(digest)
            last[mode] = result

    def summary(mode: str) -> dict:
        values = walls[mode]
        return {
            "wall_median": round(statistics.median(values), 4),
            "wall_min": round(min(values), 4),
            "wall_max": round(max(values), 4),
            "walls": [round(v, 4) for v in values],
            "output_hash": "/".join(sorted(hashes[mode])),
        }

    split_stats = last["split"].stats
    sweep = _sched_hash_sweep()
    return {
        "workload": "skew_sched",
        "scale": SCALE,
        "cpu_count": len(os.sched_getaffinity(0)),
        "calibration_seconds": round(calibration_seconds(), 4),
        "config": {
            "algorithm": SCHED_ALGORITHM,
            "n_tuples": SCHED_N,
            "chain": SCHED_CHAIN,
            "dominance": SCHED_DOMINANCE,
            "n_jobs": SCHED_JOBS,
            "split_threshold": SCHED_SPLIT_THRESHOLD,
            "runs": SCHED_RUNS,
        },
        "serial": summary("serial"),
        "static": summary("static"),
        "split": {
            **summary("split"),
            "tasks_split": split_stats.tasks_split,
            "subtree_tasks": split_stats.subtree_tasks,
            "steals": split_stats.steals,
            "incumbent_publishes": split_stats.incumbent_publishes,
            "bound_exchange_hits": split_stats.bound_exchange_hits,
            "busy_skew_ratio": round(split_stats.busy_skew_ratio, 3),
        },
        "hash_slice": {
            "n_tuples": SCHED_HASH_N,
            "chain": SCHED_HASH_CHAIN,
            "settings": [
                f"n_jobs={jobs}" + (f" split={split}" if split else "")
                for jobs, split in SCHED_HASH_SETTINGS
            ],
            "output_hashes": sweep,
            "hashes_consistent": all(
                len(set(values)) == 1 for values in sweep.values()
            ),
        },
    }


def main(argv: list) -> int:
    algorithm = ALGORITHM
    substrate = False
    sched = False
    simjoin = False
    positional = []
    rest = list(argv[1:])
    while rest:
        arg = rest.pop(0)
        if arg == "--algorithm":
            if not rest:
                print("--algorithm requires a value", file=sys.stderr)
                return 2
            algorithm = rest.pop(0)
        elif arg == "--substrate":
            substrate = True
        elif arg == "--sched":
            sched = True
        elif arg == "--simjoin":
            simjoin = True
        elif arg == "--_substrate-point":
            print(json.dumps(substrate_point(int(rest.pop(0)))))
            return 0
        else:
            positional.append(arg)
    if simjoin:
        path = Path(positional[0]) if positional else SIMJOIN_PATH
        entry = run_simjoin_entry()
        trajectory = []
        if path.exists():
            trajectory = json.loads(path.read_text())
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=2) + "\n")
        hosp = entry["hosp"]
        tax = entry["tax"]
        print(
            f"simjoin: vectorized {hosp['speedup']}x vs naive on "
            f"{hosp['n_tuples']} HOSP tuples "
            f"({hosp['vectorized']['seconds']}s vs "
            f"{hosp['naive']['seconds']}s), {tax['speedup']}x on "
            f"{tax['n_tuples']} Tax tuples; "
            f"{hosp['vectorized']['distinct_pairs_examined']} distinct "
            f"pair(s) for {hosp['vectorized']['tuple_fanout']} tuple "
            f"pair(s); hashes "
            f"{'match' if entry['hashes_match'] else 'MISMATCH'}; "
            f"{len(trajectory)} entr{'y' if len(trajectory) == 1 else 'ies'} "
            f"in {path}"
        )
        return 0
    path = Path(positional[0]) if positional else DEFAULT_PATH
    if sched:
        entry = run_sched_entry()
        trajectory = []
        if path.exists():
            trajectory = json.loads(path.read_text())
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=2) + "\n")
        serial = entry["serial"]["wall_median"]
        split = entry["split"]
        print(
            f"sched: {entry['config']['algorithm']} on a "
            f"{entry['config']['chain']}-pattern giant component at "
            f"n_jobs={entry['config']['n_jobs']} — median wall serial "
            f"{serial}s, static {entry['static']['wall_median']}s, split "
            f"{split['wall_median']}s over {entry['config']['runs']} "
            f"interleaved run(s); {split['subtree_tasks']} subtree "
            f"task(s), {split['steals']} steal(s), hashes "
            f"{'consistent' if entry['hash_slice']['hashes_consistent'] else 'INCONSISTENT'}; "
            f"{len(trajectory)} entr{'y' if len(trajectory) == 1 else 'ies'} "
            f"in {path}"
        )
        return 0
    if substrate:
        entry = run_substrate_entry()
        trajectory = []
        if path.exists():
            trajectory = json.loads(path.read_text())
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(
            f"substrate: {entry['n_tuples']} Tax tuples ({SCALE}) — "
            f"{entry['marginal_bytes_per_tuple']} B/tuple marginal RSS, "
            f"task max {entry['shipping']['task_bytes_max']} B "
            f"({entry['shipping']['task_reduction_ratio']}x smaller than "
            f"row-major), {len(entry['output_hashes'])} hash(es) pinned; "
            f"{len(trajectory)} entr{'y' if len(trajectory) == 1 else 'ies'} "
            f"in {path}"
        )
        return 0
    entry = run_entry(algorithm)
    trajectory = []
    if path.exists():
        trajectory = json.loads(path.read_text())
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(
        f"trajectory: {entry['algorithm']} on {entry['n_tuples']} tuples "
        f"({entry['scale']}) — {entry['wall_seconds']}s wall, "
        f"{entry['edits']} edit(s), hash {entry['output_hash']}; "
        f"{len(trajectory)} entr{'y' if len(trajectory) == 1 else 'ies'} "
        f"in {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
