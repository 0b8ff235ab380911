"""Append one measurement entry to a ``BENCH_*.json`` trajectory.

Each mode measures what a wall-clock total cannot show and appends one
entry that ``benchmarks/check_all_gates.py`` checks (its ``GATES``
table). Wall time per layer is perfbench's job (``perfbench/``), and
every algorithm's repair hash on the 800-tuple HOSP slice is pinned in
tier-1 (``tests/test_substrate_hashes.py``).

``--substrate`` appends a ``tax_substrate`` entry to
``BENCH_repair.json``: the columnar substrate measured at paper scale —
a 1M-row (125k at smoke) Tax load in fresh subprocesses at two sizes
(the marginal per-tuple RSS between them is the flatness number the
``substrate`` gate checks), and an ``n_jobs=2`` repair recording the
relation-shipping traffic (``relation_bytes_shipped``, per-task message
sizes, and the row-major bytes the pre-1.2 substrate would have pickled
per task).

``--simjoin`` appends a ``vectorized_simjoin`` entry to
``BENCH_simjoin.json``: the vectorized-vs-naive detection sweep on the
noisy HOSP slice (detect-phase walls, the distinct-id counters), and the
same sweep on a Tax substrate slice whose constant active domain is the
regime dictionary-granularity filtering exists for.

Usage::

    PYTHONPATH=src python benchmarks/_trajectory.py \
        {--substrate | --simjoin} [path/to/BENCH_*.json]
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

from _harness import SCALE  # noqa: E402

from repro.core.distances import Weights  # noqa: E402
from repro.generator.hosp import (  # noqa: E402
    HOSP_FDS,
    generate_hosp,
    hosp_thresholds,
)
from repro.generator.noise import NoiseConfig, inject_noise  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = ROOT / "BENCH_repair.json"
HOSP_SLICE_N = 5000 if SCALE == "paper" else 800

#: --substrate: Tax rows at full load (the paper's largest x-axis)
TAX_SUBSTRATE_N = 1_000_000 if SCALE == "paper" else 125_000
#: fixed entity-catalog sizes — a constant active domain makes the load
#: linear in n and is the shape that exercises dictionary encoding
TAX_CATALOG = {"n_residences": 400, "n_employers": 300, "n_filings": 40}
#: rows of the noisy slice the shipping measurement repairs at n_jobs=2
TAX_SHIPPING_N = 2000


def workload():
    """The standard noisy HOSP slice (deterministic seeds)."""
    clean = generate_hosp(HOSP_SLICE_N, rng=7)
    relation, _errors = inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)
    return relation


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
        "load_points": [small, full],
        "marginal_bytes_per_tuple": round(marginal, 2),
        "shipping": shipping,
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
    distance model per run, one shared attribute-index registry per
    run, best wall of *rounds* — and asserts the two strategies emit
    identical violation triples.
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
    return {
        "workload": "vectorized_simjoin",
        "scale": SCALE,
        "hosp": hosp_sweep,
        "tax": tax_sweep,
    }


def _append(path: Path, entry: dict) -> int:
    """Append *entry* to the trajectory at *path*; the new length."""
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return len(trajectory)


def main(argv: list) -> int:
    modes = {"--substrate", "--simjoin"}
    rest = list(argv[1:])
    if rest[:1] == ["--_substrate-point"] and len(rest) == 2:
        print(json.dumps(substrate_point(int(rest[1]))))
        return 0
    if len(rest) not in (1, 2) or rest[0] not in modes:
        print(
            "usage: _trajectory.py {--substrate | --simjoin} "
            "[path/to/BENCH_*.json]",
            file=sys.stderr,
        )
        return 2
    mode = rest[0]
    default = SIMJOIN_PATH if mode == "--simjoin" else DEFAULT_PATH
    path = Path(rest[1]) if len(rest) == 2 else default
    if mode == "--simjoin":
        entry = run_simjoin_entry()
        hosp = entry["hosp"]
        tax = entry["tax"]
        line = (
            f"simjoin: vectorized {hosp['speedup']}x vs naive on "
            f"{hosp['n_tuples']} HOSP tuples "
            f"({hosp['vectorized']['seconds']}s vs "
            f"{hosp['naive']['seconds']}s), {tax['speedup']}x on "
            f"{tax['n_tuples']} Tax tuples; "
            f"{hosp['vectorized']['distinct_pairs_examined']} distinct "
            f"pair(s) for {hosp['vectorized']['tuple_fanout']} tuple "
            f"pair(s)"
        )
    else:
        entry = run_substrate_entry()
        line = (
            f"substrate: {entry['n_tuples']} Tax tuples ({SCALE}) — "
            f"{entry['marginal_bytes_per_tuple']} B/tuple marginal RSS, "
            f"task max {entry['shipping']['task_bytes_max']} B "
            f"({entry['shipping']['task_reduction_ratio']}x smaller than "
            f"row-major)"
        )
    count = _append(path, entry)
    print(f"{line}; {count} entr{'y' if count == 1 else 'ies'} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
