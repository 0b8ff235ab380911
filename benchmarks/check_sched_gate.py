"""CI gate over the exact-s split scheduler in ``BENCH_repair.json``.

Reads the latest ``skew_sched`` entry appended by
``benchmarks/_trajectory.py --sched`` and enforces three properties of
the subtree split (``docs/parallelism.md``), all on *measured* wall
clocks — the medians of the entry's interleaved runs:

1. **Split speedup** — the median serial wall over the median split
   wall (``n_jobs=2``, the giant component's winner search cut into
   subtree tasks with a shared incumbent bound) must reach 1.5x.
2. **Static baseline** — the same workload under static component-level
   scheduling at ``n_jobs=2`` must stay *below* 1.5x. This is not a
   typo: the entry has to prove the giant component really dominates,
   so the split win is attributable to splitting rather than to the
   workload being embarrassingly parallel to begin with.
3. **Determinism** — the serial, static, and split repairs of the main
   workload must share one output hash, and every algorithm of the
   entry's hash-slice sweep must hash identically across its serial and
   split settings. A scheduling win that changes any repair is a
   correctness regression and fails regardless of the speedups.

The speedups are recomputed here from the stored medians. A wall-clock
speedup needs two free cores: regenerate the entry on a host that
exposes at least ``n_jobs`` CPUs (the entry records ``cpu_count``).

Exit status follows the shared gate conventions (``benchmarks/_gate.py``):
0 pass, 1 regression, 2 missing/malformed (run ``benchmarks/_trajectory.py
--sched`` first).

Usage::

    python benchmarks/check_sched_gate.py [path/to/BENCH_repair.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _gate import (  # noqa: E402
    EXIT_MISSING,
    EXIT_PASS,
    EXIT_REGRESSION,
    ROOT,
    verdict_summary,
)

DEFAULT_PATH = ROOT / "BENCH_repair.json"

#: minimum measured split speedup over serial (median walls)
SPLIT_REQUIRED = 1.5
#: the static schedule must stay *below* this (the skew must be real)
STATIC_CEILING = 1.5


def measured_speedup(entry: dict, mode: str) -> float:
    """Median serial wall over the median wall of *mode*."""
    wall = float(entry[mode]["wall_median"])
    if wall <= 0:
        raise ValueError(f"{mode} entry has no measured wall clock")
    return float(entry["serial"]["wall_median"]) / wall


def main(argv: list) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    if not path.exists():
        print(
            f"gate: {path} not found; run benchmarks/_trajectory.py "
            f"--sched first",
            file=sys.stderr,
        )
        verdict_summary("sched gate", "MISSING", f"`{path.name}` not found")
        return EXIT_MISSING
    try:
        trajectory = json.loads(path.read_text())
        entries = [
            e for e in trajectory if e.get("workload") == "skew_sched"
        ]
        if not entries:
            raise ValueError(
                "no skew_sched entry; run benchmarks/_trajectory.py --sched"
            )
        entry = entries[-1]
        static = measured_speedup(entry, "static")
        split = measured_speedup(entry, "split")
        main_hashes = {
            mode: entry[mode]["output_hash"]
            for mode in ("serial", "static", "split")
        }
        sweep = entry["hash_slice"]["output_hashes"]
    except (ValueError, KeyError, TypeError) as exc:
        print(f"gate: cannot read skew_sched entry: {exc}", file=sys.stderr)
        verdict_summary(
            "sched gate", "MISSING", f"malformed `{path.name}`: {exc}"
        )
        return EXIT_MISSING

    failures: List[str] = []
    if split < SPLIT_REQUIRED:
        failures.append(
            f"split schedule measures only {split:.2f}x "
            f"(required >= {SPLIT_REQUIRED:.1f}x)"
        )
    if static >= STATIC_CEILING:
        failures.append(
            f"static schedule measures {static:.2f}x "
            f"(must stay < {STATIC_CEILING:.1f}x — the workload no longer "
            f"isolates the giant-component skew)"
        )
    if len(set(main_hashes.values())) != 1:
        failures.append(
            f"main-workload repairs diverged across schedules: {main_hashes}"
        )
    for algorithm in sorted(sweep):
        if len(set(sweep[algorithm])) != 1:
            failures.append(
                f"{algorithm}: output hash differs across split settings "
                f"{sweep[algorithm]} (splitting changed the repair)"
            )

    config = entry.get("config", {})
    stats = entry.get("split", {})
    detail = "\n".join(
        [
            "| check | value | required |",
            "|---|---:|---|",
            f"| split measured speedup | {split:.2f}x | "
            f">= {SPLIT_REQUIRED:.1f}x |",
            f"| static measured speedup | {static:.2f}x | "
            f"< {STATIC_CEILING:.1f}x |",
            f"| schedule hash agreement | "
            f"{'ok' if len(set(main_hashes.values())) == 1 else 'DRIFT'} "
            f"| equal |",
            f"| hash sweep ({len(sweep)} algorithms) | "
            f"{'ok' if all(len(set(v)) == 1 for v in sweep.values()) else 'DRIFT'}"
            f" | equal |",
        ]
    )
    print(
        f"gate: {config.get('algorithm')} giant chain "
        f"{config.get('chain')} at n_jobs={config.get('n_jobs')} — "
        f"split {split:.2f}x vs static {static:.2f}x measured "
        f"(median walls: serial {entry['serial']['wall_median']}s, "
        f"static {entry['static']['wall_median']}s, split "
        f"{stats.get('wall_median')}s; "
        f"{stats.get('subtree_tasks', 0)} subtree task(s), "
        f"{stats.get('steals', 0)} steal(s), "
        f"{stats.get('bound_exchange_hits', 0)} bound hit(s))"
    )

    if failures:
        for failure in failures:
            print(f"gate: FAIL — {failure}", file=sys.stderr)
        verdict_summary(
            "sched gate", "FAIL", "\n".join(failures) + "\n\n" + detail
        )
        return EXIT_REGRESSION
    print("gate: PASS")
    verdict_summary("sched gate", "PASS", detail)
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main(sys.argv))
