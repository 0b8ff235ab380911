"""CI gate over the BENCH_simjoin.json trajectory.

The latest ``vectorized_simjoin`` sweep entry
(``benchmarks/_trajectory.py --simjoin``) must show (a) one repair hash
per algorithm across naive-serial, vectorized-serial and vectorized
``n_jobs=2`` — byte-identity is the contract; and (b) distinct-id pairs
examined no greater than the tuple fan-out they stand in for. The
vectorized-over-naive detect speedup is reported, not gated.

Exit status follows the shared gate conventions (``benchmarks/_gate.py``):
0 on pass, 1 on regression, 2 when the trajectory is missing or
malformed. A verdict block is appended to ``$GITHUB_STEP_SUMMARY`` when
set.

Usage::

    python benchmarks/check_simjoin_gate.py [path/to/BENCH_simjoin.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _gate import (  # noqa: E402
    EXIT_MISSING,
    EXIT_PASS,
    EXIT_REGRESSION,
    ROOT,
    verdict_summary,
)

DEFAULT_PATH = ROOT / "BENCH_simjoin.json"

def _last(trajectory: list, predicate) -> dict:
    for entry in reversed(trajectory):
        if isinstance(entry, dict) and predicate(entry):
            return entry
    return {}


def _check_vectorized(entry: dict) -> tuple:
    """(ok, detail) for the vectorized_simjoin sweep entry."""
    problems = []
    hosp = entry.get("hosp", {})
    speedup = hosp.get("speedup")
    if not entry.get("hashes_match", False):
        problems.append("repair hashes differ across strategies/n_jobs")
    vectorized = hosp.get("vectorized", {})
    distinct = int(vectorized.get("distinct_pairs_examined", 0))
    fanout = int(vectorized.get("tuple_fanout", 0))
    if distinct > fanout:
        problems.append(
            f"distinct pairs `{distinct}` exceed tuple fan-out `{fanout}`"
        )
    tax = entry.get("tax", {})
    detail = (
        f"scale `{entry.get('scale')}` — HOSP speedup over naive "
        f"`{speedup}x`, Tax `{tax.get('speedup')}x`, "
        f"distinct `{distinct}` vs fan-out `{fanout}`, hashes "
        f"{'one value per algorithm' if entry.get('hashes_match') else 'MISMATCHED'}"
    )
    print(
        f"gate: vectorized scale={entry.get('scale')} "
        f"hosp_speedup={speedup} distinct={distinct} "
        f"fanout={fanout} hashes_match={entry.get('hashes_match')}"
    )
    if problems:
        return False, detail + " — " + "; ".join(problems)
    return True, detail


def main(argv: list) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    if not path.exists():
        print(f"gate: {path} not found; run the simjoin ablation first",
              file=sys.stderr)
        verdict_summary("simjoin gate", "MISSING", f"`{path.name}` not found")
        return EXIT_MISSING
    try:
        trajectory = json.loads(path.read_text())
        vectorized = _last(
            trajectory, lambda e: e.get("workload") == "vectorized_simjoin"
        )
        if not vectorized:
            raise ValueError("no vectorized_simjoin entry")
        ok, detail = _check_vectorized(vectorized)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"gate: cannot read latest trajectory entry: {exc}",
              file=sys.stderr)
        verdict_summary(
            "simjoin gate", "MISSING", f"malformed `{path.name}`: {exc}"
        )
        return EXIT_MISSING

    if not ok:
        print("gate: FAIL — vectorized check regressed", file=sys.stderr)
        verdict_summary("simjoin gate", "FAIL", detail)
        return EXIT_REGRESSION
    print("gate: PASS")
    verdict_summary("simjoin gate", "PASS", detail)
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main(sys.argv))
