"""The CI gates over the committed ``BENCH_*.json`` trajectories, as one table.

Each row of :data:`GATES` names a trajectory file, the entry it checks
(the latest one whose ``key`` field equals ``value``) and a list of
checks. A check is ``(label, value-of-entry, op, bound)``: the value
function receives the selected entry and its baseline (the first entry
of the same kind, scale and tuple count, i.e. the committed one) and
returns the measured value, which must satisfy ``value op bound``.

Timings are not gated here: perfbench (``perfbench/`` and
``BENCHMARK.json``) measures wall time per layer, and tier-1 pins every
algorithm's repair hash, and its schedule determinism on the skewed
workload (``tests/test_sched.py``). What remains are the service-level
floors and the trajectories' own cross-checks.

Exit status:

* 0 — every check of every selected gate holds;
* 1 — a check failed (a regression in the code under test);
* 2 — a gate could not run: its file is missing, no entry matches, an
  entry lacks a field a check reads, or ``--gates`` names an unknown
  gate (the pipeline is broken, not the code).

One verdict table is appended to ``$GITHUB_STEP_SUMMARY`` when set.

Usage::

    python benchmarks/check_all_gates.py [--gates serve,substrate,...]
"""

from __future__ import annotations

import json
import operator
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

EXIT_PASS = 0
EXIT_REGRESSION = 1
EXIT_MISSING = 2

OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


class Check(NamedTuple):
    label: str
    value: Callable[[dict, dict], Any]  # (entry, baseline) -> measured value
    op: str
    bound: Any


class Gate(NamedTuple):
    file: str
    key: str
    value: str
    checks: Tuple[Check, ...]


def _target_f1(entry: dict) -> Dict[str, float]:
    """scenario -> the F1 of the detector built for it."""
    return {c["scenario"]: c["f1"] for c in entry["matrix"] if c["target"]}


def _worst_target_f1_drop(entry: dict, baseline: dict) -> float:
    base = _target_f1(baseline)
    drops = [base[s] - f1 for s, f1 in _target_f1(entry).items() if s in base]
    return max(drops, default=0.0)


GATES: Dict[str, Gate] = {
    "simjoin": Gate("BENCH_simjoin.json", "workload", "vectorized_simjoin", (
        Check("HOSP distinct pairs beyond tuple fan-out",
              lambda e, b: e["hosp"]["vectorized"]["distinct_pairs_examined"]
              - e["hosp"]["vectorized"]["tuple_fanout"], "<=", 0),
    )),
    "serve": Gate("BENCH_serve.json", "kind", "serve", (
        Check("requests/s", lambda e, b: e["requests_per_second"], ">=", 1000),
        Check("p99 latency ms", lambda e, b: e["latency_p99_ms"], "<=", 25),
        Check("model-cache speedup", lambda e, b: e["cache_speedup"], ">=", 50),
        Check("examined fraction",
              lambda e, b: e["examined_fraction"], "<=", 0.20),
        Check("served != batch repairs",
              lambda e, b: e["equivalence_mismatches"], "==", 0),
    )),
    "substrate": Gate("BENCH_repair.json", "workload", "tax_substrate", (
        Check("marginal RSS bytes/tuple",
              lambda e, b: e["marginal_bytes_per_tuple"], "<=", 160),
        Check("largest task message bytes",
              lambda e, b: e["shipping"]["task_bytes_max"], "<=", 16384),
        Check("row-major over columnar task bytes",
              lambda e, b: e["shipping"]["row_major_task_bytes"]
              / e["shipping"]["task_bytes_max"], ">=", 10),
    )),
    "scenario": Gate("BENCH_scenarios.json", "kind", "scenario", (
        Check("detectors covered", lambda e, b: len(e["detectors"]), ">=", 3),
        Check("datasets covered", lambda e, b: len(e["datasets"]), ">=", 3),
        Check("FD repair identical with detectors on",
              lambda e, b: e["fd_repair"]["byte_identical"], "==", True),
        Check("worst target-detector F1 drop vs baseline",
              _worst_target_f1_drop, "<=", 0.02),
        Check("FD repair F1 drop vs baseline",
              lambda e, b: b["fd_repair"]["f1"] - e["fd_repair"]["f1"],
              "<=", 0.02),
    )),
}


class GateError(Exception):
    """The gate could not run (exit 2)."""


def select(gate: Gate, root: Path) -> Tuple[dict, dict]:
    """(latest matching entry, its baseline) from the gate's file."""
    path = root / gate.file
    if not path.exists():
        raise GateError(f"{gate.file} not found")
    try:
        entries = [
            e for e in json.loads(path.read_text())
            if isinstance(e, dict) and e.get(gate.key) == gate.value
        ]
    except (ValueError, TypeError) as exc:
        raise GateError(f"{gate.file} is not a JSON list: {exc}") from None
    if not entries:
        raise GateError(f"no entry with {gate.key} == {gate.value!r}")
    latest = entries[-1]
    shape = (latest.get("scale"), latest.get("n_tuples"))
    baseline = next(
        e for e in entries if (e.get("scale"), e.get("n_tuples")) == shape
    )
    return latest, baseline


def evaluate(gate: Gate, root: Path) -> List[Tuple[Check, Any, bool]]:
    """(check, measured value, passed) for every check of *gate*."""
    latest, baseline = select(gate, root)
    rows = []
    for check in gate.checks:
        try:
            value = check.value(latest, baseline)
            passed = OPS[check.op](value, check.bound)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise GateError(
                f"malformed {gate.value} entry in {gate.file}: "
                f"{check.label}: {exc!r}"
            ) from None
        rows.append((check, value, passed))
    return rows


def _fmt(value: Any) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def main(argv: Sequence[str], root: Path = ROOT) -> int:
    names = list(GATES)
    if len(argv) == 3 and argv[1] == "--gates":
        names = [n.strip() for n in argv[2].split(",") if n.strip()]
    elif len(argv) != 1:
        print("usage: check_all_gates.py [--gates a,b,...]", file=sys.stderr)
        return EXIT_MISSING
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"unknown gate(s) {unknown}; known: {', '.join(GATES)}",
              file=sys.stderr)
        return EXIT_MISSING

    table = ["| gate | check | value | bound | verdict |",
             "|---|---|---:|---|---|"]
    codes = []
    for name in names:
        try:
            rows = evaluate(GATES[name], root)
        except GateError as exc:
            print(f"{name}: MISSING — {exc}", file=sys.stderr)
            table.append(f"| {name} | {exc} | | | ⚠️ MISSING |")
            codes.append(EXIT_MISSING)
            continue
        for check, value, passed in rows:
            verdict = "PASS" if passed else "FAIL"
            bound = f"{check.op} {check.bound}"
            print(f"{name}: {verdict} {check.label} = {_fmt(value)} "
                  f"(required {bound})")
            table.append(f"| {name} | {check.label} | {_fmt(value)} | "
                         f"{bound} | {'✅' if passed else '❌'} {verdict} |")
        codes.append(EXIT_PASS if all(p for _, _, p in rows)
                     else EXIT_REGRESSION)

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write("### gate suite\n\n" + "\n".join(table) + "\n\n")
    if EXIT_REGRESSION in codes:
        return EXIT_REGRESSION
    return EXIT_MISSING if EXIT_MISSING in codes else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main(sys.argv))
