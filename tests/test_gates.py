"""The gate table in ``benchmarks/check_all_gates.py``.

Every gate passes on the committed trajectories; for every check row, a
latest entry that breaks only that row fails with exit 1; a missing
file, a malformed entry and an unknown ``--gates`` name exit 2.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import check_all_gates as gates  # noqa: E402
from check_all_gates import (  # noqa: E402
    EXIT_MISSING,
    EXIT_PASS,
    EXIT_REGRESSION,
    GATES,
)


def _set(path, value):
    """Set ``entry[a][b]...[leaf]`` to *value*, or to ``value(parent)``."""
    def apply(entry):
        *parents, leaf = path
        for key in parents:
            entry = entry[key]
        entry[leaf] = value(entry) if callable(value) else value
    return apply


def _lower_target_f1(entry):
    for cell in entry["matrix"]:
        if cell["target"]:
            cell["f1"] -= 0.05


#: (gate, check label) -> an edit of the latest entry that breaks only it
BREAKS = {
    ("simjoin", "HOSP distinct pairs beyond tuple fan-out"): _set(
        ("hosp", "vectorized", "distinct_pairs_examined"),
        lambda v: v["tuple_fanout"] + 1,
    ),
    ("sched", "split speedup over serial (median walls)"): _set(
        ("split", "wall_median"), lambda split: split["wall_median"] * 10
    ),
    ("sched", "static speedup over serial (median walls)"): _set(
        ("static", "wall_median"), lambda static: static["wall_median"] / 10
    ),
    ("sched", "output hashes differing across schedules"): _set(
        ("split", "output_hash"), "0" * 16
    ),
    ("serve", "requests/s"): _set(("requests_per_second",), 999.0),
    ("serve", "p99 latency ms"): _set(("latency_p99_ms",), 25.5),
    ("serve", "model-cache speedup"): _set(("cache_speedup",), 49.0),
    ("serve", "examined fraction"): _set(("examined_fraction",), 0.21),
    ("serve", "served != batch repairs"): _set(
        ("equivalence_mismatches",), 1
    ),
    ("substrate", "marginal RSS bytes/tuple"): _set(
        ("marginal_bytes_per_tuple",), 161.0
    ),
    ("substrate", "largest task message bytes"): _set(
        ("shipping", "task_bytes_max"), 16385
    ),
    ("substrate", "row-major over columnar task bytes"): _set(
        ("shipping", "row_major_task_bytes"),
        lambda shipping: shipping["task_bytes_max"] * 9,
    ),
    ("scenario", "detectors covered"): _set(
        ("detectors",), lambda e: e["detectors"][:2]
    ),
    ("scenario", "datasets covered"): _set(
        ("datasets",), lambda e: e["datasets"][:2]
    ),
    ("scenario", "FD repair identical with detectors on"): _set(
        ("fd_repair", "byte_identical"), False
    ),
    ("scenario", "worst target-detector F1 drop vs baseline"): (
        _lower_target_f1
    ),
    ("scenario", "FD repair F1 drop vs baseline"): _set(
        ("fd_repair", "f1"), lambda anchor: anchor["f1"] - 0.05
    ),
}


@pytest.fixture(autouse=True)
def _no_step_summary(monkeypatch):
    """Keep these runs out of a CI job's real step summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


@pytest.fixture
def bench_root(tmp_path):
    """A scratch root holding copies of the committed trajectories."""
    for name in {gate.file for gate in GATES.values()}:
        shutil.copy(ROOT / name, tmp_path / name)
    return tmp_path


def _append_edited_latest(root, gate_name, edit):
    """Append a copy of the gate's latest entry, edited by *edit*."""
    gate = GATES[gate_name]
    path = root / gate.file
    trajectory = json.loads(path.read_text())
    latest = [e for e in trajectory if e.get(gate.key) == gate.value][-1]
    entry = copy.deepcopy(latest)
    edit(entry)
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory))


def test_every_gate_passes_on_the_committed_trajectories():
    assert gates.main(["check_all_gates.py"]) == EXIT_PASS


def test_every_row_has_a_break():
    rows = {(name, c.label) for name, g in GATES.items() for c in g.checks}
    assert rows == set(BREAKS)


@pytest.mark.parametrize("row", sorted(BREAKS), ids="/".join)
def test_breaking_one_row_fails_only_that_row(bench_root, row):
    gate_name, label = row
    _append_edited_latest(bench_root, gate_name, BREAKS[row])
    failed = [
        check.label
        for check, _value, passed in gates.evaluate(GATES[gate_name], bench_root)
        if not passed
    ]
    assert failed == [label]
    assert gates.main(["x", "--gates", gate_name], bench_root) == EXIT_REGRESSION
    assert gates.main(["x"], bench_root) == EXIT_REGRESSION


def test_missing_file_exits_2(bench_root):
    (bench_root / "BENCH_serve.json").unlink()
    assert gates.main(["x", "--gates", "serve"], bench_root) == EXIT_MISSING
    assert gates.main(["x", "--gates", "sched"], bench_root) == EXIT_PASS


def test_malformed_entry_exits_2(bench_root):
    _append_edited_latest(
        bench_root, "serve", lambda e: e.pop("latency_p99_ms")
    )
    assert gates.main(["x", "--gates", "serve"], bench_root) == EXIT_MISSING


def test_file_without_a_matching_entry_exits_2(bench_root):
    (bench_root / "BENCH_scenarios.json").write_text("[]")
    assert gates.main(["x", "--gates", "scenario"], bench_root) == EXIT_MISSING


@pytest.mark.parametrize(
    "argv",
    [["x", "--gates", "perf"], ["x", "--gates", "serve,kernel"],
     ["x", "--gates"], ["x", "--bogus"]],
)
def test_bad_arguments_exit_2(argv):
    assert gates.main(argv) == EXIT_MISSING


def test_step_summary_gets_one_table(bench_root, tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert gates.main(["x", "--gates", "sched,serve"], bench_root) == EXIT_PASS
    text = summary.read_text()
    assert text.count("| gate | check |") == 1
    assert text.count("| sched |") == len(GATES["sched"].checks)
