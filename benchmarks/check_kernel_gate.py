"""CI gate over the bit-parallel distance kernel.

Two checks, run from the repository root::

    python benchmarks/check_kernel_gate.py

1. **Speedup floor** — a 200-character microbench must show the Myers
   bit-parallel kernel (``repro.core.distances.levenshtein``) at least
   2x faster than the two-row DP oracle in ``tests/oracles.py``. The
   bit-parallel column update is O(ceil(m/w)) big-int words against the
   DP's O(m) inner loop, so anything under 2x on 200-character strings
   means the kernel has regressed into scalar behaviour.
2. **Equivalence suite ran** — the differential suite
   ``tests/test_kernels.py`` is executed and must pass with **zero
   skips**: a skipped kernel-equivalence test would let a wrong kernel
   through on green CI.

Exit status follows the shared gate conventions (``benchmarks/_gate.py``):
0 on pass, 1 on failure, 2 when the environment cannot run the checks
(missing pytest, missing test file). A verdict block is appended to
``$GITHUB_STEP_SUMMARY`` when set.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _gate import (  # noqa: E402
    EXIT_MISSING,
    EXIT_PASS,
    EXIT_REGRESSION,
    ROOT,
    verdict_summary,
)

TEST_FILE = ROOT / "tests" / "test_kernels.py"
MIN_SPEEDUP = 2.0
STRING_LENGTH = 200
PAIRS = 60
ROUNDS = 3


def _workload(rng_seed: int = 9) -> list:
    """Deterministic 200-character string pairs with scattered edits."""
    import random

    rng = random.Random(rng_seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    pairs = []
    for _ in range(PAIRS):
        left = "".join(rng.choice(alphabet) for _ in range(STRING_LENGTH))
        chars = list(left)
        for _ in range(rng.randrange(1, 12)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(alphabet)
        pairs.append((left, "".join(chars)))
    return pairs


def _time_kernel(fn, pairs) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        best = min(best, time.perf_counter() - start)
    return best


def check_speedup() -> "tuple":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from repro.core.distances import levenshtein
    from tests.oracles import levenshtein_two_row

    pairs = _workload()
    # warm-up + correctness spot check before timing
    for a, b in pairs[:5]:
        assert levenshtein(a, b) == levenshtein_two_row(a, b)
    myers = _time_kernel(levenshtein, pairs)
    two_row = _time_kernel(levenshtein_two_row, pairs)
    speedup = two_row / myers if myers > 0 else float("inf")
    detail = (
        f"{PAIRS} pairs of {STRING_LENGTH}-char strings — "
        f"myers `{myers * 1e3:.1f}ms`, two_row `{two_row * 1e3:.1f}ms`, "
        f"speedup `{speedup:.1f}x` (floor `{MIN_SPEEDUP}x`)"
    )
    print(
        f"gate: {PAIRS} pairs of {STRING_LENGTH}-char strings — "
        f"myers {myers * 1e3:.1f}ms, two_row {two_row * 1e3:.1f}ms, "
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP}x)"
    )
    if speedup < MIN_SPEEDUP:
        print(
            f"gate: FAIL — Myers kernel below the {MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return EXIT_REGRESSION, detail
    return EXIT_PASS, detail


def check_equivalence_suite() -> int:
    if not TEST_FILE.exists():
        print(f"gate: {TEST_FILE} not found", file=sys.stderr)
        return EXIT_MISSING
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(TEST_FILE), "-q", "-rs",
         "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**__import__("os").environ, "PYTHONPATH": str(ROOT / "src")},
    )
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"gate: equivalence suite — {tail}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print("gate: FAIL — kernel equivalence suite failed", file=sys.stderr)
        return EXIT_REGRESSION
    if re.search(r"\bskipped\b", proc.stdout):
        sys.stderr.write(proc.stdout)
        print(
            "gate: FAIL — kernel equivalence tests were skipped; the "
            "differential suite must actually run",
            file=sys.stderr,
        )
        return EXIT_REGRESSION
    return EXIT_PASS


def main() -> int:
    try:
        status, detail = check_speedup()
    except ImportError as exc:
        print(f"gate: cannot import the distance layer: {exc}",
              file=sys.stderr)
        verdict_summary(
            "kernel gate", "MISSING", f"cannot import the distance layer: {exc}"
        )
        return EXIT_MISSING
    suite = check_equivalence_suite()
    if suite == EXIT_MISSING:
        verdict_summary("kernel gate", "MISSING", f"`{TEST_FILE}` not found")
        return EXIT_MISSING
    if status or suite:
        extra = "" if suite == EXIT_PASS else "; equivalence suite failed"
        verdict_summary("kernel gate", "FAIL", detail + extra)
        return EXIT_REGRESSION
    print("gate: PASS")
    verdict_summary("kernel gate", "PASS", detail)
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
