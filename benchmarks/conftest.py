"""pytest hooks for the benchmark harness (see _harness.py)."""

import sys
from pathlib import Path

import _harness

# the repository root, so benches can import the test oracles as
# ``tests.oracles`` however pytest was started
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def pytest_sessionfinish(session, exitstatus):
    _harness.write_reports()
