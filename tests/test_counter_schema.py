"""The counter schema: every reported counter is registered, invariant
counters do not move with ``n_jobs``, and the docs table is the schema.

``repro.obs.counters.COUNTERS`` is the one definition of every scalar
counter that reaches ``result.stats``, ``DetectionReport.stats``,
``RepairService.counters()`` or a run report's ``counters``.
"""

import asyncio
import re
from pathlib import Path

import pytest

from repro.core.engine import Repairer
from repro.core.multi.fdgraph import fd_components
from repro.dataset.citizens import (
    CITIZENS_FDS,
    CITIZENS_THRESHOLDS,
    citizens_clean,
    citizens_dirty,
)
from repro.exec.stats import ExecutionStats
from repro.generator.hosp import generate_hosp, hosp_fds
from repro.obs import Tracer, activate, build_report
from repro.obs.counters import COUNTERS, KINDS, SCHEMA, lookup
from repro.serve import RepairService

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

DOCS = Path(__file__).resolve().parents[1] / "docs" / "observability.md"

#: (name, relation factory, FDs); HOSP's nine FDs form 2 FD-graph
#: components, Citizens' three FDs form 2 as well
CASES = [
    ("citizens", citizens_dirty, CITIZENS_FDS),
    ("hosp", lambda: generate_hosp(120, rng=0), hosp_fds()),
]


def _numeric(mapping):
    return {
        key: value
        for key, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _unregistered(mapping):
    return sorted(key for key in _numeric(mapping) if lookup(key) is None)


def _run(make, fds, operation, algorithm="greedy-m", n_jobs=1):
    repairer = Repairer(fds, algorithm=algorithm, n_jobs=n_jobs, trace=True, seed=0)
    relation = make()  # fresh: a repair interns values into the input
    if operation == "detect":
        stats = repairer.detect(relation).stats
    else:
        stats = repairer.repair(relation).stats
    return stats, repairer.report().counters


class TestSchema:
    def test_entries_are_well_formed(self):
        assert len(SCHEMA) == len(COUNTERS)
        for counter in COUNTERS:
            assert counter.kind in KINDS, counter
            assert counter.layer and counter.unit and counter.doc, counter
            assert "|" not in counter.doc, counter

    def test_dotted_names_resolve_to_their_family(self):
        assert lookup("detector_cells_flagged.regex").name == "detector_cells_flagged"
        assert lookup("no_such_counter") is None

    def test_every_non_serve_counter_has_a_typed_accessor(self):
        empty = ExecutionStats()
        for counter in COUNTERS:
            if counter.layer == "serve":
                assert not hasattr(empty, counter.name)
                continue
            value = getattr(empty, counter.name)
            if counter.name == "detector_cells_flagged":
                assert value == {}
            else:
                assert isinstance(value, float if counter.unit in ("s", "ratio") else int)
        assert empty.n_jobs == 1 and empty.busy_skew_ratio == 1.0
        with pytest.raises(AttributeError):
            empty.no_such_counter

    def test_pruning_reads_the_work_layers(self):
        stats = ExecutionStats(pairs_examined=3, wall_seconds=1.5, levels=2)
        assert stats.pruning == {"pairs_examined": 3, "levels": 2}


class TestEveryReportedCounterIsRegistered:
    @pytest.mark.parametrize("name, make, fds", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize(
        "operation, algorithm",
        [("repair", "greedy-m"), ("repair", "exact-s"), ("detect", "greedy-m")],
    )
    def test_batch_surfaces(self, name, make, fds, operation, algorithm):
        assert len(fd_components(fds)) >= 2
        stats, counters = _run(make, fds, operation, algorithm)
        assert _numeric(stats), "the run reported no counters"
        assert _unregistered(stats) == []
        assert _unregistered(counters) == []

    @pytest.mark.parametrize("algorithm", ["greedy-s", "exact-m", "appro-m"])
    def test_other_algorithms_on_citizens(self, algorithm):
        stats, counters = _run(citizens_dirty, CITIZENS_FDS, "repair", algorithm)
        assert _unregistered(stats) == []
        assert _unregistered(counters) == []

    def test_serve_surfaces(self):
        tracer = Tracer("serve")
        with activate(tracer):
            service = RepairService()
            service.fit(
                citizens_clean(), CITIZENS_FDS,
                thresholds=CITIZENS_THRESHOLDS, absorb=True,
            )
            dirty = citizens_dirty()

            async def scenario():
                async with service:
                    for tid in range(len(dirty)):
                        await service.repair(dirty.as_record(tid))

            asyncio.run(scenario())
        report = build_report(tracer, operation="serve", config={}, relation=dirty)
        assert _unregistered(service.counters()) == []
        assert _unregistered(report.counters) == []
        assert {"serve_requests", "target_tree_searches", "cache_hits"} <= set(
            report.counters
        )


class TestInvariantCountersIgnoreNJobs:
    @pytest.mark.parametrize("name, make, fds", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize(
        "operation, algorithm",
        [("repair", "greedy-m"), ("repair", "exact-s"), ("detect", "greedy-m")],
    )
    def test_equal_at_one_and_two_jobs(self, name, make, fds, operation, algorithm):
        runs = [_run(make, fds, operation, algorithm, n_jobs) for n_jobs in (1, 2)]
        views = []
        for stats, counters in runs:
            for mapping in (stats, counters):
                views.append({
                    key: value
                    for key, value in _numeric(mapping).items()
                    if lookup(key).kind == "invariant"
                })
        serial_stats, serial_counters, parallel_stats, parallel_counters = views
        assert "pairs_examined" in serial_stats
        assert serial_stats == parallel_stats
        assert serial_counters == parallel_counters


def test_docs_table_is_the_schema():
    """``docs/observability.md`` carries the schema table row for row."""
    rows = re.findall(
        r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \| (.+) \|$",
        DOCS.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    documented = [tuple(cell.strip() for cell in row) for row in rows]
    expected = [
        (c.name, c.layer, c.unit, c.kind, c.doc) for c in COUNTERS
    ]
    assert documented == expected, (
        "regenerate the table in docs/observability.md from "
        "repro.obs.counters.COUNTERS"
    )
