"""Run-report contracts: serialization, determinism, and n_jobs merging.

The acceptance surface of the observability layer:

* a traced repair/detect produces a report whose span tree covers the
  detect/graph/repair phases and whose counters match ``result.stats``;
* reports round-trip through JSON losslessly;
* ``normalized()`` makes two same-seed runs compare equal (determinism);
* ``n_jobs > 1`` merges worker-local span trees without double counting
  — same span multiset, same counters as the serial run.
"""

import json

import pytest

from repro.core.constraints import FD
from repro.core.engine import Repairer
from repro.dataset.citizens import CITIZENS_FDS, citizens_dirty
from repro.obs import RunReport, repair_output_hash
from repro.obs.counters import lookup

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def traced_result():
    repairer = Repairer(CITIZENS_FDS, trace=True, seed=7)
    result = repairer.repair(citizens_dirty())
    return result, repairer.report()


def _span_names(report: RunReport):
    return sorted(node["name"] for node in report.iter_spans())


# ----------------------------------------------------------------------
# Shape and coverage
# ----------------------------------------------------------------------
class TestReportShape:
    def test_result_carries_the_report(self, traced_result):
        result, report = traced_result
        assert result.run_report is report

    def test_untraced_run_has_no_report(self):
        repairer = Repairer(CITIZENS_FDS)
        result = repairer.repair(citizens_dirty())
        assert result.run_report is None
        with pytest.raises(RuntimeError):
            repairer.report()

    def test_spans_cover_detect_graph_and_repair_phases(self, traced_result):
        _, report = traced_result
        names = set(report.span_names())
        assert {"run", "execute", "component", "graph", "detect"} <= names
        assert {"targets/build", "targets/search"} <= names  # repair phase

    def test_spans_nest_run_to_execute_to_component(self, traced_result):
        _, report = traced_result
        root = report.spans
        assert root["name"] == "run"
        execute = [c for c in root["children"] if c["name"] == "execute"]
        assert len(execute) == 1
        components = [
            c for c in execute[0]["children"] if c["name"] == "component"
        ]
        assert components, "components must nest under execute"
        assert all(
            any(g["name"] == "graph" for g in c.get("children", ()))
            for c in components
        )

    def test_counters_are_a_view_of_result_stats(self, traced_result):
        result, report = traced_result
        # the registry is backed BY the stats dict: every scalar numeric
        # the stats carry appears verbatim in the unified counters
        for key, value in result.stats.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            assert report.counters[key] == value, key

    def test_result_digest_and_hash(self, traced_result):
        result, report = traced_result
        assert report.result["edits"] == len(result.edits)
        assert report.result["output_hash"] == repair_output_hash(
            result.edits, result.cost
        )

    def test_dataset_fingerprint_pins_the_input(self, traced_result):
        _, report = traced_result
        dirty = citizens_dirty()
        assert report.dataset["rows"] == len(dirty)
        assert report.dataset["attributes"] == list(dirty.schema.names)
        assert len(report.dataset["sha256"]) == 16

    def test_detect_also_reports(self):
        repairer = Repairer(CITIZENS_FDS, trace=True)
        detection = repairer.detect(citizens_dirty())
        report = detection.run_report
        assert report.operation == "detect"
        assert {"run", "execute", "fd", "detect"} <= set(report.span_names())
        assert report.result["violations"] == detection.total_violations


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestSerialization:
    def test_json_round_trip_is_lossless(self, traced_result):
        _, report = traced_result
        back = RunReport.from_json(report.to_json())
        assert back.to_dict() == report.to_dict()

    def test_to_json_is_valid_json(self, traced_result):
        _, report = traced_result
        parsed = json.loads(report.to_json())
        assert parsed["schema_version"] == report.schema_version
        assert parsed["spans"]["name"] == "run"

    def test_counters_round_trip_json(self, traced_result):
        _, report = traced_result
        back = json.loads(json.dumps(report.counters))
        assert back == report.counters

    def test_phase_totals_sum_repeated_spans(self, traced_result):
        _, report = traced_result
        totals = report.phase_totals()
        components = [
            n for n in report.iter_spans() if n["name"] == "component"
        ]
        assert len(components) >= 2
        assert totals["component"] == pytest.approx(
            sum(float(c.get("seconds", 0.0)) for c in components)
        )


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_runs_normalize_equal(self):
        reports = []
        for _ in range(2):
            repairer = Repairer(CITIZENS_FDS, trace=True, seed=42)
            repairer.repair(citizens_dirty())
            reports.append(repairer.report())
        first, second = (r.normalized().to_dict() for r in reports)
        assert first == second

    def test_normalized_zeroes_wall_clocks(self, traced_result):
        _, report = traced_result
        normalized = report.normalized()
        assert all(
            node["seconds"] == 0.0 for node in normalized.iter_spans()
        )
        assert normalized.counters.get("wall_seconds", 0) == 0
        assert all(value is None for value in normalized.rss.values())
        # deterministic content survives
        assert normalized.result == report.result
        assert normalized.dataset == report.dataset


# ----------------------------------------------------------------------
# Parallel merging
# ----------------------------------------------------------------------
class TestParallelMerge:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        reports = {}
        for jobs in (1, 2):
            repairer = Repairer(CITIZENS_FDS, trace=True, n_jobs=jobs)
            repairer.repair(citizens_dirty())
            reports[jobs] = repairer.report()
        return reports

    def test_same_span_multiset(self, serial_and_parallel):
        assert _span_names(serial_and_parallel[1]) == _span_names(
            serial_and_parallel[2]
        )

    def test_no_double_counting_in_counters(self, serial_and_parallel):
        # shipping traffic is n_jobs-dependent by definition (serial runs
        # never cross a process boundary), and cache and kernel counters
        # follow the warmth of the worker-persistent memo: the schema
        # marks those "scheduling" and wall clocks "timing". The
        # invariant counters must match exactly.
        serial, parallel = (
            {
                k: v
                for k, v in serial_and_parallel[jobs].counters.items()
                if lookup(k).kind == "invariant"
            }
            for jobs in (1, 2)
        )
        assert "pairs_examined" in serial
        assert serial == parallel

    def test_same_output_hash(self, serial_and_parallel):
        assert (
            serial_and_parallel[1].result["output_hash"]
            == serial_and_parallel[2].result["output_hash"]
        )

    def test_worker_components_graft_under_execute(self, serial_and_parallel):
        report = serial_and_parallel[2]
        execute = [
            c for c in report.spans["children"] if c["name"] == "execute"
        ][0]
        components = [
            c for c in execute["children"] if c["name"] == "component"
        ]
        assert len(components) == 2
        # worker-local subtrees came along
        for component in components:
            assert any(
                g["name"] == "graph" for g in component.get("children", ())
            )


# ----------------------------------------------------------------------
# Batch (repair_many)
# ----------------------------------------------------------------------
class TestBatchReport:
    def test_repair_many_shares_one_batch_report(self):
        fd = FD.parse("City -> District")
        repairer = Repairer([fd], trace=True)
        relations = [citizens_dirty(), citizens_dirty()]
        results = repairer.repair_many(relations)
        reports = {id(r.run_report) for r in results}
        assert len(reports) == 1
        report = results[0].run_report
        assert report.operation == "repair_many"
        assert report.spans["attributes"]["jobs"] == 2
