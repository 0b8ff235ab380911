"""Detector registry, builtin detectors, and the contract that
detectors never touch repair.

Covers registry semantics, empty relations, dictionary-id vs raw-value
columns, the zero-division corners of ``evaluate_detection``, and
byte-identical FD-only repairs with detectors enabled. See
``docs/scenarios.md``.
"""

from __future__ import annotations

import pytest

from repro.core.distances import DistanceModel
from repro.core.engine import Repairer
from repro.dataset import (
    CITIZENS_FDS,
    CITIZENS_THRESHOLDS,
    citizens_dirty,
)
from repro.dataset.relation import Relation, Schema
from repro.detect import (
    DETECTORS,
    Detector,
    DetectorContext,
    DetectorRegistry,
    FdViolationDetector,
    NullDetector,
    NumericOutlierDetector,
    RegexFormatDetector,
    format_signature,
    run_detectors,
)
from repro.eval.metrics import evaluate_detection
from repro.exec.config import RepairConfig
from repro.obs import repair_output_hash
from tests.oracles import scan_detection


def small_relation(rows, numeric=()):
    schema = Schema.of("A", "B", numeric=list(numeric))
    return Relation(schema, rows)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert DETECTORS.names() == ["fd", "null", "outlier", "regex"]

    def test_register_and_create(self):
        registry = DetectorRegistry()

        @registry.register("custom")
        class Custom(Detector):
            name = "custom"

            def flag(self, relation, context=None):
                return self.verdict(relation, [])

        assert "custom" in registry
        assert isinstance(registry.create("custom"), Custom)

    def test_duplicate_name_rejected(self):
        registry = DetectorRegistry()
        registry.register("dup", lambda: NullDetector())
        with pytest.raises(ValueError, match="dup"):
            registry.register("dup", lambda: NullDetector())

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="null"):
            DETECTORS.create("no-such-detector")

    def test_instance_passthrough(self):
        detector = NullDetector()
        assert DETECTORS.create(detector) is detector

    def test_unregister(self):
        registry = DetectorRegistry()
        registry.register("gone", lambda: NullDetector())
        registry.unregister("gone")
        assert "gone" not in registry


# ----------------------------------------------------------------------
# Builtin detectors
# ----------------------------------------------------------------------
class TestNullDetector:
    def test_flags_tokens_and_none(self):
        relation = small_relation(
            [("x", "1"), ("", "2"), ("N/A", "3"), (None, "4")]
        )
        verdict = NullDetector().flag(relation)
        assert set(verdict.cells) == {(1, "A"), (2, "A"), (3, "A")}

    def test_empty_relation(self):
        verdict = NullDetector().flag(small_relation([]))
        assert not verdict.cells
        assert len(verdict) == 0

    def test_custom_tokens(self):
        relation = small_relation([("missing", "1"), ("x", "2")])
        verdict = NullDetector(tokens=("missing",)).flag(relation)
        assert set(verdict.cells) == {(0, "A")}

    def test_dictionary_decoding_flags_every_carrier(self):
        # Two tuples share the dictionary id of ""; both cells must be
        # flagged even though the distinct value is examined once.
        relation = small_relation([("", "1"), ("", "2"), ("x", "3")])
        verdict = NullDetector().flag(relation)
        assert set(verdict.cells) == {(0, "A"), (1, "A")}


class TestRegexFormatDetector:
    def test_explicit_pattern(self):
        relation = small_relation(
            [("12345", "a"), ("99999", "b"), ("12a45", "c")]
        )
        verdict = RegexFormatDetector(patterns={"A": r"\d{5}"}).flag(relation)
        assert set(verdict.cells) == {(2, "A")}

    def test_explicit_unknown_attribute_raises(self):
        relation = small_relation([("x", "y")])
        with pytest.raises(KeyError):
            RegexFormatDetector(patterns={"Nope": r".*"}).flag(relation)

    def test_inferred_dominant_signature(self):
        rows = [(f"ab-{i:03d}", "v") for i in range(20)] + [("AB-XYZ", "v")]
        verdict = RegexFormatDetector(min_rows=8).flag(small_relation(rows))
        assert set(verdict.cells) == {(20, "A")}

    def test_no_dominant_signature_flags_nothing(self):
        # Four formats at 25% each: no signature reaches min_support.
        rows = [("abc", "v"), ("ABC", "v"), ("123", "v"), ("a1!", "v")] * 4
        verdict = RegexFormatDetector(min_rows=4).flag(small_relation(rows))
        assert not verdict.cells

    def test_small_columns_skipped(self):
        rows = [("abc", "v"), ("XYZ", "v")]
        verdict = RegexFormatDetector(min_rows=8).flag(small_relation(rows))
        assert not verdict.cells

    def test_format_signature(self):
        assert format_signature("Ab-12") == "Aa-99"


class TestNumericOutlierDetector:
    def test_iqr_flags_far_point(self):
        rows = [("x", float(v)) for v in range(20)] + [("x", 1e6)]
        relation = small_relation(rows, numeric=["B"])
        verdict = NumericOutlierDetector(method="iqr").flag(relation)
        assert set(verdict.cells) == {(20, "B")}

    def test_mad_flags_far_point(self):
        rows = [("x", float(v)) for v in range(20)] + [("x", -1e6)]
        relation = small_relation(rows, numeric=["B"])
        verdict = NumericOutlierDetector(method="mad").flag(relation)
        assert set(verdict.cells) == {(20, "B")}

    def test_zero_spread_flags_nothing(self):
        rows = [("x", 5.0)] * 30
        relation = small_relation(rows, numeric=["B"])
        assert not NumericOutlierDetector().flag(relation).cells

    def test_min_rows_guard(self):
        rows = [("x", 1.0), ("x", 2.0), ("x", 1e9)]
        relation = small_relation(rows, numeric=["B"])
        assert not NumericOutlierDetector(min_rows=16).flag(relation).cells

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            NumericOutlierDetector(method="zscore")


class TestFdViolationDetector:
    def test_requires_fds(self):
        with pytest.raises(ValueError):
            FdViolationDetector().flag(citizens_dirty())

    def test_flags_likely_errors(self):
        context = DetectorContext(fds=tuple(CITIZENS_FDS))
        verdict = FdViolationDetector().flag(citizens_dirty(), context)
        assert verdict.cells
        flagged_attrs = {attr for _, attr in verdict.cells}
        fd_attrs = {a for fd in CITIZENS_FDS for a in fd.attributes}
        assert flagged_attrs <= fd_attrs

    def test_cells_are_the_scan_references_minority_side(self):
        relation = citizens_dirty()
        model = DistanceModel(relation)
        context = DetectorContext(
            fds=tuple(CITIZENS_FDS),
            model=model,
            thresholds=CITIZENS_THRESHOLDS,
        )
        verdict = FdViolationDetector().flag(relation, context)
        reference = scan_detection(
            relation, CITIZENS_FDS, model, CITIZENS_THRESHOLDS
        )
        assert verdict.cells == {
            (tid, attribute)
            for fd in CITIZENS_FDS
            for tid in reference.likely_errors[fd.name]
            for attribute in fd.attributes
        }


# ----------------------------------------------------------------------
# Engine integration: the advisory contract
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def repair_hash(self, detectors, n_jobs=1):
        config = RepairConfig(detectors=detectors, n_jobs=n_jobs)
        repairer = Repairer(
            CITIZENS_FDS,
            algorithm="greedy-m",
            thresholds=CITIZENS_THRESHOLDS,
            config=config,
        )
        result = repairer.repair(citizens_dirty())
        return repair_output_hash(result.edits, result.cost), result

    def test_detectors_never_change_the_repair(self):
        plain, _ = self.repair_hash(None)
        fd_only, _ = self.repair_hash(("fd",))
        everything, result = self.repair_hash(
            ("fd", "null", "regex", "outlier")
        )
        assert plain == fd_only == everything
        assert result.stats.detector_cells_flagged.keys() == {
            "null", "regex", "outlier"
        }

    def test_detectors_never_change_the_repair_parallel(self):
        plain, _ = self.repair_hash(None, n_jobs=2)
        everything, _ = self.repair_hash(
            ("fd", "null", "regex", "outlier"), n_jobs=2
        )
        assert plain == everything

    def test_unknown_detector_rejected_at_config(self):
        with pytest.raises(ValueError, match="no-such"):
            RepairConfig(detectors=("no-such",))

    def test_detect_report_carries_verdicts(self):
        config = RepairConfig(detectors=("fd", "null"))
        repairer = Repairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS, config=config
        )
        report = repairer.detect(citizens_dirty())
        assert set(report.detector_verdicts) == {"null"}
        assert "null" in report.summary()

    def test_run_detectors_times_verdicts(self):
        verdicts = run_detectors(
            citizens_dirty(), ["null"], DetectorContext()
        )
        assert len(verdicts) == 1
        assert verdicts[0].seconds >= 0.0


# ----------------------------------------------------------------------
# evaluate_detection zero-division corners
# ----------------------------------------------------------------------
class TestEvaluateDetection:
    def test_nothing_flagged_nothing_injected(self):
        quality = evaluate_detection([], {})
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0

    def test_nothing_flagged_with_errors(self):
        quality = evaluate_detection([], {(0, "A"): "clean"})
        assert quality.precision == 1.0
        assert quality.recall == 0.0
        assert quality.f1 == 0.0

    def test_flagged_on_clean_relation(self):
        quality = evaluate_detection([(0, "A")], {})
        assert quality.precision == 0.0
        assert quality.recall == 1.0
        assert quality.f1 == 0.0

    def test_partial_overlap(self):
        truth = {(0, "A"): "x", (1, "A"): "y"}
        quality = evaluate_detection([(0, "A"), (2, "A")], truth)
        assert quality.precision == 0.5
        assert quality.recall == 0.5
        assert quality.true_positives == 1


# ----------------------------------------------------------------------
# Scenario generators and the matrix
# ----------------------------------------------------------------------
class TestScenarios:
    def test_generators_log_their_kind(self):
        from repro.generator import (
            ErrorKind,
            generate_hosp,
            inject_format_drift,
            inject_nulls,
            inject_outliers,
        )

        clean = generate_hosp(120, rng=3)
        for inject, kind in (
            (inject_nulls, ErrorKind.NULL),
            (inject_format_drift, ErrorKind.DRIFT),
            (inject_outliers, ErrorKind.OUTLIER),
        ):
            dirty, errors = inject(clean, error_rate=0.02, rng=5)
            assert errors, inject.__name__
            assert {e.kind for e in errors} == {kind}
            for error in errors:
                assert dirty.value(error.tid, error.attribute) == error.dirty
                assert clean.value(error.tid, error.attribute) == error.clean

    def test_injection_is_deterministic(self):
        from repro.generator import generate_hosp, inject_nulls

        clean = generate_hosp(100, rng=3)
        first = inject_nulls(clean, error_rate=0.02, rng=5)[1]
        second = inject_nulls(clean, error_rate=0.02, rng=5)[1]
        assert first == second

    def test_scenario_matrix_smoke(self):
        from repro.eval.runner import SCENARIOS, scenario_matrix

        results = scenario_matrix(
            detectors=("null", "regex", "outlier"), n=150
        )
        assert len(results) == 3 * len(SCENARIOS)
        # every target-diagonal cell that has a verdict here beats the
        # off-diagonal cells of its scenario
        for scenario in SCENARIOS:
            cells = [r for r in results if r.scenario is scenario]
            target = [r for r in cells if r.is_target]
            if target:
                assert target[0].quality.f1 == max(
                    r.quality.f1 for r in cells
                )
