"""Tests for detect-only mode."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.detection import detect
from repro.core.distances import DistanceModel, Weights
from repro.core.engine import Repairer
from repro.dataset.relation import Relation, Schema
from repro.exec.config import RepairConfig
from tests.oracles import scan_detection


class TestDetect:
    def test_counts_per_constraint(self, citizens, citizens_model,
                                   citizens_fds, citizens_thresholds):
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        assert set(report.violations) == {"phi1", "phi2", "phi3"}
        assert report.total_violations > 0
        assert report.relation_size == len(citizens)

    def test_suspects_cover_known_errors(self, citizens, citizens_model,
                                         citizens_fds, citizens_thresholds,
                                         citizens_errors):
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        erroneous_tids = {tid for tid, _ in citizens_errors}
        assert erroneous_tids <= report.suspect_tids

    def test_suspect_cells_cover_error_cells(self, citizens, citizens_model,
                                             citizens_fds,
                                             citizens_thresholds,
                                             citizens_errors):
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        cells = report.suspect_cells(citizens_fds)
        for cell in citizens_errors:
            assert cell in cells

    def test_clean_relation_reports_clean(self, citizens_truth, citizens_fds,
                                          citizens_thresholds):
        model = DistanceModel(citizens_truth)
        report = detect(
            citizens_truth, citizens_fds, model, citizens_thresholds
        )
        assert report.is_clean()
        assert report.suspect_tids == set()

    def test_summary_mentions_every_constraint(self, citizens, citizens_model,
                                               citizens_fds,
                                               citizens_thresholds):
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        text = report.summary()
        for fd in citizens_fds:
            assert fd.name in text


class TestEngineIntegration:
    def test_repairer_detect(self, citizens, citizens_fds,
                             citizens_thresholds):
        repairer = Repairer(citizens_fds, thresholds=citizens_thresholds)
        report = repairer.detect(citizens)
        assert not report.is_clean()

    def test_detect_does_not_mutate(self, citizens, citizens_fds,
                                    citizens_thresholds):
        snapshot = citizens.copy()
        Repairer(citizens_fds, thresholds=citizens_thresholds).detect(citizens)
        assert citizens == snapshot

    def test_detect_then_repair_then_detect_clean(self, citizens, citizens_fds,
                                                  citizens_thresholds):
        """The pipeline the module exists for."""
        repairer = Repairer(
            citizens_fds, algorithm="greedy-m", thresholds=citizens_thresholds
        )
        before = repairer.detect(citizens)
        assert not before.is_clean()
        repaired = repairer.repair(citizens).relation
        after = repairer.detect(repaired)
        assert after.is_clean()

    def test_detect_validates_schema(self, citizens):
        from repro.core.constraints import FD

        repairer = Repairer([FD.parse("City -> Nowhere")], thresholds=0.5)
        with pytest.raises(KeyError):
            repairer.detect(citizens)


class TestLikelyErrors:
    def test_minority_side_flagged(self, citizens, citizens_model,
                                   citizens_fds, citizens_thresholds):
        """(Boton, MA) m1 vs (Boston, MA) m4: only Boton's tuple is a
        likely error carrier for phi2."""
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        likely_phi2 = report.likely_errors["phi2"]
        assert 7 in likely_phi2  # Pavol (Boton)
        # the dominant (New York, NY) tuples t1-t3 must not be flagged
        assert not {0, 1, 2} & likely_phi2

    def test_likely_errors_subset_of_suspects(self, citizens, citizens_model,
                                              citizens_fds,
                                              citizens_thresholds):
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        for name in report.violations:
            assert report.likely_errors[name] <= report.suspects[name]

    def test_likely_errors_cover_most_injected_errors(self,
                                                      small_hosp_workload):
        from repro.core.distances import DistanceModel

        dirty = small_hosp_workload["dirty"]
        truth = small_hosp_workload["truth"]
        model = DistanceModel(dirty)
        report = detect(
            dirty, small_hosp_workload["fds"], model,
            small_hosp_workload["thresholds"],
        )
        erroneous_tids = {tid for tid, _ in truth}
        flagged = report.likely_error_tids
        covered = len(erroneous_tids & flagged) / len(erroneous_tids)
        assert covered > 0.8
        # ...while flagging far fewer tuples than the raw suspect set
        assert len(flagged) < len(report.suspect_tids)

    def test_summary_mentions_likely_errors(self, citizens, citizens_model,
                                            citizens_fds,
                                            citizens_thresholds):
        report = detect(
            citizens, citizens_fds, citizens_model, citizens_thresholds
        )
        assert "likely error" in report.summary()


def _squared_gap(a, b):
    """A custom numeric distance (module-level, so configs pickle)."""
    return min(1.0, (float(a) - float(b)) ** 2 / 100.0)


_FDS = [FD.parse("A -> B"), FD.parse("B -> N"), FD.parse("A, N -> B")]


def _per_fd(report):
    return {
        name: (
            set(report.violations[name]),
            report.suspects[name],
            report.likely_errors[name],
        )
        for name in report.violations
    }


class TestOneJoin:
    """``detect``, ``Repairer.detect`` and the pair-scan reference agree
    on every FD's violation set (distances included), suspects and
    likely errors."""

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("abc", min_size=0, max_size=6),  # empty strings in
                st.text("xy", min_size=0, max_size=4),
                st.integers(0, 12).map(float),
            ),
            min_size=1,
            max_size=14,
        ),
        taus=st.tuples(*[st.floats(0.0, 1.1)] * len(_FDS)),
        w_lhs=st.sampled_from([0.3, 0.5, 0.7]),
        override=st.booleans(),
    )
    def test_three_paths_agree(self, rows, taus, w_lhs, override):
        relation = Relation(Schema.of("A", "B", "N", numeric=("N",)), rows)
        thresholds = dict(zip(_FDS, taus))
        config = RepairConfig(
            weights=Weights(w_lhs, round(1.0 - w_lhs, 12)),
            thresholds=thresholds,
            distance_overrides={"N": _squared_gap} if override else None,
        )
        repairer = Repairer(_FDS, config=config)
        model = repairer.build_model(relation)
        reference = _per_fd(scan_detection(relation, _FDS, model, thresholds))
        assert _per_fd(detect(relation, _FDS, model, thresholds)) == reference
        assert _per_fd(repairer.detect(relation)) == reference
