"""Tests for the incremental (fit-then-serve) repairer."""

import pytest

from repro.core.incremental import IncrementalRepairer, NotFittedError
from repro.dataset.citizens import (
    CITIZENS_FDS,
    CITIZENS_THRESHOLDS,
    citizens_clean,
)
from repro.generator.hosp import HOSP_FDS, generate_hosp, hosp_thresholds
from repro.generator.noise import NoiseConfig, error_cells, inject_noise


@pytest.fixture(scope="module")
def fitted():
    reference = generate_hosp(400, rng=41, n_facilities=12, n_measures=6)
    repairer = IncrementalRepairer(HOSP_FDS, thresholds=hosp_thresholds())
    return repairer.fit(reference), reference


class TestLifecycle:
    def test_requires_fds(self):
        with pytest.raises(ValueError):
            IncrementalRepairer([])

    def test_unfitted_raises(self):
        repairer = IncrementalRepairer(CITIZENS_FDS)
        with pytest.raises(NotFittedError):
            repairer.repair_record({})
        assert not repairer.is_fitted

    def test_fit_returns_self(self):
        repairer = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )
        assert repairer.fit(citizens_clean()) is repairer
        assert repairer.is_fitted

    def test_missing_attribute_rejected(self, fitted):
        repairer, _ = fitted
        with pytest.raises(KeyError):
            repairer.repair_record({"ZipCode": "zp00000"})


class TestServing:
    def test_clean_record_passes_through(self, fitted):
        repairer, reference = fitted
        record = reference.as_record(0)
        repaired, edits = repairer.repair_record(record)
        assert edits == []
        assert repaired == dict(record)

    def test_corrupted_record_restored(self, fitted):
        repairer, reference = fitted
        record = dict(reference.as_record(5))
        truth_zip = record["ZipCode"]
        record["ZipCode"] = truth_zip[:-1] + "x"  # typo
        repaired, edits = repairer.repair_record(record)
        assert repaired["ZipCode"] == truth_zip
        assert len(edits) == 1

    def test_swap_error_restored(self, fitted):
        repairer, reference = fitted
        record = dict(reference.as_record(7))
        truth_city = record["City"]
        other_city = next(
            v for v in reference.active_domain("City") if v != truth_city
        )
        record["City"] = other_city
        repaired, _ = repairer.repair_record(record)
        assert repaired["City"] == truth_city

    def test_free_attributes_untouched(self, fitted):
        repairer, reference = fitted
        record = dict(reference.as_record(3))
        record["Score"] = 12345.0
        record["ZipCode"] = record["ZipCode"][:-1] + "q"
        repaired, _ = repairer.repair_record(record)
        assert repaired["Score"] == 12345.0

    def test_counters(self, fitted):
        repairer, reference = fitted
        before = repairer.records_seen
        repairer.repair_record(reference.as_record(0))
        assert repairer.records_seen == before + 1

    def test_batch_matches_record_by_record(self, fitted):
        repairer, reference = fitted
        dirty, _ = inject_noise(
            reference, HOSP_FDS, NoiseConfig(0.04), rng=42
        )
        batch = repairer.repair_batch(dirty)
        for tid in list(dirty.tids())[:20]:
            record, _ = repairer.repair_record(dirty.as_record(tid))
            assert batch.as_record(tid) == record

    def test_batch_quality(self, fitted):
        from repro.eval.metrics import evaluate_repair
        from repro.core.repair import collect_edits

        repairer, reference = fitted
        dirty, errors = inject_noise(
            reference, HOSP_FDS, NoiseConfig(0.04), rng=43
        )
        truth = error_cells(errors)
        batch = repairer.repair_batch(dirty)
        edits = collect_edits(dirty, batch)
        quality = evaluate_repair(edits, truth)
        assert quality.precision > 0.9
        assert quality.recall > 0.9


_FACILITY_ATTRS = (
    "ProviderNumber", "HospitalName", "Address", "City", "State",
    "ZipCode", "CountyName", "PhoneNumber", "HospitalType",
    "HospitalOwner", "EmergencyService",
)


def _fresh_facility_record(reference):
    """A record for a facility provably far from every fitted pattern.

    Suffixing every facility attribute pushes each per-FD projection
    beyond its tau against all reference patterns (normalized edit
    distance >= 7/14 per attribute).
    """
    record = dict(reference.as_record(0))
    for attr in _FACILITY_ATTRS:
        record[attr] = record[attr] + "-zzzzzzz"
    return record


class TestAbsorb:
    def test_new_entity_absorbed_when_enabled(self):
        reference = generate_hosp(300, rng=44, n_facilities=10, n_measures=5)
        record = _fresh_facility_record(reference)

        strict = IncrementalRepairer(
            HOSP_FDS, thresholds=hosp_thresholds()
        ).fit(reference)
        absorbing = IncrementalRepairer(
            HOSP_FDS, thresholds=hosp_thresholds(), absorb=True
        ).fit(reference)

        _, strict_edits = strict.repair_record(record)
        repaired, absorb_edits = absorbing.repair_record(record)
        # read-only mode rewrites the stranger to a known facility;
        # absorb mode recognizes it as a clean new entity and keeps it
        assert strict_edits
        assert absorb_edits == []
        assert repaired == dict(record)
        assert absorbing.records_absorbed == 1

    def test_absorbed_entity_becomes_a_target(self):
        reference = generate_hosp(300, rng=44, n_facilities=10, n_measures=5)
        record = _fresh_facility_record(reference)
        repairer = IncrementalRepairer(
            HOSP_FDS, thresholds=hosp_thresholds(), absorb=True
        ).fit(reference)
        repairer.repair_record(record)  # absorb the new facility
        corrupted = dict(record)
        corrupted["City"] = corrupted["City"][:-1] + "x"
        repaired, _ = repairer.repair_record(corrupted)
        assert repaired["City"] == record["City"]


class TestPersistence:
    def test_unfitted_model_cannot_save(self, tmp_path):
        from repro.core.incremental import NotFittedError, save_model

        repairer = IncrementalRepairer(CITIZENS_FDS)
        with pytest.raises(NotFittedError):
            save_model(repairer, tmp_path / "model.json")

    def test_roundtrip_preserves_behaviour(self, tmp_path, fitted):
        from repro.core.incremental import load_model, save_model
        from repro.generator.noise import NoiseConfig, inject_noise

        repairer, reference = fitted
        path = tmp_path / "model.json"
        save_model(repairer, path)
        restored = load_model(path)
        assert restored.is_fitted

        dirty, _ = inject_noise(reference, HOSP_FDS, NoiseConfig(0.04), rng=77)
        for tid in list(dirty.tids())[:40]:
            record = dirty.as_record(tid)
            original_out, _ = repairer.repair_record(record)
            restored_out, _ = restored.repair_record(record)
            assert original_out == restored_out

    def test_roundtrip_numeric_values_survive(self, tmp_path):
        from repro.core.incremental import load_model, save_model

        clean = citizens_clean()
        repairer = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        ).fit(clean)
        path = tmp_path / "citizens.json"
        save_model(repairer, path)
        restored = load_model(path)
        record = dict(clean.as_record(0))
        record["Level"] = 1.0  # break phi1
        fixed, _ = restored.repair_record(record)
        assert fixed["Level"] == 3.0
        assert isinstance(fixed["Level"], float)

    def test_version_check(self, tmp_path, fitted):
        import json

        from repro.core.incremental import load_model, save_model

        repairer, _ = fitted
        path = tmp_path / "model.json"
        save_model(repairer, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_model(path)

    def test_counters_roundtrip(self, tmp_path, fitted):
        from repro.core.incremental import load_model, save_model

        repairer, reference = fitted
        repairer.repair_record(reference.as_record(0))
        path = tmp_path / "model.json"
        save_model(repairer, path)
        restored = load_model(path)
        assert restored.records_seen == repairer.records_seen
