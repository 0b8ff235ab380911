"""Property suite: the candidate-indexed repair equals the linear scan.

:meth:`IncrementalRepairer.repair_record` decides each absorb with a
candidate-indexed consistency check; the micro-batched service and the
serving benchmarks replay through that same method, so this suite is
the independent check of its verdicts. Both the repairer and the
service must produce the same repaired record, the same edits, and the
same absorb decisions as a lockstep
:func:`tests.oracles.scan_repair_record`, which decides by scanning
every fitted element. The hypothesis suites drive both with the same
generated record stream (absorb mode included, where each absorb grows
the fitted sets and forces index rebuilds) and assert equality at every
step, plus the ``save_model``/``load_model`` roundtrip preserving the
absorb counters.
"""

import asyncio
import random
import string
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.incremental import (
    IncrementalRepairer,
    load_model,
    save_model,
)
from repro.core.constraints import FD
from repro.dataset.citizens import (
    CITIZENS_FDS,
    CITIZENS_THRESHOLDS,
    citizens_clean,
)
from repro.dataset.relation import Attribute, Relation, Schema
from repro.generator.hosp import HOSP_FDS, generate_hosp, hosp_thresholds
from repro.serve import RepairService
from tests.oracles import scan_repair_record

REFERENCE = generate_hosp(300, rng=44, n_facilities=10, n_measures=5)
ATTRS = list(REFERENCE.schema.names)
NUMERIC_ATTRS = frozenset(
    a for a in ATTRS if REFERENCE.schema.kind_of(a) == "numeric"
)

_FACILITY_ATTRS = (
    "ProviderNumber", "HospitalName", "Address", "City", "State",
    "ZipCode", "CountyName", "PhoneNumber", "HospitalType",
    "HospitalOwner", "EmergencyService",
)


def fitted_hosp():
    return IncrementalRepairer(
        HOSP_FDS, thresholds=hosp_thresholds(), absorb=True
    ).fit(REFERENCE)


def fresh_pair():
    """(scan reference, indexed) repairers fitted identically."""
    return fitted_hosp(), fitted_hosp()


def assert_lockstep(reference, indexed, records):
    """Drive both paths with *records*; equality must hold throughout."""
    for record in records:
        expect = scan_repair_record(reference, dict(record))
        got = indexed.repair_record(dict(record))
        assert got == expect
    assert indexed.records_seen == reference.records_seen
    assert indexed.records_repaired == reference.records_repaired
    assert indexed.records_absorbed == reference.records_absorbed


def new_entity_stream(count, seed=7):
    """*count* new facilities, each followed by a City-typo copy of it.

    Every facility attribute carries a fresh random 10-letter suffix, so
    each entity is far from the fitted sets and from the entities before
    it: it is absorbed, and its typo copy repairs onto it.
    """
    rng = random.Random(seed)
    records = []
    for i in range(count):
        fresh = dict(REFERENCE.as_record(i))
        suffix = "".join(rng.choice(string.ascii_lowercase) for _ in range(10))
        for attr in _FACILITY_ATTRS:
            fresh[attr] = f"{fresh[attr]}-{suffix}"
        corrupted = dict(fresh, City=fresh["City"][:-1] + "!")
        records += [fresh, corrupted]
    return records


def served(service, records):
    """Submit *records* concurrently; replies come back in order."""

    async def scenario():
        async with service:
            return await asyncio.gather(*(service.repair(r) for r in records))

    return asyncio.run(scenario())


def assert_replies_match(reference, records, replies):
    for record, response in zip(records, replies):
        repaired, edits = scan_repair_record(reference, dict(record))
        assert response["record"] == repaired
        assert [
            (e["attribute"], e["old"], e["new"]) for e in response["edits"]
        ] == [(e.attribute, e.old, e.new) for e in edits]


# one reusable record strategy: a reference row with arbitrary
# type-correct cell rewrites — typos, unseen strings, swapped values,
# numeric outliers, or no change
@st.composite
def mutated_records(draw):
    row = draw(st.integers(min_value=0, max_value=len(REFERENCE) - 1))
    record = dict(REFERENCE.as_record(row))
    n_edits = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_edits):
        attr = draw(st.sampled_from(ATTRS))
        if attr in NUMERIC_ATTRS:
            record[attr] = draw(
                st.floats(
                    min_value=-1e4,
                    max_value=1e4,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
        else:
            mode = draw(st.sampled_from(["typo", "unseen", "swap"]))
            value = str(record[attr])
            if mode == "typo" and value:
                pos = draw(
                    st.integers(min_value=0, max_value=len(value) - 1)
                )
                char = draw(
                    st.characters(
                        min_codepoint=33, max_codepoint=0x2FF
                    )
                )
                record[attr] = value[:pos] + char + value[pos + 1 :]
            elif mode == "unseen":
                record[attr] = draw(st.text(min_size=0, max_size=24))
            else:
                other = draw(
                    st.integers(
                        min_value=0, max_value=len(REFERENCE) - 1
                    )
                )
                record[attr] = REFERENCE.as_record(other)[attr]
    return record


class TestServeEqualsBatch:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(mutated_records(), min_size=1, max_size=6))
    def test_arbitrary_record_streams(self, records):
        reference, indexed = fresh_pair()
        assert_lockstep(reference, indexed, records)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        suffix=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=7,
            max_size=12,
        ),
        typo_pos=st.integers(min_value=0, max_value=6),
    )
    def test_absorb_then_repair_toward_absorbed_target(
        self, suffix, typo_pos
    ):
        """Absorbed entities become targets on both paths identically.

        A provably-far facility record is absorbed (growing the fitted
        sets and invalidating the serve indexes); a corrupted copy must
        then be repaired *onto the absorbed entity* by both paths.
        """
        reference, indexed = fresh_pair()
        fresh = dict(REFERENCE.as_record(0))
        for attr in _FACILITY_ATTRS:
            fresh[attr] = f"{fresh[attr]}-{suffix}"
        corrupted = dict(fresh)
        city = corrupted["City"]
        pos = min(typo_pos, len(city) - 1)
        corrupted["City"] = city[:pos] + "!" + city[pos + 1 :]
        assert_lockstep(reference, indexed, [fresh, corrupted])
        assert indexed.records_absorbed == reference.records_absorbed >= 1

    def test_micro_batched_service_matches_batch(self):
        """The full async pipeline preserves per-record equivalence."""
        reference = fitted_hosp()
        service = RepairService()
        service.attach_model(fitted_hosp())
        records = []
        for i in range(40):
            record = dict(REFERENCE.as_record(i % len(REFERENCE)))
            if i % 3 == 0:
                record["City"] = record["City"][:-1] + "x"
            if i % 7 == 0:
                record["ZipCode"] = record["ZipCode"] + "q"
            records.append(record)
        assert_replies_match(reference, records, served(service, records))


class TestNewEntityStream:
    """A fixed stream of new entities: absorbs and index rebuilds happen."""

    def test_repairer_matches_scan(self):
        reference, indexed = fresh_pair()
        records = new_entity_stream(12)
        assert_lockstep(reference, indexed, records)
        assert indexed.records_absorbed >= 12
        assert indexed.records_repaired == 12
        assert indexed.counters["serve_index_rebuilds"] > 0

    def test_service_matches_scan(self):
        reference = fitted_hosp()
        service = RepairService()
        service.attach_model(fitted_hosp())
        records = new_entity_stream(12)
        assert_replies_match(reference, records, served(service, records))
        counters = service.counters()
        assert counters["serve_records_absorbed"] == reference.records_absorbed
        assert counters["serve_index_rebuilds"] > 0


class TestPersistenceRoundtrip:
    def test_roundtrip_preserves_absorb_counters(self, tmp_path):
        repairer = IncrementalRepairer(
            HOSP_FDS, thresholds=hosp_thresholds(), absorb=True
        ).fit(REFERENCE)
        fresh = dict(REFERENCE.as_record(0))
        for attr in _FACILITY_ATTRS:
            fresh[attr] = fresh[attr] + "-zzzzzzz"
        repairer.repair_record(fresh)  # absorbed
        dirty = dict(REFERENCE.as_record(1))
        dirty["City"] = dirty["City"][:-1] + "x"
        repairer.repair_record(dirty)  # repaired
        assert repairer.records_absorbed == 1

        path = tmp_path / "model.json"
        save_model(repairer, path)
        revived = load_model(path)
        assert revived.records_seen == repairer.records_seen
        assert revived.records_repaired == repairer.records_repaired
        assert revived.records_absorbed == repairer.records_absorbed

        # the revived model serves identically — absorbed entity included
        for i in range(20):
            record = dict(REFERENCE.as_record(i % len(REFERENCE)))
            if i % 2:
                record["PhoneNumber"] = record["PhoneNumber"][:-1] + "z"
            assert revived.repair_record(dict(record)) == (
                repairer.repair_record(dict(record))
            )
        near_absorbed = dict(fresh)
        near_absorbed["City"] = near_absorbed["City"][:-1] + "!"
        assert revived.repair_record(dict(near_absorbed)) == (
            repairer.repair_record(dict(near_absorbed))
        )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(mutated_records(), min_size=1, max_size=4))
    def test_revived_model_serves_like_live_indexed(self, records):
        live = IncrementalRepairer(
            HOSP_FDS, thresholds=hosp_thresholds(), absorb=True
        ).fit(REFERENCE)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(live, path)
            revived = load_model(path)
        assert_lockstep(live, revived, records)


class TestCitizensSmoke:
    """A second schema keeps the equivalence claim dataset-independent."""

    def test_citizens_lockstep(self):
        reference, indexed = (
            IncrementalRepairer(
                CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS, absorb=True
            ).fit(citizens_clean())
            for _ in range(2)
        )
        relation = citizens_clean()
        records = []
        for i in range(len(relation)):
            record = dict(relation.as_record(i))
            records.append(dict(record))
            record["City"] = record["City"][:-1] + "x"
            records.append(record)
        assert_lockstep(reference, indexed, records)


# the catalog regime of the serving benchmark: distinct 12/14-letter
# codes and names under a tight tau, where the candidate index prunes
# (at HOSP's thresholds every filter passes everything)
_CATALOG_RNG = random.Random(5)


def _token(n, rng=_CATALOG_RNG):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


CATALOG = [
    {
        "code": _token(12),
        "name": _token(14),
        "category": _token(10),
        "price": float(_CATALOG_RNG.randrange(1000)),
    }
    for _ in range(60)
]
CATALOG_SCHEMA = Schema(
    Attribute(name, "numeric" if name == "price" else "string")
    for name in ("code", "name", "category", "price")
)
CATALOG_REFERENCE = Relation(
    CATALOG_SCHEMA,
    [tuple(CATALOG[i % len(CATALOG)].values()) for i in range(240)],
)
CATALOG_FDS = [
    FD.parse("code -> name", name="c1"),
    FD.parse("code -> category", name="c2"),
    FD.parse("code -> price", name="c3"),
]


def fitted_catalog():
    return IncrementalRepairer(
        CATALOG_FDS,
        thresholds={fd: 0.15 for fd in CATALOG_FDS},
        absorb=True,
    ).fit(CATALOG_REFERENCE)


@st.composite
def catalog_records(draw):
    """A catalog entity, a typo'd or re-priced copy, or a new entity."""
    letters = st.characters(min_codepoint=97, max_codepoint=122)
    mode = draw(st.sampled_from(["clean", "typo", "price", "new"]))
    if mode == "new":
        return {
            "code": draw(st.text(letters, min_size=12, max_size=12)),
            "name": draw(st.text(letters, min_size=14, max_size=14)),
            "category": draw(st.text(letters, min_size=10, max_size=10)),
            "price": float(draw(st.integers(0, 999))),
        }
    record = dict(draw(st.sampled_from(CATALOG)))
    if mode == "typo":
        attr = draw(st.sampled_from(["code", "name", "category"]))
        value = record[attr]
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(value) - 1))
            value = value[:pos] + draw(letters) + value[pos + 1 :]
        record[attr] = value
    elif mode == "price":
        record["price"] += float(draw(st.integers(-300, 300)))
    return record


class TestCatalogRegime:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(catalog_records(), min_size=1, max_size=12))
    def test_arbitrary_record_streams(self, records):
        assert_lockstep(fitted_catalog(), fitted_catalog(), records)

    def test_index_prunes_and_rebuilds(self):
        """A fixed stream: new entities, then typo'd copies of them."""
        rng = random.Random(11)
        fresh = [
            {
                "code": _token(12, rng),
                "name": _token(14, rng),
                "category": _token(10, rng),
                "price": float(rng.randrange(1000)),
            }
            for _ in range(8)
        ]
        records = fresh + [
            dict(r, code=r["code"][:5] + "z" + r["code"][6:]) for r in fresh
        ]
        reference, indexed = fitted_catalog(), fitted_catalog()
        assert_lockstep(reference, indexed, records)
        counters = indexed.counters
        assert indexed.records_absorbed > 0
        assert counters["serve_index_rebuilds"] > 0
        assert (
            counters["serve_elements_examined"]
            < counters["serve_elements_total"]
        )
