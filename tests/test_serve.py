"""Tests for the serving layer: batching, cache, latency, service, HTTP."""

import asyncio
import json
import random
import string
import urllib.error
import urllib.request

import pytest

import repro.core.incremental as incremental
from repro.core.incremental import (
    IncrementalRepairer,
    InvalidRecordError,
    NotFittedError,
)
from repro.dataset.citizens import (
    CITIZENS_FDS,
    CITIZENS_THRESHOLDS,
    citizens_clean,
    citizens_dirty,
)
from repro.obs import Tracer, activate, build_report
from repro.serve import (
    LatencyRecorder,
    MicroBatcher,
    ModelCache,
    RepairService,
    ServeConfig,
    ServeHTTP,
    ServiceOverloadedError,
    UnknownModelError,
    gather_submit,
    model_key,
)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# micro-batching
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_results_in_submission_order(self):
        batcher = MicroBatcher(lambda items: [i * 2 for i in items])

        async def scenario():
            try:
                return await gather_submit(batcher, [1, 2, 3, 4, 5])
            finally:
                await batcher.stop()

        assert run(scenario()) == [2, 4, 6, 8, 10]

    def test_batches_are_bounded(self):
        sizes = []

        def handler(items):
            sizes.append(len(items))
            return items

        batcher = MicroBatcher(handler, batch_size=3, batch_timeout=0.05)

        async def scenario():
            try:
                await gather_submit(batcher, list(range(10)))
            finally:
                await batcher.stop()

        run(scenario())
        assert sum(sizes) == 10
        assert max(sizes) <= 3

    def test_overload_rejects_with_503_error(self):
        batcher = MicroBatcher(lambda items: items, queue_limit=2)
        batcher.start = lambda: None  # keep the queue undrained

        async def scenario():
            loop = asyncio.get_running_loop()
            first = loop.create_task(batcher.submit("a"))
            second = loop.create_task(batcher.submit("b"))
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadedError):
                await batcher.submit("c")
            first.cancel()
            second.cancel()

        run(scenario())
        assert batcher.rejected == 1

    def test_stop_fails_queued_requests(self):
        batcher = MicroBatcher(lambda items: items, queue_limit=8)
        batcher.start = lambda: None

        async def scenario():
            loop = asyncio.get_running_loop()
            task = loop.create_task(batcher.submit("x"))
            await asyncio.sleep(0)
            await batcher.stop()
            with pytest.raises(ServiceOverloadedError):
                await task

        run(scenario())

    def test_returned_exception_fails_only_its_request(self):
        def handler(items):
            return [ValueError(i) if i == "bad" else i for i in items]

        batcher = MicroBatcher(handler, batch_timeout=0.05)

        async def scenario():
            try:
                return await asyncio.gather(
                    *(batcher.submit(i) for i in ("a", "bad", "c")),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()

        first, bad, last = run(scenario())
        assert (first, last) == ("a", "c")
        assert isinstance(bad, ValueError)
        assert batcher.batches == 1

    def test_handler_errors_reach_every_request(self):
        def handler(items):
            raise RuntimeError("boom")

        batcher = MicroBatcher(handler)

        async def scenario():
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    await batcher.submit(1)
            finally:
                await batcher.stop()

        run(scenario())

    def test_counters(self):
        batcher = MicroBatcher(lambda items: items, batch_size=2)

        async def scenario():
            try:
                await gather_submit(batcher, [1, 2, 3, 4])
            finally:
                await batcher.stop()

        run(scenario())
        counters = batcher.counters()
        assert counters["serve_requests"] == 4
        assert counters["serve_batches"] >= 2
        assert counters["serve_rejected"] == 0
        assert counters["serve_batch_mean_size"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, batch_timeout=-1)


# ----------------------------------------------------------------------
# model cache
# ----------------------------------------------------------------------
class TestModelCache:
    def test_key_pins_data_and_parameters(self):
        relation = citizens_clean()
        base = model_key(relation, CITIZENS_FDS, CITIZENS_THRESHOLDS)
        assert base == model_key(
            relation, CITIZENS_FDS, CITIZENS_THRESHOLDS
        )
        assert base != model_key(relation, CITIZENS_FDS, 0.5)
        assert base != model_key(
            relation, CITIZENS_FDS[:1], CITIZENS_THRESHOLDS
        )
        assert base != model_key(
            relation, CITIZENS_FDS, CITIZENS_THRESHOLDS, absorb=True
        )

    def test_get_or_fit_fits_once(self):
        cache = ModelCache(capacity=2)
        relation = citizens_clean()
        key1, model1 = cache.get_or_fit(
            relation, CITIZENS_FDS, CITIZENS_THRESHOLDS
        )
        key2, model2 = cache.get_or_fit(
            relation, CITIZENS_FDS, CITIZENS_THRESHOLDS
        )
        assert key1 == key2
        assert model1 is model2
        counters = cache.counters()
        assert counters["model_cache_hits"] == 1
        assert counters["model_cache_misses"] == 1

    def test_lru_eviction(self):
        cache = ModelCache(capacity=2)
        relation = citizens_clean()
        fitted = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        ).fit(relation)
        model = fitted
        cache.put("a", model)
        cache.put("b", model)
        assert cache.get("a") is model  # refresh a's recency
        cache.put("c", model)  # evicts b, the least recently used
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.counters()["model_cache_evictions"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ModelCache(capacity=0)


# ----------------------------------------------------------------------
# latency accounting
# ----------------------------------------------------------------------
class TestLatencyRecorder:
    def test_quantiles_exact_over_window(self):
        recorder = LatencyRecorder()
        for ms in range(1, 101):  # 1..100 ms
            recorder.observe(ms / 1000.0)
        q = recorder.quantiles()
        assert q["p50"] == pytest.approx(0.051)
        assert q["p95"] == pytest.approx(0.096)
        assert q["p99"] == pytest.approx(0.100)

    def test_histogram_covers_every_observation(self):
        recorder = LatencyRecorder()
        for seconds in (0.0002, 0.003, 0.04, 99.0):
            recorder.observe(seconds)
        histogram = recorder.histogram()
        assert sum(histogram.values()) == 4
        assert histogram["overflow"] == 1

    def test_queue_gauges(self):
        recorder = LatencyRecorder()
        recorder.sample_queue_depth(3)
        recorder.sample_queue_depth(9)
        recorder.sample_queue_depth(2)
        snapshot = recorder.snapshot()
        assert snapshot["queue_depth"] == 2
        assert snapshot["queue_depth_peak"] == 9

    def test_snapshot_tracks_queue_wait(self):
        recorder = LatencyRecorder()
        recorder.observe(0.010, queue_wait=0.004)
        snapshot = recorder.snapshot()
        assert snapshot["latency_count"] == 1
        assert snapshot["latency_p99_ms"] == pytest.approx(10.0)
        assert snapshot["queue_wait_max_ms"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# the consistency check's counters
# ----------------------------------------------------------------------
def _new_entities(count, seed=3):
    """*count* Citizens records far from every fitted value and each other."""
    rng = random.Random(seed)
    base = citizens_clean().as_record(0)
    out = []
    for n in range(count):
        record = dict(base, Level=100.0 * (n + 2))
        for attr in ("Education", "City", "Street", "District", "State"):
            record[attr] = "".join(
                rng.choice(string.ascii_lowercase) for _ in range(12)
            )
        out.append(record)
    return out


class TestServeCounters:
    def test_counter_shape(self):
        fitted = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        ).fit(citizens_clean())
        assert set(fitted.counters) == {
            "serve_elements_total",
            "serve_elements_examined",
            "serve_index_probes",
            "serve_index_rebuilds",
        }
        assert not any(fitted.counters.values())
        fitted.repair_record(citizens_clean().as_record(0))
        assert fitted.records_seen == 1

    def test_rebuilds_count_every_rebuild(self, monkeypatch):
        """Absorbing new entities grows the fitted sets; every stale FD
        index rebuilt afterwards is counted, and nothing else is."""
        builds = []

        class CountingIndex(incremental._FDIndex):
            def __init__(self, fd, elements, *args):
                super().__init__(fd, elements, *args)
                builds.append(fd)

        monkeypatch.setattr(incremental, "_FDIndex", CountingIndex)
        repairer = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS, absorb=True
        ).fit(citizens_clean())
        entities = _new_entities(4)
        for record in entities:
            _, edits = repairer.repair_record(record)
            assert edits == []
        # each entity is new to both FD-graph components, and is one
        # absorbed record
        assert repairer.records_absorbed == len(entities)
        rebuilds = repairer.counters["serve_index_rebuilds"]
        assert rebuilds == len(builds) - len(set(builds))
        assert rebuilds > 0


    def test_absorbed_and_repaired_record_counts_once(self):
        """A record one component absorbs and the other repairs is one
        absorbed record and one repaired record."""
        repairer = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS, absorb=True
        ).fit(citizens_clean())
        base = citizens_clean().as_record(0)
        (entity,) = _new_entities(1)
        # a new Education/Level entity, and a City typo of a fitted one
        record = dict(
            base,
            Education=entity["Education"],
            Level=entity["Level"],
            City=base["City"] + "x",
        )
        repaired, edits = repairer.repair_record(record)
        assert [edit.attribute for edit in edits] == ["City"]
        assert repaired["Education"] == entity["Education"]
        assert repairer.records_absorbed == 1
        assert repairer.records_repaired == 1


def _typo_records(count):
    """*count* records, each with a City typo no other record shares."""
    base = citizens_clean().as_record(0)
    return [dict(base, City=base["City"] + "x" * n) for n in range(1, count + 1)]


def _sized_state(model):
    """The size of every sized attribute of *model* (its dicts, lists...)."""
    return {
        name: len(value)
        for name, value in vars(model).items()
        if hasattr(value, "__len__")
    }


class TestServingMemory:
    """300 distinct typos must not grow any store of the fitted distance
    model, whether or not repaired records are absorbed; the trees' own
    vector memos stay within their value tables."""

    def _stream_typos(self, absorb):
        fitted = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS, absorb=absorb
        ).fit(citizens_clean())
        model = fitted._model
        before = _sized_state(model)
        for record in _typo_records(300):
            _, edits = fitted.repair_record(record)
            assert edits  # each typo is repaired through a tree search
        assert _sized_state(model) == before
        trees = [component.tree for component in fitted._components]
        assert sum(tree.searches for tree in trees) == 300
        for tree in trees:
            assert tree.memo_size <= tree.memo_capacity

    def test_typo_stream_leaves_the_model_alone(self):
        self._stream_typos(absorb=False)

    def test_absorbed_typo_stream_leaves_the_model_alone(self):
        self._stream_typos(absorb=True)


# ----------------------------------------------------------------------
# service core
# ----------------------------------------------------------------------
class TestRepairService:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ValueError):
            ServeConfig(cache_capacity=0)

    def test_repair_requires_a_model(self):
        service = RepairService()

        async def scenario():
            async with service:
                await service.repair({"City": "x"})

        with pytest.raises(UnknownModelError):
            run(scenario())

    def test_async_repair_matches_sync(self):
        service = RepairService()
        service.fit(
            citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )
        record = dict(citizens_clean().as_record(0))
        record["City"] = record["City"][:-1] + "x"

        async def scenario():
            async with service:
                return await service.repair(record)

        served = run(scenario())
        assert served == service.repair_sync(record)
        assert served["repaired"] is True
        assert served["edits"]

    def test_counters_merge_all_subsystems(self):
        service = RepairService()
        service.fit(
            citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )

        async def scenario():
            async with service:
                await service.repair(citizens_clean().as_record(0))

        run(scenario())
        counters = service.counters()
        for name in (
            "serve_requests",
            "model_cache_misses",
            "latency_count",
            "serve_elements_total",
            "serve_records_seen",
        ):
            assert name in counters
        assert counters["serve_requests"] == 1
        assert counters["latency_count"] == 1
        assert counters["serve_records_seen"] == 1

    def test_counters_report_tree_search(self):
        service = RepairService()
        service.fit(
            citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )
        counters = service.counters()
        assert counters["target_tree_searches"] == 0
        served = service.repair_sync(_typo_records(1)[0])
        assert served["repaired"] is True
        counters = service.counters()
        assert counters["target_tree_searches"] == 1
        assert counters["target_tree_nodes_visited"] > 0
        assert counters["target_tree_vectors"] > 0
        assert "target_tree_edist_hits" in counters

    def test_traced_runs_normalize_equal(self):
        """Latency and queue-wait counters are timing: normalized() zeroes
        them, so two traced runs of the same requests compare equal."""

        def traced_run():
            tracer = Tracer("serve")
            dirty = citizens_dirty()
            with activate(tracer):
                service = RepairService()
                service.fit(
                    citizens_clean(), CITIZENS_FDS,
                    thresholds=CITIZENS_THRESHOLDS, absorb=True,
                )

                async def scenario():
                    async with service:
                        for tid in range(10):
                            await service.repair(dirty.as_record(tid))

                run(scenario())
            return build_report(
                tracer, operation="serve", config={}, relation=dirty
            )

        first, second = traced_run(), traced_run()
        assert first.counters["latency_count"] == 10
        assert first.normalized().to_dict() == second.normalized().to_dict()

    def test_snapshot_shape(self):
        service = RepairService()
        key = service.fit(
            citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )
        snapshot = service.snapshot()
        assert snapshot["models"] == [key]
        assert snapshot["config"]["batch_size"] == 64
        assert "latency_histogram" in snapshot

    def test_attach_model_holds_the_repairer(self):
        fitted = IncrementalRepairer(
            CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        ).fit(citizens_clean())
        service = RepairService()
        key = service.attach_model(fitted, key="tenant-a")
        assert key == "tenant-a"
        assert service.model("tenant-a") is fitted

    def test_attach_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            RepairService().attach_model(IncrementalRepairer(CITIZENS_FDS))

    def test_bad_record_fails_only_its_request(self):
        """good, bad, good in one micro-batch: only the bad one fails."""
        service = RepairService(ServeConfig(batch_timeout=0.05))
        service.fit(
            citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )
        good = dict(citizens_clean().as_record(0))
        bad = dict(good, Level="three")

        async def scenario():
            async with service:
                return await asyncio.gather(
                    *(service.repair(r) for r in (good, bad, good)),
                    return_exceptions=True,
                )

        first, failed, last = run(scenario())
        assert isinstance(failed, InvalidRecordError)
        assert first["record"] == last["record"] == good
        counters = service.counters()
        assert counters["serve_batches"] == 1
        assert counters["serve_records_seen"] == 2


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
class TestServeHTTP:
    @staticmethod
    def _request(base, path, data=None):
        request = urllib.request.Request(
            base + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())

    def test_endpoints(self):
        service = RepairService(ServeConfig(port=0))
        key = service.fit(
            citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
        )
        record = citizens_clean().as_record(0)
        dirty = dict(record)
        dirty["City"] = dirty["City"][:-1] + "x"

        async def scenario():
            http = ServeHTTP(service)
            host, port = await http.start()
            base = f"http://{host}:{port}"
            loop = asyncio.get_running_loop()

            def fetch(path, data=None):
                return self._request(base, path, data)

            def fetch_error(path, data=None):
                try:
                    self._request(base, path, data)
                except urllib.error.HTTPError as exc:
                    return exc.code
                return None

            try:
                status, health = await loop.run_in_executor(
                    None, fetch, "/healthz"
                )
                assert status == 200 and health["models"] == [key]

                status, served = await loop.run_in_executor(
                    None,
                    fetch,
                    "/repair",
                    json.dumps({"record": dirty}).encode(),
                )
                assert status == 200
                assert served["repaired"] is True
                assert served["record"]["City"] == record["City"]

                status, bulk = await loop.run_in_executor(
                    None,
                    fetch,
                    "/repair",
                    json.dumps({"records": [record, dirty]}).encode(),
                )
                assert status == 200 and len(bulk["results"]) == 2

                status, stats = await loop.run_in_executor(
                    None, fetch, "/stats"
                )
                assert status == 200
                assert stats["counters"]["serve_requests"] == 3

                assert (
                    await loop.run_in_executor(
                        None, fetch_error, "/repair", b"{not json"
                    )
                    == 400
                )
                assert (
                    await loop.run_in_executor(
                        None,
                        fetch_error,
                        "/repair",
                        json.dumps(
                            {"record": dict(record, Level="three")}
                        ).encode(),
                    )
                    == 400
                )
                assert (
                    await loop.run_in_executor(
                        None,
                        fetch_error,
                        "/repair",
                        json.dumps(
                            {"record": record, "model": "ghost"}
                        ).encode(),
                    )
                    == 404
                )
                assert (
                    await loop.run_in_executor(
                        None, fetch_error, "/nowhere"
                    )
                    == 404
                )
                assert (
                    await loop.run_in_executor(
                        None,
                        fetch_error,
                        "/healthz",
                        b"{}",  # POST to a GET endpoint
                    )
                    == 405
                )
            finally:
                await http.stop()

        run(scenario())
