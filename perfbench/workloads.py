"""The three benchmark workloads: input generation, set-up, one timed pass.

Every workload runs in one process on one thread (``n_jobs=1``, no
sockets). Its input is generated from the seed by a separate process and
written to CSV before anything is timed; the measured process only reads
that file. See ``perfbench/README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import random
import string
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

#: The entity catalogs (master tables) are generated from CATALOG_SEED and
#: stay the same for every run; --seed draws the rows and the noise.
CATALOG_SEED = 0
#: Tax: a batch of extracts under one dense entity catalog (a constant
#: active domain). README "Why these sizes" explains 4 x 300 rows.
TAX_PARTS, TAX_ROWS = 4, 300
TAX_CATALOG = (400, 300, 40)  # residences, employers, filings
#: HOSP: one noisy instance repaired by exact-m
HOSP_PARTS, HOSP_ROWS = 1, 1000
HOSP_CATALOG = (HOSP_ROWS // 40, HOSP_ROWS // 50)  # facilities, measures
#: the exact-m cost at DEFAULT_SEED: an upper bound, not a proven optimum,
#: so a search that finds a cheaper valid repair still passes (README
#: "Output checks")
DEFAULT_SEED = 0
HOSP_DEFAULT_COST = 276.0642941573796
#: the serving catalog: reference rows over distinct codes, requests served
#: per pass by a closed loop of callers. As many callers as a batch holds,
#: so every batch fills at once and none waits out ``batch_timeout``.
SERVE_CODES = 400
SERVE_CATEGORIES = 40
SERVE_ROWS = 4000
SERVE_REQUESTS = 4000
SERVE_CALLERS = 32
#: the share of requests that carry a one-character typo; the rest are
#: clean copies of catalog entities (the ``benchmarks/_serve_bench.py``
#: catalog scenario)
SERVE_DIRTY_SHARE = 0.10
SERVE_TAU = 0.15
SERVE_BATCH = {"batch_size": 32, "batch_timeout": 0.001}
#: the noise RNG is seeded apart from the clean generator
NOISE_SEED_OFFSET = 1_000_003


def _write_inputs(workdir: Path, relations, **extra: Any) -> None:
    """One CSV per relation plus ``meta.json`` (fingerprints, numeric columns)."""
    from repro.dataset import write_csv
    from repro.dataset.relation import NUMERIC
    from repro.obs.report import dataset_fingerprint

    for part, relation in enumerate(relations):
        write_csv(relation, workdir / f"input-{part}.csv")
    meta = {
        "rows": sum(len(r) for r in relations),
        "numeric": [a.name for a in relations[0].schema if a.kind == NUMERIC],
        "fingerprints": [dataset_fingerprint(r) for r in relations],
        **extra,
    }
    (workdir / "meta.json").write_text(json.dumps(meta))


def _read_inputs(workdir: Path, meta: Dict[str, Any]) -> list:
    from repro.api import read_csv

    return [read_csv(workdir / f"input-{part}.csv", numeric=meta["numeric"])
            for part in range(len(meta["fingerprints"]))]


def _clear_process_caches() -> None:
    """Start a pass as cold as a fresh process would (distance memo)."""
    try:
        from repro.exec.cache import clear_worker_caches
    except ImportError:  # the program no longer keeps a process-wide memo
        return
    clear_worker_caches()


class BatchWorkload:
    """One ``Repairer.repair_many`` over the generated relations per pass
    (a batch of one relation is exactly ``Repairer.repair``)."""

    def __init__(self, dataset: str, algorithm: str, parts: int, rows: int,
                 expected_cost: Optional[float] = None) -> None:
        self.dataset = dataset
        self.algorithm = algorithm
        self.parts = parts
        self.rows = rows
        self.expected_cost = expected_cost

    # -- input ---------------------------------------------------------
    def _generator(self):
        if self.dataset == "tax":
            from repro.generator import tax

            return tax.TAX_FDS, tax.tax_thresholds, (
                lambda: tax.tax_catalog(*TAX_CATALOG, rng=CATALOG_SEED))
        from repro.generator import hosp

        return hosp.HOSP_FDS, hosp.hosp_thresholds, (
            lambda: hosp.hosp_catalog(*HOSP_CATALOG, rng=CATALOG_SEED))

    def generate(self, seed: int, workdir: Path) -> None:
        from repro.generator.noise import NoiseConfig, inject_noise

        fds, _, make_catalog = self._generator()
        catalog = make_catalog()
        relations = []
        for part in range(self.parts):
            part_seed = seed * self.parts + part
            clean = catalog.generate(self.rows, rng=part_seed)
            dirty, _ = inject_noise(clean, fds, NoiseConfig(),
                                    rng=part_seed + NOISE_SEED_OFFSET)
            relations.append(dirty)
        _write_inputs(workdir, relations)

    # -- set-up (timed as setup_s) -------------------------------------
    def setup(self, workdir: Path, meta: Dict[str, Any]) -> None:
        from repro.api import RepairConfig, Repairer, Weights

        fds, thresholds, _ = self._generator()
        self.relations = _read_inputs(workdir, meta)
        weights = Weights(0.5, 0.5)
        self.config = RepairConfig(
            algorithm=self.algorithm,
            weights=weights,
            thresholds=thresholds(weights=weights),
            fallback="greedy",
            n_jobs=1,
        )
        self.repairer = Repairer(fds, config=self.config)

    def load_requests(self, workdir: Path) -> None:
        pass

    # -- one timed pass --------------------------------------------------
    def run_pass(self, recorder=None) -> Dict[str, Any]:
        _clear_process_caches()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if recorder is None:
                results = self.repairer.repair_many(self.relations)
            else:
                with recorder.span("repair"):
                    results = self.repairer.repair_many(self.relations)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        from repro.obs.report import repair_output_hash

        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "items": sum(len(r) for r in self.relations),
            "operations": sum(int(r.stats.get("fd_components", 0)) for r in results),
            "failed": sum(len(r.stats.degraded_components) for r in results),
            "warnings": len(caught),
            "cost": sum(r.cost for r in results),
            "output_hash": [repair_output_hash(r.edits, r.cost) for r in results],
            "stats": [dict(r.stats) for r in results],
            "results": results,
        }

    # -- output check (untimed) ------------------------------------------
    def check(self, first: Dict[str, Any], seed: int) -> Dict[str, Any]:
        """FT-consistency, closed-world validity and the cost pin."""
        from repro.api import Repairer

        detector = Repairer(self.repairer.fds,
                            config=self.config.merged(join_strategy="vectorized"))
        checks = {
            "exhaustive": [s.get("exhaustive") for s in first["stats"]],
            "violations_after_repair": 0,
            "edits": 0,
            "edited_values_not_in_input": 0,
            "edited_projections_not_in_input": 0,
        }
        for relation, result in zip(self.relations, first["results"]):
            for key, value in _validity(detector, relation, result).items():
                checks[key] += value
        ok = all(checks[key] == 0 for key in (
            "violations_after_repair", "edited_values_not_in_input",
            "edited_projections_not_in_input"))
        if self.expected_cost is not None and seed == DEFAULT_SEED:
            checks["cost_upper_bound"] = self.expected_cost
            ok = ok and (first["cost"] <= self.expected_cost or math.isclose(
                first["cost"], self.expected_cost, rel_tol=1e-9, abs_tol=1e-9))
        checks["ok"] = ok
        return checks


def _validity(detector, relation, result) -> Dict[str, int]:
    """Violations left after the repair and edits outside the closed world."""
    from repro.core.repair import apply_edits

    repaired = apply_edits(relation, result.edits)
    names = relation.schema.names
    columns = {a: set() for a in names}
    for row in relation:
        for attr, value in zip(names, row):
            columns[attr].add(value)
    # the paper's valid tuple repair: each edited tuple's projection on
    # every FD already occurs in the input
    edited = sorted({edit.tid for edit in result.edits})
    invalid_projections = 0
    for fd in detector.fds:
        indexes = fd.bind(relation.schema).indexes
        seen = {relation.project_indexes(t, indexes) for t in relation.tids()}
        invalid_projections += sum(
            1 for t in edited if repaired.project_indexes(t, indexes) not in seen)
    return {
        "violations_after_repair": detector.detect(repaired).total_violations,
        "edits": len(result.edits),
        "edited_values_not_in_input": sum(
            1 for e in result.edits if e.new not in columns[e.attribute]),
        "edited_projections_not_in_input": invalid_projections,
    }


class ServeWorkload:
    """An in-process ``RepairService`` with ``absorb=True`` under a closed
    loop of callers; one pass serves the whole request stream once."""

    @staticmethod
    def _fds():
        from repro.api import FD

        fds = [FD.parse("code -> name", name="f1"),
               FD.parse("code -> category", name="f2")]
        return fds, {fd: SERVE_TAU for fd in fds}

    # -- input ---------------------------------------------------------
    def generate(self, seed: int, workdir: Path) -> None:
        from repro.dataset import Relation, Schema

        def token(n: int, rng: random.Random) -> str:
            return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))

        catalog_rng = random.Random(CATALOG_SEED)
        codes = [token(12, catalog_rng) for _ in range(SERVE_CODES)]
        names = [token(14, catalog_rng) for _ in range(SERVE_CODES)]
        categories = [token(10, catalog_rng) for _ in range(SERVE_CATEGORIES)]
        rng = random.Random(seed)

        def entity(j: int) -> Dict[str, str]:
            return {"code": codes[j], "name": names[j],
                    "category": categories[j % SERVE_CATEGORIES]}

        rows = [tuple(entity(rng.randrange(SERVE_CODES)).values())
                for _ in range(SERVE_ROWS)]
        relation = Relation(Schema.of("code", "name", "category"), rows)

        # an exact share, shuffled: the seed moves where the typos fall in
        # the stream, not how many there are
        dirty = round(SERVE_REQUESTS * SERVE_DIRTY_SHARE)
        kinds = [True] * dirty + [False] * (SERVE_REQUESTS - dirty)
        rng.shuffle(kinds)
        with open(workdir / "requests.jsonl", "w", encoding="utf-8") as out:
            for is_dirty in kinds:
                record = entity(rng.randrange(SERVE_CODES))
                if is_dirty:
                    attr = rng.choice(["code", "name"])
                    value = record[attr]
                    pos = rng.randrange(len(value))
                    record[attr] = value[:pos] + rng.choice("XYZQW") + value[pos + 1:]
                out.write(json.dumps(record) + "\n")
        _write_inputs(workdir, [relation], requests=SERVE_REQUESTS)

    # -- set-up (timed as setup_s) -------------------------------------
    def setup(self, workdir: Path, meta: Dict[str, Any]) -> None:
        self.relations = _read_inputs(workdir, meta)
        self.relation = self.relations[0]
        self.service = self._fitted_service()

    def _fitted_service(self):
        from repro.api import RepairService, ServeConfig

        fds, thresholds = self._fds()
        service = RepairService(ServeConfig(**SERVE_BATCH))
        service.fit(self.relation, fds, thresholds=thresholds, absorb=True)
        return service

    def load_requests(self, workdir: Path) -> None:
        with open(workdir / "requests.jsonl", encoding="utf-8") as handle:
            self.requests = [json.loads(line) for line in handle]

    # -- one timed pass --------------------------------------------------
    def run_pass(self, recorder=None) -> Dict[str, Any]:
        from repro.api import ServiceOverloadedError

        # absorb mutates the model, so every pass starts from a fresh fit
        # (the set-up's service serves the first pass)
        service = self.service or self._fitted_service()
        self.service = None
        requests = self.requests
        replies: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        latencies = [0.0] * len(requests)
        refused = 0
        cursor = 0

        async def caller() -> None:
            nonlocal cursor, refused
            while cursor < len(requests):
                index = cursor
                cursor += 1
                start = time.perf_counter()
                try:
                    replies[index] = await service.repair(requests[index])
                except ServiceOverloadedError:
                    refused += 1
                latencies[index] = time.perf_counter() - start

        async def stream() -> tuple:
            async with service:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                callers = [caller() for _ in range(SERVE_CALLERS)]
                if recorder is None:
                    await asyncio.gather(*callers)
                else:
                    with recorder.span("stream"):
                        await asyncio.gather(*callers)
                return time.perf_counter() - wall0, time.process_time() - cpu0

        gc.collect()
        wall, cpu = asyncio.run(stream())
        ordered = sorted(latencies)
        counters = service.counters()
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "items": len(requests),
            "operations": len(requests),
            "failed": refused,
            "latency_p50_ms": 1000 * _rank(ordered, 0.50),
            "latency_p99_ms": 1000 * _rank(ordered, 0.99),
            "latency_samples": len(ordered),
            "stats": [counters],
            "replies": replies,
        }

    # -- output check (untimed) ------------------------------------------
    def check(self, first: Dict[str, Any], seed: int) -> Dict[str, Any]:
        """Replay the stream through the batch incremental repairer."""
        from repro.api import DistanceModel, IncrementalRepairer

        fds, thresholds = self._fds()
        replay = IncrementalRepairer(fds, thresholds=thresholds,
                                     absorb=True).fit(self.relation)
        model = DistanceModel(self.relation)
        mismatches = 0
        cost = 0.0
        for record, served in zip(self.requests, first["replies"]):
            expect_record, expect_edits = replay.repair_record(dict(record))
            want = [(e.attribute, e.old, e.new) for e in expect_edits]
            got = None if served is None else [
                (e["attribute"], e["old"], e["new"]) for e in served["edits"]]
            if served is None or served["record"] != expect_record or got != want:
                mismatches += 1
            if want:
                attrs = [a for a, _, _ in want]
                cost += model.repair_cost(attrs, tuple(o for _, o, _ in want),
                                          tuple(n for _, _, n in want))
        first["cost"] = cost
        return {"replay_mismatches": mismatches, "ok": mismatches == 0}


def _rank(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


WORKLOADS = {
    "tax-greedy": BatchWorkload("tax", "greedy-m", TAX_PARTS, TAX_ROWS),
    "hosp-exact": BatchWorkload("hosp", "exact-m", HOSP_PARTS, HOSP_ROWS,
                                expected_cost=HOSP_DEFAULT_COST),
    "serve-absorb": ServeWorkload(),
}
