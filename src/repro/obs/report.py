"""Structured run reports: one JSON document per traced run.

A :class:`RunReport` bundles everything needed to understand where a
repair run spent its time and what it produced:

* the **span tree** (hierarchical phases with wall seconds and
  attributes, see :mod:`repro.obs.trace`),
* the **unified counters** (the merged scalar view over every
  registered :class:`~repro.obs.counters.CounterRegistry` — the same
  storage the :class:`~repro.exec.stats.ExecutionStats` exposes),
* the **config** that produced the run (JSON-sanitized
  :class:`~repro.exec.config.RepairConfig`),
* a **dataset fingerprint** (row/attribute counts plus a content hash,
  so two reports are comparable only when they ran the same input),
* a **result digest** (edit count, cost, and the repair-output hash,
  see :func:`repair_output_hash`),
* peak-RSS samples.

Reports serialize to/from JSON losslessly (``to_json`` /
``from_json``); :meth:`RunReport.normalized` zeroes the span wall
clocks, the RSS samples and every counter whose schema kind is
``timing`` (``repro.obs.counters``) so two runs with the same seed
compare equal — the determinism contract ``tests/test_run_report.py``
pins down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs.counters import lookup
from repro.obs.trace import Tracer

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# JSON sanitization
# ----------------------------------------------------------------------
def jsonable(value: Any) -> Any:
    """Best-effort conversion of *value* into JSON-native types.

    Mappings keyed by rich objects (e.g. per-FD thresholds) use the
    object's ``name`` when it has one; sets are sorted for determinism;
    dataclasses flatten to field dicts; anything else falls back to
    ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {
            str(getattr(key, "name", key)): jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=str)
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


# ----------------------------------------------------------------------
# Fingerprints and hashes
# ----------------------------------------------------------------------
#: rows hashed into a dataset fingerprint; larger relations are sampled
#: with a fixed stride so the fingerprint costs O(1) per traced run
#: instead of taxing every repair with a full-table scan
_FINGERPRINT_SAMPLE = 128


def dataset_fingerprint(relation: Any) -> Dict[str, Any]:
    """Shape + content hash of a relation (order-sensitive, seed-stable).

    The hash covers the schema, the exact row count, and an
    evenly-strided sample of at most :data:`_FINGERPRINT_SAMPLE` rows
    (every row for small relations). Sampling keeps tracing overhead
    flat in relation size while still pinning the identity of a
    generated workload: any reseed or regeneration perturbs sampled
    rows, and any size change alters the count term.
    """
    n = len(relation)
    names = tuple(relation.schema.names)
    stride = max(1, -(-n // _FINGERPRINT_SAMPLE))  # ceil division
    row = relation.row
    body = "\x1e".join(
        "\x1f".join(map(str, row(tid))) for tid in range(0, n, stride)
    )
    digest = hashlib.sha256()
    digest.update(f"{n}\x1f{stride}\x1f".encode())
    digest.update("\x1f".join(names).encode())
    digest.update(b"\x1e")
    digest.update(body.encode())
    return {
        "rows": n,
        "attributes": list(names),
        "sha256": digest.hexdigest()[:16],
    }


def repair_output_hash(edits: Any, cost: float) -> str:
    """Stable hash of a repair's observable output (edits + cost).

    Tier-1 pins it for every algorithm on the 800-tuple HOSP slice
    (``tests/test_substrate_hashes.py``): a perf win that silently
    changes repairs is a correctness regression, not an optimization.
    """
    digest = hashlib.sha256()
    rows = sorted(
        (edit.tid, edit.attribute, repr(edit.old), repr(edit.new))
        for edit in edits
    )
    digest.update(repr(rows).encode())
    digest.update(f"{cost:.9f}".encode())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """One traced run, JSON-serializable and diffable."""

    operation: str
    spans: Dict[str, Any]
    counters: Dict[str, Any]
    config: Dict[str, Any]
    dataset: Dict[str, Any]
    result: Dict[str, Any] = field(default_factory=dict)
    rss: Dict[str, Optional[int]] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "operation": self.operation,
            "config": self.config,
            "dataset": self.dataset,
            "result": self.result,
            "counters": self.counters,
            "rss": self.rss,
            "spans": self.spans,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        return cls(
            operation=str(data.get("operation", "repair")),
            spans=dict(data.get("spans", {})),
            counters=dict(data.get("counters", {})),
            config=dict(data.get("config", {})),
            dataset=dict(data.get("dataset", {})),
            result=dict(data.get("result", {})),
            rss=dict(data.get("rss", {})),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def iter_spans(self) -> Iterator[Dict[str, Any]]:
        """Every span dict of the tree, depth-first from the root."""
        stack: List[Dict[str, Any]] = [self.spans] if self.spans else []
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.get("children", ())))

    def span_names(self) -> List[str]:
        """Distinct span names, in first-seen (depth-first) order."""
        seen: Dict[str, None] = {}
        for node in self.iter_spans():
            seen.setdefault(str(node.get("name")), None)
        return list(seen)

    def phase_totals(self) -> Dict[str, float]:
        """Span name -> summed wall seconds over the whole tree.

        The per-phase timing table the CLI ``--trace`` summary and the
        nightly bench's ``$GITHUB_STEP_SUMMARY`` render.
        """
        totals: Dict[str, float] = {}
        for node in self.iter_spans():
            name = str(node.get("name"))
            totals[name] = totals.get(name, 0.0) + float(
                node.get("seconds", 0.0)
            )
        return totals

    def total_seconds(self) -> float:
        """Wall seconds of the root span."""
        return float(self.spans.get("seconds", 0.0)) if self.spans else 0.0

    # ------------------------------------------------------------------
    def normalized(self) -> "RunReport":
        """A copy with every wall clock, RSS sample and ``timing`` counter
        (span attributes included) zeroed.

        Two traced runs of the same config, seed, and dataset produce
        equal normalized reports — the determinism contract.
        """

        def scrub_mapping(mapping: Dict[str, Any]) -> Dict[str, Any]:
            return {
                key: (0 if _is_timing(key) else value)
                for key, value in mapping.items()
            }

        def scrub_span(node: Dict[str, Any]) -> Dict[str, Any]:
            out = dict(node)
            out["seconds"] = 0.0
            if "attributes" in out:
                out["attributes"] = scrub_mapping(dict(out["attributes"]))
            if "children" in out:
                out["children"] = [scrub_span(c) for c in out["children"]]
            return out

        return RunReport(
            operation=self.operation,
            spans=scrub_span(self.spans) if self.spans else {},
            counters=scrub_mapping(dict(self.counters)),
            config=dict(self.config),
            dataset=dict(self.dataset),
            result=dict(self.result),
            rss={key: None for key in self.rss},
            schema_version=self.schema_version,
        )


def _is_timing(name: str) -> bool:
    counter = lookup(name)
    return counter is not None and counter.kind == "timing"


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_report(
    tracer: Tracer,
    *,
    operation: str,
    config: Any,
    relation: Any,
    result: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Assemble the :class:`RunReport` of a finished tracer.

    *config* may be a :class:`~repro.exec.config.RepairConfig` (its
    ``to_dict`` is used) or any mapping; *result* is the caller's digest
    of the run's output (edit counts, cost, output hash).
    """
    tracer.finish()
    config_dict = config.to_dict() if hasattr(config, "to_dict") else dict(config)
    return RunReport(
        operation=operation,
        spans=tracer.serialize(),
        counters=jsonable(tracer.counters()),
        config=jsonable(config_dict),
        dataset=dataset_fingerprint(relation),
        result=jsonable(result or {}),
        rss={
            "start_bytes": tracer.rss_start,
            "peak_bytes": tracer.rss_peak,
        },
    )


def format_phase_table(report: RunReport, limit: int = 20) -> str:
    """A small fixed-width phase-timing table (CLI / step summaries)."""
    totals = sorted(
        report.phase_totals().items(), key=lambda item: -item[1]
    )[:limit]
    width = max((len(name) for name, _ in totals), default=5)
    lines = [f"{'phase'.ljust(width)}  seconds"]
    for name, seconds in totals:
        lines.append(f"{name.ljust(width)}  {seconds:8.4f}")
    return "\n".join(lines)
