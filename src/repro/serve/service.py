"""The repair service: models + micro-batching + latency accounting.

:class:`RepairService` is the transport-independent core of
``repro.serve`` (the HTTP layer in :mod:`repro.serve.http` is a thin
adapter over it):

* **models** — fitted :class:`~repro.core.incremental.IncrementalRepairer`
  instances, either attached directly or fitted through the
  fingerprint-keyed :class:`~repro.serve.cache.ModelCache` so repeated
  tenants skip the fit entirely;
* **micro-batching** — requests flow through a
  :class:`~repro.serve.batching.MicroBatcher`; the batch handler runs
  the per-record repair under a ``serve.batch`` span, and a record
  that fails fails only its own request;
* **latency** — every request's end-to-end latency and queue wait land
  in a :class:`~repro.serve.latency.LatencyRecorder`; p50/p95/p99 and
  the queue-depth gauge surface as ``repro.obs`` counters (the service
  registers a live :class:`~repro.obs.CounterRegistry` with the active
  tracer) and through :meth:`RepairService.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import Weights
from repro.core.incremental import IncrementalRepairer, NotFittedError
from repro.dataset.relation import Relation
from repro.obs import CounterRegistry, current_tracer, span
from repro.serve.batching import MicroBatcher, ServiceOverloadedError
from repro.serve.cache import ModelCache
from repro.serve.latency import LatencyRecorder

DEFAULT_MODEL = "default"


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving process (see ``docs/serving.md``).

    ``batch_size`` / ``batch_timeout`` bound each micro-batch: under
    load batches fill to ``batch_size`` instantly; when idle a lone
    request waits at most ``batch_timeout`` seconds. ``queue_limit`` is
    the backpressure bound (full queue → 503). ``cache_capacity`` sizes
    the LRU model cache across tenants.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    batch_size: int = 64
    batch_timeout: float = 0.002
    queue_limit: int = 2048
    cache_capacity: int = 8

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_timeout < 0:
            raise ValueError("batch_timeout must be >= 0")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


class UnknownModelError(KeyError):
    """A request referenced a model key this service does not hold."""


class RepairService:
    """Stateful repair-as-a-service core (transport-independent).

    >>> import asyncio
    >>> from repro.dataset.citizens import (
    ...     CITIZENS_FDS, CITIZENS_THRESHOLDS, citizens_clean)
    >>> service = RepairService()
    >>> _ = service.fit(
    ...     citizens_clean(), CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS)
    >>> async def one():
    ...     async with service:
    ...         record = citizens_clean().as_record(0)
    ...         return await service.repair(record)
    >>> asyncio.run(one())["repaired"]
    False
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: Optional[ModelCache] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = cache or ModelCache(capacity=self.config.cache_capacity)
        self.latency = LatencyRecorder()
        self._models: Dict[str, IncrementalRepairer] = {}
        self._default_key: Optional[str] = None
        self.batcher = MicroBatcher(
            self._handle_batch,
            batch_size=self.config.batch_size,
            batch_timeout=self.config.batch_timeout,
            queue_limit=self.config.queue_limit,
            recorder=self.latency,
        )
        #: live obs view: refreshed by snapshot(), registered with the
        #: ambient tracer at start() so latency quantiles and the
        #: queue-depth gauge land in run reports
        self.obs = CounterRegistry()
        self._registered_with = None

    # -- model management ----------------------------------------------
    def fit(
        self,
        relation: Relation,
        fds: Sequence[FD],
        thresholds=None,
        weights: Weights = Weights(),
        absorb: bool = False,
    ) -> str:
        """Fit (or fetch from the cache) and attach a model; returns its key."""
        key, model = self.cache.get_or_fit(
            relation, fds, thresholds=thresholds, weights=weights,
            absorb=absorb,
        )
        self._models[key] = model
        if self._default_key is None:
            self._default_key = key
        return key

    def attach_model(
        self,
        model: IncrementalRepairer,
        key: str = DEFAULT_MODEL,
    ) -> str:
        """Attach an already-fitted model under *key* (bypasses the cache)."""
        if not model.is_fitted:
            raise NotFittedError("fit() the repairer before attaching it")
        self._models[key] = model
        if self._default_key is None:
            self._default_key = key
        return key

    def model(self, key: Optional[str] = None) -> IncrementalRepairer:
        """The model for *key* (default model when ``None``)."""
        if key is None:
            key = self._default_key
        if key is None or key not in self._models:
            raise UnknownModelError(key or "<no model attached>")
        return self._models[key]

    @property
    def model_keys(self) -> List[str]:
        return list(self._models)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Start the drain loop; register obs counters with the tracer."""
        self.batcher.start()
        tracer = current_tracer()
        if tracer is not None and self._registered_with is not tracer:
            tracer.register(self.obs)
            self._registered_with = tracer

    async def stop(self) -> None:
        await self.batcher.stop()
        self.refresh_obs()

    async def __aenter__(self) -> "RepairService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- serving --------------------------------------------------------
    async def repair(
        self,
        record: Mapping[str, Any],
        model: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Repair one record through the micro-batched serve path.

        Returns ``{"record", "edits", "repaired", "model"}`` where
        ``edits`` is a JSON-safe list of cell edits. Raises
        :class:`ServiceOverloadedError` under backpressure,
        :class:`UnknownModelError` for a bad model key, and
        :class:`~repro.core.incremental.InvalidRecordError` for a record
        the model cannot take.
        """
        key = model if model is not None else self._default_key
        if key is None or key not in self._models:
            raise UnknownModelError(key or "<no model attached>")
        return await self.batcher.submit((key, dict(record)))

    def repair_sync(
        self, record: Mapping[str, Any], model: Optional[str] = None
    ) -> Dict[str, Any]:
        """Synchronous single-record path (no batching; CLI/tests)."""
        repaired, edits = self.model(model).repair_record(dict(record))
        return self._result(model or self._default_key, repaired, edits)

    @staticmethod
    def _result(
        key: Optional[str], repaired: Dict[str, Any], edits: List
    ) -> Dict[str, Any]:
        return {
            "model": key,
            "record": repaired,
            "repaired": bool(edits),
            "edits": [
                {
                    "attribute": edit.attribute,
                    "old": edit.old,
                    "new": edit.new,
                }
                for edit in edits
            ],
        }

    def _handle_batch(
        self, items: List[Tuple[str, Dict[str, Any]]]
    ) -> List[Any]:
        """Repair one micro-batch (runs on the event loop).

        A record whose repair raises gets its exception in place of a
        result, so it fails its own request and no other.
        """
        with span("serve.batch", size=len(items)):
            results: List[Any] = []
            for key, record in items:
                try:
                    repaired, edits = self._models[key].repair_record(record)
                except Exception as exc:  # noqa: BLE001 — this request only
                    results.append(exc)
                    continue
                results.append(self._result(key, repaired, edits))
            return results

    # -- observability --------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        """Flat counter mapping across every serve subsystem."""
        out: Dict[str, Any] = {}
        out.update(self.batcher.counters())
        out.update(self.cache.counters())
        out.update(self.latency.snapshot())
        seen = repaired = absorbed = 0
        for model in self._models.values():
            for counters in (
                model.counters,
                model.tree_counters(),
                model.memo_counters(),
            ):
                for name, value in counters.items():
                    out[name] = out.get(name, 0) + value
            seen += model.records_seen
            repaired += model.records_repaired
            absorbed += model.records_absorbed
        out["serve_records_seen"] = seen
        out["serve_records_repaired"] = repaired
        out["serve_records_absorbed"] = absorbed
        return out

    def refresh_obs(self) -> Dict[str, Any]:
        """Refresh the registered obs registry with current values."""
        counters = self.counters()
        for name, value in counters.items():
            self.obs.set(name, value)
        return counters

    def snapshot(self) -> Dict[str, Any]:
        """Structured stats for ``/stats`` and the benchmark."""
        counters = self.refresh_obs()
        return {
            "models": self.model_keys,
            "config": {
                "batch_size": self.config.batch_size,
                "batch_timeout": self.config.batch_timeout,
                "queue_limit": self.config.queue_limit,
                "cache_capacity": self.config.cache_capacity,
            },
            "counters": counters,
            "latency_histogram": self.latency.histogram(),
        }


__all__ = [
    "DEFAULT_MODEL",
    "RepairService",
    "ServeConfig",
    "ServiceOverloadedError",
    "UnknownModelError",
]
