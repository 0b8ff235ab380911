"""Repair-as-a-service: async micro-batched serving over fitted models.

The batch pipeline answers "repair this instance"; this package answers
"repair this record, now, again" — the fit-once/repair-many seam of
:class:`~repro.core.incremental.IncrementalRepairer` exposed as a
long-lived service:

* :mod:`repro.serve.cache` — :class:`ModelCache`, fitted models keyed
  by dataset fingerprint + FD-set hash, LRU-evicted;
* :mod:`repro.serve.batching` — :class:`MicroBatcher`, bounded-queue
  request micro-batching with explicit 503 backpressure;
* :mod:`repro.serve.latency` — :class:`LatencyRecorder`, p50/p95/p99
  spans, histogram, and the queue-depth gauge feeding ``repro.obs``;
* :mod:`repro.serve.service` / :mod:`repro.serve.http` — the
  transport-independent :class:`RepairService` core and the stdlib
  asyncio HTTP front-end behind ``repro serve``.

See ``docs/serving.md`` for the walkthrough and
``benchmarks/_serve_bench.py`` for the sustained-load benchmark whose
entries the ``serve`` row of the ``GATES`` table in
``benchmarks/check_all_gates.py`` checks.
"""

from repro.serve.batching import (
    MicroBatcher,
    ServiceOverloadedError,
    gather_submit,
)
from repro.serve.cache import ModelCache, model_key
from repro.serve.http import ServeHTTP, run_server
from repro.serve.latency import LatencyRecorder
from repro.serve.service import (
    DEFAULT_MODEL,
    RepairService,
    ServeConfig,
    UnknownModelError,
)

__all__ = [
    "DEFAULT_MODEL",
    "LatencyRecorder",
    "MicroBatcher",
    "ModelCache",
    "RepairService",
    "ServeConfig",
    "ServeHTTP",
    "ServiceOverloadedError",
    "UnknownModelError",
    "gather_submit",
    "model_key",
    "run_server",
]
