"""Request micro-batching: a bounded queue drained into batches.

One arriving record is cheap to repair but expensive to *dispatch* —
event-loop wakeups, span bookkeeping, per-call overhead. The batcher
amortizes that: requests land in a bounded :class:`asyncio.Queue`; a
single drain task pulls the first request, then keeps collecting until
either ``batch_size`` requests are buffered or ``batch_timeout``
seconds have passed since the batch opened, and hands the whole batch
to the (synchronous) handler in one call. Under load, batches fill
instantly and the timeout never fires; when idle, a lone request waits
at most ``batch_timeout``.

Backpressure is explicit: a full queue rejects the request with
:class:`ServiceOverloadedError` (the HTTP layer maps it to 503) rather
than queueing unbounded work in front of the latency target.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.serve.latency import LatencyRecorder


class ServiceOverloadedError(RuntimeError):
    """The request queue is full; shed load instead of queueing."""


class _Pending:
    """One queued request: payload, future, enqueue timestamp."""

    __slots__ = ("item", "future", "enqueued")

    def __init__(self, item: Any, future: "asyncio.Future") -> None:
        self.item = item
        self.future = future
        self.enqueued = time.perf_counter()


class MicroBatcher:
    """Bounded queue + drain loop feeding a synchronous batch handler.

    Parameters
    ----------
    handler:
        ``handler(items) -> results`` — called with the batched request
        payloads, must return one result per item (same order). An
        exception instance in an item's place fails that request alone;
        an exception the handler raises fails the whole batch. Runs on
        the event loop: a 32-request ``serve-absorb`` batch takes about
        3 ms (90 microseconds a record on a shared 2-vCPU host), and the
        models are thread-confined, so a thread hop would only add latency.
    batch_size:
        Max requests per batch.
    batch_timeout:
        Max seconds a batch stays open waiting to fill.
    queue_limit:
        Bound of the request queue; beyond it, submissions fail fast.
    recorder:
        Optional :class:`LatencyRecorder` — observes end-to-end latency
        (enqueue to result) plus queue wait, and samples queue depth.
    """

    def __init__(
        self,
        handler: Callable[[List[Any]], Sequence[Any]],
        batch_size: int = 64,
        batch_timeout: float = 0.002,
        queue_limit: int = 2048,
        recorder: Optional[LatencyRecorder] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_timeout < 0:
            raise ValueError("batch_timeout must be >= 0")
        self.handler = handler
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.queue_limit = queue_limit
        self.recorder = recorder
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=queue_limit
        )
        self._drain_task: Optional["asyncio.Task"] = None
        self.batches = 0
        self.requests = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain loop on the running event loop."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def stop(self) -> None:
        """Cancel the drain loop and fail any queued requests."""
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceOverloadedError("service is shutting down")
                )

    # ------------------------------------------------------------------
    async def submit(self, item: Any) -> Any:
        """Queue *item* and await its result.

        Raises :class:`ServiceOverloadedError` when the queue is full,
        and re-raises whatever the handler raised for this batch or
        returned in this item's place.
        """
        if self._drain_task is None or self._drain_task.done():
            self.start()
        future: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        pending = _Pending(item, future)
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.rejected += 1
            raise ServiceOverloadedError(
                f"request queue is full ({self.queue_limit})"
            ) from None
        if self.recorder is not None:
            self.recorder.sample_queue_depth(self._queue.qsize())
        return await future

    # ------------------------------------------------------------------
    async def _collect(self) -> List[_Pending]:
        """One batch: first request, then fill until size or timeout."""
        first = await self._queue.get()
        batch = [first]
        deadline = time.perf_counter() + self.batch_timeout
        while len(batch) < self.batch_size:
            try:
                batch.append(self._queue.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), remaining)
                )
            except asyncio.TimeoutError:
                break
        return batch

    async def _drain(self) -> None:
        while True:
            batch = await self._collect()
            self.batches += 1
            self.requests += len(batch)
            started = time.perf_counter()
            try:
                results = self.handler([p.item for p in batch])
            except Exception as exc:  # noqa: BLE001 — relayed per request
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
                continue
            finished = time.perf_counter()
            recorder = self.recorder
            for pending, result in zip(batch, results):
                if isinstance(result, Exception):
                    if not pending.future.done():
                        pending.future.set_exception(result)
                    continue
                if recorder is not None:
                    recorder.observe(
                        finished - pending.enqueued,
                        queue_wait=started - pending.enqueued,
                    )
                if not pending.future.done():
                    pending.future.set_result(result)

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        return {
            "serve_batches": self.batches,
            "serve_requests": self.requests,
            "serve_rejected": self.rejected,
            "serve_batch_mean_size": (
                self.requests / self.batches if self.batches else 0.0
            ),
        }


async def gather_submit(
    batcher: MicroBatcher, items: Sequence[Any]
) -> List[Any]:
    """Submit every item and gather results (bulk-request helper)."""
    return list(
        await asyncio.gather(*(batcher.submit(item) for item in items))
    )


__all__ = [
    "MicroBatcher",
    "ServiceOverloadedError",
    "gather_submit",
]
