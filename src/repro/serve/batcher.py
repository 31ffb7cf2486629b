"""Dynamic micro-batching: coalesce concurrent requests into one forward.

The batch dimension of the conv trunk is nearly free in the numpy
kernels, so the cheapest way to serve N concurrent requests is one
stacked ``(N, C, G, G)`` forward instead of N sequential ones.  The
coalescing policy is the classic **max-batch / max-delay** pair:

* a request never waits more than ``max_delay`` seconds for company
  (the latency floor a lone request pays at low load), and
* a batch never exceeds ``max_batch`` rows (bounding per-batch latency
  and keeping the plan-signature set small at high load).

At saturation batches fill instantly and the delay timer never fires —
throughput approaches ``max_batch × forward_rate`` while the timer only
shapes the low-load tail.

Admission control is a hard bound on *queued + in-flight* rows: past
``max_pending`` the submit raises :class:`Overloaded` (surfaced as a
503-style reject with a ``retry_after`` hint) instead of growing an
unbounded queue — shedding load early keeps the latency of accepted
requests bounded, and the PR 1-style client folds the hint into its
retry backoff.

The batcher is pure asyncio bookkeeping; the actual forward (a blocking
worker-pool round-trip) runs on executor threads via
``loop.run_in_executor``, never on the event loop.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

from .protocol import InferError, InferRequest, InferResult, Overloaded, RequestError

__all__ = ["MicroBatcher"]

Dispatch = Callable[[Sequence[InferRequest]], List[object]]


class MicroBatcher:
    """Coalesce ``submit()`` calls into ``dispatch()`` batches.

    Parameters
    ----------
    dispatch:
        Blocking callable mapping a request batch to its results; runs
        on ``executor`` threads (one thread per pool worker gives full
        worker parallelism).
    on_batch:
        Optional hook called with each dispatched batch size (metrics).
    """

    def __init__(
        self,
        dispatch: Dispatch,
        executor,
        max_batch: int = 8,
        max_delay: float = 0.002,
        max_pending: int = 64,
        on_batch: Optional[Callable[[int], None]] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self._dispatch = dispatch
        self._executor = executor
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.max_pending = int(max_pending)
        self._on_batch = on_batch
        self._pending: List[Tuple[InferRequest, asyncio.Future]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight = 0
        self._tasks: set = set()
        self._closed = False
        self.submitted = 0
        self.rejected = 0
        self.batches = 0

    @property
    def depth(self) -> int:
        """Rows admitted but not yet answered (queued + in-flight)."""
        return len(self._pending) + self._inflight

    def submit(self, request: InferRequest) -> "Awaitable[InferResult]":
        """Queue one request; resolves with its result (event loop only)."""
        if self._closed:
            raise Overloaded(self.depth, retry_after=1.0)
        if self.depth >= self.max_pending:
            self.rejected += 1
            # A full queue drains one batch per forward; suggest waiting
            # roughly one coalescing window before retrying.
            raise Overloaded(self.depth, retry_after=max(self.max_delay, 0.01))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        self.submitted += 1
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay, self._flush)
        return future

    def _flush(self) -> None:
        """Dispatch everything pending, in max_batch-sized chunks."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        while self._pending:
            chunk = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._inflight += len(chunk)
            self.batches += 1
            if self._on_batch is not None:
                self._on_batch(len(chunk))
            task = asyncio.get_running_loop().create_task(self._run(chunk))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run(self, chunk: List[Tuple[InferRequest, asyncio.Future]]) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, __ in chunk]
        try:
            results = await loop.run_in_executor(
                self._executor, self._dispatch, requests
            )
            for (__, future), result in zip(chunk, results):
                if future.done():
                    continue
                if isinstance(result, InferError):
                    # A bad row fails alone; its chunk-mates got results.
                    future.set_exception(RequestError(result.error))
                else:
                    future.set_result(result)
        except Exception as error:
            for __, future in chunk:
                if not future.done():
                    future.set_exception(error)
        finally:
            self._inflight -= len(chunk)

    async def drain(self) -> None:
        """Wait for every admitted request to finish (shutdown path)."""
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Stop admitting, then drain what was already accepted."""
        self._closed = True
        await self.drain()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def stats(self) -> dict:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "batches": self.batches,
            "depth": self.depth,
        }
