"""The asyncio inference server and its framed-TCP / JSON clients.

Front doors
-----------
* **Framed TCP** (primary): the PR 6 codec, one ``T_CONTROL`` frame per
  message (see :mod:`repro.serve.protocol`).  Connections are
  pipelined — every request frame becomes its own task, so one
  connection's requests coalesce into batches like independent clients —
  and replies leave through a per-connection outbox written once per
  event-loop tick (:class:`_Outbox`), so a burst of replies is one
  socket write and one client wake-up; the read loop waits on
  ``drain()`` between chunks, so a client that stops reading its
  replies stops being read.
* **JSON/HTTP** (thin): the program's one HTTP server,
  :class:`repro.obs.server.ObsServer`, with this server's routes mounted
  on it.  ``POST /infer`` bridges into the event loop with
  ``run_coroutine_threadsafe``; ``POST /-/reload`` hot-swaps the
  checkpoint; ``GET /info`` reports generation, cache and batcher
  counters.  The obs routes come with it: ``/metrics`` and
  ``/metrics.json`` expose this server's registry, ``/trace/summary`` the
  active tracer, ``/healthz`` the fleet report.

Request path: LRU cache (pure in-loop CPU, no await) → micro-batcher
(admission control; raises :class:`Overloaded` → 503 reject) → worker
pool on executor threads.  Every blocking call is off-loaded — the event
loop never waits on a socket, a worker pipe, or checkpoint IO.

Hot reload bumps the cache generation *first*, then broadcasts weights:
batches already in flight finish on the old weights, answer with their
old generation tag, and are refused by the cache — a stale action can be
*returned* (honestly labelled) but never *replayed*.

:class:`ServeClient` is the synchronous client; it folds the server's
503 ``retry_after`` hint into the PR 1-style ``max_retries`` /
``retry_backoff`` schedule the distributed trainer already uses.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from ..distributed.transport.framing import (
    FrameAssembler,
    FrameError,
    T_CONTROL,
)
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.server import ObsServer
from .batcher import MicroBatcher
from .cache import ActionCache
from .engine import load_network_state
from .protocol import (
    InferRequest,
    InferResult,
    Overloaded,
    RequestError,
    decode_message,
    encode_error,
    encode_infer,
    encode_info,
    encode_reject,
    encode_result,
    encode_served,
    request_from_json,
    result_from_payload,
    result_to_json,
    K_ERROR,
    K_INFER,
    K_INFO,
    K_REJECT,
    K_RESULT,
    K_SERVED,
)

_LOG = get_logger(__name__)

__all__ = ["InferenceServer", "ServeClient"]

_BATCH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: How long a closing connection may take to flush what it is owed before
#: its transport is aborted (bounds ``stop()`` against a non-reading peer).
_CLOSE_TIMEOUT_S = 1.0

#: How long an HTTP ``/infer`` or ``/-/reload`` waits on the event loop
#: before the request is cancelled and answered with a 500.
_INFER_TIMEOUT_S = 60.0
_RELOAD_TIMEOUT_S = 300.0


class InferenceServer:
    """Serve one checkpoint's policy over framed TCP + JSON/HTTP.

    Parameters
    ----------
    pool:
        An :class:`~repro.serve.pool.InlinePool` or
        :class:`~repro.serve.pool.ServeWorkerPool` holding the weights.
    http_port:
        ``None`` disables the HTTP front door; ``0`` auto-assigns.
    """

    def __init__(
        self,
        pool,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = 0,
        http_host: str = "127.0.0.1",
        max_batch: int = 8,
        max_delay: float = 0.002,
        max_pending: int = 64,
        cache_size: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._pool = pool
        self._host = host
        self._port_requested = int(port)
        self._http_requested = None if http_port is None else (http_host, int(http_port))
        self.generation = int(pool.generation)
        self.cache = ActionCache(capacity=cache_size)
        self.cache.bump_generation(self.generation)
        # One dispatch thread per pool worker saturates the pool; inline
        # mode shares its single thread with reloads so weight swaps
        # serialize behind in-flight batches (the engine is not
        # thread-safe), while pooled mode reloads on a separate thread
        # and relies on worker leasing for the same ordering.
        self._dispatch_executor = ThreadPoolExecutor(
            max_workers=max(pool.size, 1),
            thread_name_prefix="repro-serve-dispatch",
        )
        if pool.size == 0:
            self._control_executor = self._dispatch_executor
        else:
            self._control_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-control"
            )
        self._batcher = MicroBatcher(
            pool.infer,
            self._dispatch_executor,
            max_batch=max_batch,
            max_delay=max_delay,
            max_pending=max_pending,
            on_batch=self._observe_batch,
        )
        self._geometry: Optional[Tuple[Tuple[int, ...], int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._http: Optional[ObsServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_tasks: set = set()
        self._reload_lock = asyncio.Lock()

        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "Served inference requests by outcome",
            labelnames=("outcome",),
        )
        self._m_latency = registry.histogram(
            "repro_serve_latency_seconds",
            "Request latency from admission to answer",
        )
        self._m_batch = registry.histogram(
            "repro_serve_batch_rows",
            "Rows per dispatched forward batch",
            buckets=_BATCH_BUCKETS,
        )
        self._m_cache = registry.counter(
            "repro_serve_cache_total",
            "Action-cache lookups by result",
            labelnames=("event",),
        )
        self._m_generation = registry.gauge(
            "repro_serve_generation",
            "Checkpoint generation currently being served",
        )
        self._m_depth = registry.gauge(
            "repro_serve_queue_depth",
            "Requests admitted but not yet answered",
        )
        self._m_generation.set(self.generation)

    def _observe_batch(self, size: int) -> None:
        self._m_batch.observe(float(size))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "InferenceServer":
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_conn, self._host, self._port_requested
        )
        if self._http_requested is not None:
            host, port = self._http_requested
            self._http = ObsServer(
                port=port,
                host=host,
                registry=self._registry,
                routes={
                    ("POST", "/infer"): self._http_infer,
                    ("POST", "/-/reload"): self._http_reload,
                    ("GET", "/info"): lambda __: (200, self.info(), {}),
                },
            ).start()
        _LOG.info(
            "serving on tcp://%s:%d%s (generation %d, %s)",
            self._host,
            self.port,
            f" + http://{self.http_address}" if self._http else "",
            self.generation,
            f"{self._pool.size} workers" if self._pool.size else "inline",
        )
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            return self._port_requested
        return self._server.sockets[0].getsockname()[1]

    @property
    def http_address(self) -> Optional[str]:
        return None if self._http is None else self._http.netloc

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: drain accepted work, then release everything."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._batcher.close()
        http, self._http = self._http, None
        if http is not None:
            # stop() blocks until the serve loop exits and joins its
            # thread: off-loop.
            await asyncio.get_running_loop().run_in_executor(None, http.stop)
        await asyncio.get_running_loop().run_in_executor(
            None, self._pool.shutdown
        )
        self._dispatch_executor.shutdown(wait=False)
        if self._control_executor is not self._dispatch_executor:
            self._control_executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _check_geometry(self, request: InferRequest) -> None:
        """Reject shape strays before they poison a coalesced batch."""
        if self._geometry is None:
            return
        shape, workers = self._geometry
        if request.state.shape != shape or request.move_mask.shape[0] != workers:
            raise RequestError(
                f"request geometry (state {request.state.shape}, "
                f"{request.move_mask.shape[0]} workers) does not match the "
                f"served policy (state {shape}, {workers} workers)"
            )

    async def answer(self, request: InferRequest) -> InferResult:
        """Cache → batcher → pool; raises Overloaded / RequestError."""
        start = time.monotonic()
        self._check_geometry(request)
        cached = self.cache.get(request)
        if cached is not None:
            self._m_cache.labels(event="hit").inc()
            self._m_requests.labels(outcome="cached").inc()
            self._m_latency.observe(time.monotonic() - start)
            return cached
        self._m_cache.labels(event="miss").inc()
        try:
            result = await self._batcher.submit(request)
        except Overloaded:
            self._m_requests.labels(outcome="rejected").inc()
            raise
        finally:
            self._m_depth.set(self._batcher.depth)
        if self._geometry is None:
            self._geometry = (request.state.shape, request.move_mask.shape[0])
        self.cache.put(request, result)
        self._m_requests.labels(outcome="ok").inc()
        self._m_latency.observe(time.monotonic() - start)
        return result

    async def reload_checkpoint(self, path: str) -> int:
        """Hot-swap to the checkpoint at ``path``; returns the new generation."""
        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(
            self._control_executor, load_network_state, path
        )
        generation = await self.reload_state(state)
        _LOG.info("hot-reloaded %s as generation %d", path, generation)
        return generation

    async def reload_state(self, state: Dict[str, np.ndarray]) -> int:
        """Hot-swap to an in-memory network state dict (trainer push path)."""
        loop = asyncio.get_running_loop()
        async with self._reload_lock:
            generation = self.generation + 1
            # Invalidate first: old-generation results still in flight
            # must not repopulate the cache.
            self.cache.bump_generation(generation)
            await loop.run_in_executor(
                self._control_executor, self._pool.reload, state, generation
            )
            self.generation = generation
            self._m_generation.set(generation)
            return generation

    def info(self) -> Dict:
        return {
            "generation": self.generation,
            "workers": self._pool.size,
            "max_batch": self._batcher.max_batch,
            "max_delay": self._batcher.max_delay,
            "max_pending": self._batcher.max_pending,
            "cache": self.cache.stats(),
            "batcher": self._batcher.stats(),
        }

    # ------------------------------------------------------------------
    # JSON/HTTP routes (run on the HTTP server's threads, not the loop)
    # ------------------------------------------------------------------
    def _run(self, coroutine, timeout: float):
        """Bridge a coroutine into the event loop from an HTTP thread.

        A coroutine that has not answered within ``timeout`` seconds is
        cancelled, so an abandoned request stops holding batcher and
        pool capacity, and a :class:`TimeoutError` naming the wait is
        raised.
        """
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout)
        except TimeoutError:
            future.cancel()
            raise TimeoutError(f"no answer within {timeout:g} s") from None

    def _http_infer(self, body) -> Tuple[int, Dict, Dict[str, str]]:
        try:
            result = self._run(
                self.answer(request_from_json(body)), timeout=_INFER_TIMEOUT_S
            )
        except RequestError as error:
            return 400, {"error": str(error)}, {}
        except Overloaded as error:
            reply = {
                "error": "overloaded",
                "queue_depth": error.queue_depth,
                "retry_after": error.retry_after,
            }
            return 503, reply, {"Retry-After": f"{error.retry_after:.3f}"}
        except Exception as error:
            # Answered like the TCP door answers it: an error reply, and
            # the request counted, never a dropped connection.
            _LOG.warning("serve request failed", exc_info=True)
            self._m_requests.labels(outcome="error").inc()
            return 500, {"error": f"internal error: {error}"}, {}
        return 200, result_to_json(result), {}

    def _http_reload(self, body) -> Tuple[int, Dict, Dict[str, str]]:
        if not isinstance(body, dict) or "checkpoint" not in body:
            return 400, {"error": "body must carry 'checkpoint'"}, {}
        try:
            generation = self._run(
                self.reload_checkpoint(body["checkpoint"]), timeout=_RELOAD_TIMEOUT_S
            )
        except Exception as error:
            return 500, {"error": str(error)}, {}
        return 200, {"generation": generation}, {}

    # ------------------------------------------------------------------
    # Framed-TCP front door
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        loop = asyncio.get_running_loop()
        assembler = FrameAssembler()
        outbox = _Outbox(writer, loop)
        frame_tasks: set = set()
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    assembler.feed(data)
                    frames = list(assembler.iter_frames())
                except FrameError as error:
                    _LOG.warning("desynced serve connection: %s", error)
                    break
                for ftype, __, payload in frames:
                    if ftype != T_CONTROL:
                        continue
                    frame_task = loop.create_task(
                        self._handle_frame(payload, outbox)
                    )
                    frame_tasks.add(frame_task)
                    frame_task.add_done_callback(frame_tasks.discard)
                # Flow control: a client that stops reading its replies
                # stops being read, so what the server owes it is bounded
                # by the transport's high-water mark plus one chunk.
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if frame_tasks:
                await asyncio.gather(*frame_tasks, return_exceptions=True)
            outbox.flush()  # close() sends what is buffered before closing
            writer.close()
            try:
                # A peer that never reads never lets that buffer flush:
                # past the bound, drop what it is owed and the connection.
                await asyncio.wait_for(writer.wait_closed(), _CLOSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                writer.transport.abort()
            except (ConnectionResetError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _handle_frame(self, payload: bytes, outbox: "_Outbox") -> None:
        seq = -1
        try:
            kind, seq, message = decode_message(payload)
            if kind == K_INFER:
                result = await self.answer(message)
                reply = encode_result(result, seq)
            elif kind == K_INFO:
                reply = encode_served(seq, self.info())
            else:
                reply = encode_error(seq, f"unexpected message kind {kind!r}")
        except Overloaded as error:
            reply = encode_reject(seq, error.queue_depth, error.retry_after)
        except RequestError as error:
            reply = encode_error(seq, str(error))
        except Exception as error:
            _LOG.warning("serve request failed", exc_info=True)
            self._m_requests.labels(outcome="error").inc()
            reply = encode_error(seq, f"internal error: {error}")
        outbox.post(reply)


class _Outbox:
    """One connection's reply frames, written once per event-loop tick.

    Pipelined replies become ready in bursts — a coalesced batch resolves
    all its rows in one tick, a chunk of cache hits answers in one tick —
    and a ``write`` per reply costs a ``send`` syscall, a TCP segment and
    a client wake-up each.  Replies queue here instead and one
    ``call_soon`` callback writes the burst whole, after every task that
    is ready in the same tick has queued its own.
    """

    def __init__(self, writer: asyncio.StreamWriter, loop: asyncio.AbstractEventLoop):
        self._writer = writer
        self._loop = loop
        self._frames: list = []

    def post(self, frame: bytes) -> None:
        if not self._frames:
            self._loop.call_soon(self.flush)
        self._frames.append(frame)

    def flush(self) -> None:
        frames, self._frames = self._frames, []
        # A peer that is gone is owed nothing; writing to its closing
        # transport would only make asyncio log "socket.send() raised".
        if frames and not self._writer.transport.is_closing():
            self._writer.writelines(frames)


class ServeClient:
    """Synchronous framed-TCP client with PR 1-style retry bookkeeping.

    ``timeout`` bounds each socket wait (the trainer's
    ``employee_timeout`` analogue); 503 rejects are retried up to
    ``max_retries`` times, sleeping the larger of the server's
    ``retry_after`` hint and the exponential ``retry_backoff * 2**n``
    schedule the chief uses for employee round-trips.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
    ):
        import socket as _socket

        self._address = (host, int(port))
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self._sock = _socket.create_connection(self._address, timeout=self.timeout)
        self._assembler = FrameAssembler()
        self._seq = 0
        self.retries = 0

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _round_trip(self, frame: bytes, seq: int):
        # The bytes on this socket ARE framed (encode_frame/CRC via the
        # PR 6 codec); the client is deliberately transport-free so it
        # can live in notebooks without chief/worker machinery.
        self._sock.sendall(frame)
        while True:
            for ftype, __, payload in self._assembler.iter_frames():
                if ftype != T_CONTROL:
                    continue
                kind, reply_seq, body = decode_message(payload)
                if reply_seq != seq:
                    continue  # a pipelined sibling's answer
                return kind, body
            data = self._sock.recv(1 << 16)
            if not data:
                raise ConnectionError("serve connection closed mid-request")
            self._assembler.feed(data)

    def infer(
        self,
        state: np.ndarray,
        move_mask: np.ndarray,
        worker_features: np.ndarray,
        greedy: bool = True,
        seed: Optional[int] = None,
    ) -> InferResult:
        request = InferRequest(
            state=np.ascontiguousarray(state, dtype=np.float64),
            move_mask=np.ascontiguousarray(move_mask, dtype=bool),
            worker_features=np.ascontiguousarray(worker_features, dtype=np.float64),
            greedy=greedy,
            seed=seed,
        ).validate()
        return self.infer_request(request)

    def infer_request(self, request: InferRequest) -> InferResult:
        last: Optional[Overloaded] = None
        for attempt in range(self.max_retries + 1):
            self._seq += 1
            kind, body = self._round_trip(
                encode_infer(request, self._seq), self._seq
            )
            if kind == K_RESULT:
                return result_from_payload(body)
            if kind == K_ERROR:
                raise RequestError(body.get("error", "request refused"))
            if kind == K_REJECT:
                last = Overloaded(
                    body.get("queue_depth", -1), body.get("retry_after", 0.0)
                )
                if attempt < self.max_retries:
                    self.retries += 1
                    time.sleep(
                        max(
                            last.retry_after,
                            self.retry_backoff * (2 ** attempt),
                        )
                    )
                continue
            raise ConnectionError(f"unexpected reply kind {kind!r}")
        raise last if last is not None else ConnectionError("no reply")

    def info(self) -> Dict:
        self._seq += 1
        kind, body = self._round_trip(encode_info(self._seq), self._seq)
        if kind != K_SERVED:
            raise ConnectionError(f"unexpected info reply kind {kind!r}")
        return body
