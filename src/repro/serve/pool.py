"""Multi-process inference workers with zero-copy weight broadcast.

Reuses the PR 5 shared-memory machinery: worker processes are
``fork``-started (the initial weights ride the fork for free) and hot
reloads broadcast new weights through one :class:`TensorSlab` — the
parent writes every parameter array once, stamps the slab header with
the new checkpoint generation, and each worker copies the arrays into
its network in place.  N workers see one write, not N pickled copies.

Reload ordering gives the "in-flight batches finish on the old weights"
guarantee structurally: a worker is leased out of a free queue for the
duration of each batch, and :meth:`ServeWorkerPool.reload` leases **all
N workers and holds them** before sending any reload command — a reload
can only reach a worker *between* batches, never under one, and the
free-queue FIFO can never hand the same (already-reloaded) worker out
twice while a busy one is skipped.  Workers read the slab with
``expected_seq == generation``, so a torn or stale slab raises
:class:`SlabStale` instead of loading garbage weights, and a repeated
reload command for a worker's current generation is an idempotent no-op
so a partially-failed reload can simply be retried.

:class:`InlinePool` is the degenerate single-process variant (no slab,
no forks) behind the same interface; the server treats both uniformly
and off-loads their blocking calls to executor threads.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.lockwatch import reset_after_fork as _lockwatch_reset_after_fork
from ..distributed.shm import TensorSlab, slab_name
from ..obs.flight import reset_after_fork as _flight_reset_after_fork
from ..obs.log import get_logger
from ..obs.trace import reset_after_fork as _trace_reset_after_fork
from .engine import PolicyEngine
from .protocol import InferRequest, RequestError

_LOG = get_logger(__name__)

__all__ = ["InlinePool", "ServeWorkerPool", "WorkerCrashed"]

OP_INFER = "infer"
OP_RELOAD = "reload"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"


class WorkerCrashed(RuntimeError):
    """A pool worker died or misbehaved mid-request."""


class InlinePool:
    """Single-process engine behind the pool interface (workers=0)."""

    def __init__(self, state: Dict[str, np.ndarray], generation: int = 1):
        self._engine = PolicyEngine(state, generation=generation)
        self.size = 0

    @property
    def generation(self) -> int:
        return self._engine.generation

    def infer(self, requests: Sequence[InferRequest]) -> List[object]:
        """Per-row results; bad rows are InferError markers (see engine)."""
        return self._engine.infer_batch(requests)

    def reload(self, state: Dict[str, np.ndarray], generation: int) -> None:
        self._engine.reload(state, generation)

    def info(self) -> Dict[str, int]:
        return self._engine.info()

    def stats(self) -> Dict[str, int]:
        return self._engine.stats()

    def ping(self) -> int:
        return 0

    def slab_names(self) -> List[str]:
        return []

    def pids(self) -> List[int]:
        return []

    def shutdown(self, timeout: float = 5.0) -> None:
        pass


@dataclass
class _WorkerSpec:
    """Everything a forked serve worker needs, passed explicitly."""

    index: int
    state: Dict[str, np.ndarray]
    generation: int
    slab: str
    shapes: Tuple[Tuple[int, ...], ...]
    keys: Tuple[str, ...]


def _serve_worker_main(spec: _WorkerSpec, conn) -> None:
    """Forked worker entrypoint: answer pipe commands until shutdown."""
    _trace_reset_after_fork()
    _lockwatch_reset_after_fork()
    _flight_reset_after_fork()
    engine = PolicyEngine(spec.state, generation=spec.generation)
    slab = TensorSlab.attach(spec.slab, spec.shapes)
    try:
        while True:
            op, seq, payload = conn.recv()
            if op == OP_SHUTDOWN:
                conn.send((seq, "ok", None))
                return
            try:
                if op == OP_INFER:
                    results = engine.infer_batch(payload)
                    conn.send((seq, "result", results))
                elif op == OP_RELOAD:
                    generation = int(payload)
                    if generation != engine.generation:
                        arrays = slab.read(expected_seq=generation, copy=False)
                        engine.reload(dict(zip(spec.keys, arrays)), generation)
                    # generation == current: idempotent no-op so the parent
                    # can retry a reload that failed on some other worker.
                    conn.send((seq, "ok", engine.generation))
                elif op == OP_PING:
                    conn.send((seq, "ok", engine.stats()))
                else:
                    conn.send((seq, "error", f"unknown op {op!r}"))
            except RequestError as error:
                conn.send((seq, "request_error", str(error)))
            except Exception:
                conn.send((seq, "error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        slab.close()


class _Handle:
    """Parent-side bookkeeping for one worker."""

    __slots__ = ("index", "process", "conn", "seq")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.seq = 0

    def call(self, op: str, payload) -> object:
        """One synchronous command round-trip (executor threads only)."""
        self.seq += 1
        seq = self.seq
        try:
            self.conn.send((op, seq, payload))
            reply_seq, status, reply = self.conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrashed(
                f"serve worker {self.index} (pid {self.process.pid}) "
                f"died mid-{op}: {error}"
            )
        if reply_seq != seq:
            raise WorkerCrashed(
                f"serve worker {self.index} answered seq {reply_seq} "
                f"to command seq {seq}"
            )
        if status == "request_error":
            raise RequestError(str(reply))
        if status != "ok" and status != "result":
            raise WorkerCrashed(f"serve worker {self.index} failed {op}: {reply}")
        return reply


class ServeWorkerPool:
    """Fork-started inference workers leased per batch from a free queue."""

    def __init__(
        self,
        state: Dict[str, np.ndarray],
        num_workers: int,
        generation: int = 1,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        ctx = multiprocessing.get_context("fork")
        self.size = int(num_workers)
        self.generation = int(generation)
        self._closed = False
        keys = tuple(sorted(state))
        arrays = [np.ascontiguousarray(state[k], dtype=np.float64) for k in keys]
        self._keys = keys
        shapes = tuple(a.shape for a in arrays)
        self._slab = TensorSlab.create(slab_name(0, "serve"), shapes)
        spec_state = dict(zip(keys, arrays))
        self._workers: List[_Handle] = []
        self._free: "queue.Queue[_Handle]" = queue.Queue()
        # Pool-wide sweeps (reload/stats/ping) hold every handle at once;
        # the lock keeps two sweeps from deadlocking over partial handle
        # sets, and the gate pauses new infer leases so a sweep can't be
        # starved by hot traffic re-snatching each released handle
        # (queue.Queue does not reserve items for its longest waiter).
        self._sweep_lock = threading.Lock()
        self._gate = threading.Event()
        self._gate.set()
        for index in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            spec = _WorkerSpec(
                index=index,
                state=spec_state,
                generation=self.generation,
                slab=self._slab.name,
                shapes=shapes,
                keys=keys,
            )
            process = ctx.Process(
                target=_serve_worker_main,
                args=(spec, child_conn),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle = _Handle(index, process, parent_conn)
            self._workers.append(handle)
            self._free.put(handle)
        atexit.register(self._atexit_shutdown)

    # ------------------------------------------------------------------
    def _lease(self) -> _Handle:
        if self._closed:
            raise WorkerCrashed("serve worker pool is shut down")
        self._gate.wait()
        return self._free.get()

    def _release(self, handle: _Handle) -> None:
        self._free.put(handle)

    def _lease_all(self) -> List[_Handle]:
        """Lease every worker and hold them (pool-wide sweeps).

        Each handle sits in the free queue at most once, so draining it
        ``size`` times while *holding* the leases yields each worker
        exactly once — releasing between leases would let concurrent
        infer traffic put a just-polled worker back in front of a busy
        one, double-visiting the former and skipping the latter.

        Closing the gate first bounds the sweep's wait to the in-flight
        batches: leases already past the gate finish and release, new
        ones block until :meth:`_release_all` reopens it.  Pair every
        call with ``_release_all`` (it also releases ``_sweep_lock``).
        """
        self._sweep_lock.acquire()
        self._gate.clear()
        held: List[_Handle] = []
        try:
            if self._closed:
                raise WorkerCrashed("serve worker pool is shut down")
            for __ in range(self.size):
                held.append(self._free.get())
        except BaseException:
            self._release_all(held)
            raise
        return held

    def _release_all(self, held: List[_Handle]) -> None:
        for handle in held:
            self._release(handle)
        self._gate.set()
        self._sweep_lock.release()

    def infer(self, requests: Sequence[InferRequest]) -> List[object]:
        """Run one batch on the next free worker (blocks; executor threads)."""
        handle = self._lease()
        try:
            return handle.call(OP_INFER, list(requests))
        finally:
            self._release(handle)

    def reload(self, state: Dict[str, np.ndarray], generation: int) -> None:
        """Broadcast new weights: one slab write, then a command per worker.

        All workers are leased (and held) before the first reload
        command goes out: leasing serializes the reload behind each
        worker's in-flight batch, and holding guarantees every worker is
        visited exactly once — concurrent infer traffic can otherwise
        recycle a just-reloaded worker through the free queue while a
        busy one is never reloaded.  Batches dispatched before the sweep
        finish on the old weights and say so via their generation tag.
        If a worker fails mid-sweep the pool generation stays put and
        the retry is safe: already-reloaded workers treat the repeated
        generation as a no-op.
        """
        generation = int(generation)
        if generation <= self.generation:
            raise ValueError(
                f"generation must advance ({generation} <= {self.generation})"
            )
        arrays = [
            np.ascontiguousarray(state[k], dtype=np.float64) for k in self._keys
        ]
        self._slab.write(arrays, seq=generation)
        held = self._lease_all()
        try:
            for handle in held:
                handle.call(OP_RELOAD, generation)
            self.generation = generation
        finally:
            self._release_all(held)

    def info(self) -> Dict[str, int]:
        handle = self._lease()
        try:
            handle.call(OP_PING, None)
        finally:
            self._release(handle)
        return {"generation": self.generation, "workers": self.size}

    def stats(self) -> Dict[str, int]:
        """Summed engine stats across workers (blocks; executor threads)."""
        totals: Dict[str, int] = {}
        held = self._lease_all()
        try:
            for handle in held:
                stats = handle.call(OP_PING, None)
                for key, value in stats.items():
                    totals[key] = totals.get(key, 0) + int(value)
        finally:
            self._release_all(held)
        return totals

    def ping(self) -> int:
        """Round-trip every worker; returns the number alive."""
        alive = 0
        held = self._lease_all()
        try:
            for handle in held:
                try:
                    handle.call(OP_PING, None)
                    alive += 1
                except WorkerCrashed:
                    pass
        finally:
            self._release_all(held)
        return alive

    def slab_names(self) -> List[str]:
        return [self._slab.name]

    def pids(self) -> List[int]:
        return [h.process.pid for h in self._workers if h.process.pid]

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker and unlink the slab (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit_shutdown)
        for handle in self._workers:
            try:
                handle.conn.send((OP_SHUTDOWN, handle.seq + 1, None))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=timeout)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._slab.unlink()

    def _atexit_shutdown(self) -> None:
        try:
            self.shutdown(timeout=1.0)
        except Exception:
            _LOG.warning("serve pool atexit shutdown failed", exc_info=True)

    def __enter__(self) -> "ServeWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
