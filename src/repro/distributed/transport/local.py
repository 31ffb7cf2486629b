"""Single-host transport: duplex pipes + shared-memory tensor slabs.

This is the PR 5 data path verbatim, re-housed behind the
:class:`~repro.distributed.transport.base.Transport` interface:
commands and small replies cross a ``multiprocessing`` duplex pipe,
tensor payloads travel through preallocated per-worker
:class:`~repro.distributed.shm.TensorSlab` pairs, seq-stamped and
verified on read.  Nothing about ordering, serialization or slab
layout changed, which is what keeps the process backend bitwise-frozen
against its PR 5 behaviour (the backend-equivalence tests enforce it).

The one behavioural addition is slab hygiene on revive:
:meth:`LocalChiefChannel.reset_for_revive` allocates *fresh* slabs for
the replacement worker and eagerly unlinks the stale pair.  A respawn
happens because the old worker is dead *or wedged*; a wedged-but-alive
predecessor still holds a mapping of the old segments and may scribble
into them mid-straggle, so the replacement must never share its memory.
Eager unlink also keeps ``/dev/shm`` flat across arbitrarily many
revive cycles instead of parking stale segments until ``atexit``.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..shm import TensorSlab, slab_name
from .base import ChannelClosed, ChiefChannel, EndpointSpec, Transport, WorkerEndpoint

__all__ = ["LocalChiefChannel", "LocalTransport", "LocalWorkerEndpoint"]


class LocalChiefChannel(ChiefChannel):
    """Chief side of one pipe + slab-pair worker link."""

    def __init__(self, index: int, shapes: Tuple[Tuple[int, ...], ...], ctx):
        self.index = index
        self.shapes = shapes
        self._ctx = ctx
        self._conn = None
        self._weights = TensorSlab.create(slab_name(index, "w"), shapes)
        self._grads = TensorSlab.create(slab_name(index, "g"), shapes)
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def arm(self):
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._conn = parent_conn
        return child_conn

    def post_spawn(self, spawn_handle) -> None:
        # Close the chief's copy of the child end: the chief must observe
        # EOF the instant the worker dies, not hold the pipe open against
        # itself.
        spawn_handle.close()

    def endpoint_spec(self) -> EndpointSpec:
        return EndpointSpec(
            kind="local",
            index=self.index,
            shapes=self.shapes,
            weights_slab=self._weights.name,
            grads_slab=self._grads.name,
        )

    def reset_for_revive(self) -> None:
        stale = (self._weights, self._grads)
        self._weights = TensorSlab.create(slab_name(self.index, "w"), self.shapes)
        self._grads = TensorSlab.create(slab_name(self.index, "g"), self.shapes)
        for slab in stale:
            slab.unlink()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._weights.unlink()
        self._grads.unlink()

    # -- protocol ------------------------------------------------------
    def send_command(
        self,
        op: str,
        seq: int,
        payload: object,
        episode: int = -1,
        round_index: int = -1,
    ) -> None:
        try:
            self._conn.send((op, seq, payload))
        except (BrokenPipeError, OSError) as error:
            raise ChannelClosed(
                f"employee {self.index}: pipe closed while sending {op}"
            ) from error

    def send_weights(
        self, arrays: Sequence[np.ndarray], seq: int, episode: int
    ) -> int:
        return self._weights.write(arrays, seq=seq, episode=episode)

    def recv_reply(
        self, timeout: Optional[float]
    ) -> Optional[Tuple[str, int, object]]:
        try:
            if not self._conn.poll(timeout):
                return None
            return self._conn.recv()
        except (EOFError, OSError, ConnectionResetError) as error:
            raise ChannelClosed(
                f"employee {self.index}: pipe EOF (worker process died)"
            ) from error

    def read_gradients(self, expected_seq: int) -> Tuple[np.ndarray, int]:
        return self._grads.read_vector(expected_seq), self._grads.nbytes

    # -- introspection -------------------------------------------------
    def slab_names(self) -> List[str]:
        return [self._weights.name, self._grads.name]


class LocalWorkerEndpoint(WorkerEndpoint):
    """Worker side: the pipe's child end plus attached slabs."""

    def __init__(self, spec: EndpointSpec, conn):
        if conn is None:
            raise ValueError("local endpoints need the pipe's child end")
        self._conn = conn
        self._weights = TensorSlab.attach(spec.weights_slab, spec.shapes)
        self._grads = TensorSlab.attach(spec.grads_slab, spec.shapes)
        self._closed = False

    def recv_command(self) -> Optional[Tuple[str, int, object]]:
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            return None  # chief is gone; exit quietly

    def send_reply(self, status: str, seq: int, payload: object) -> None:
        self._conn.send((status, seq, payload))

    def read_weights(self, expected_seq: int) -> Sequence[np.ndarray]:
        return self._weights.read(expected_seq=expected_seq, copy=False)

    def send_gradients(
        self,
        vector: np.ndarray,
        seq: int,
        episode: int,
        round_index: int,
    ) -> None:
        self._grads.write_vector(vector, seq=seq, episode=episode, round_index=round_index)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._weights.close()
        self._grads.close()
        self._conn.close()


class LocalTransport(Transport):
    """Factory for pipe + shared-memory channels (the PR 5 data path)."""

    name = "local"

    def __init__(self, shapes: Sequence[Tuple[int, ...]], ctx=None):
        self.shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        self._ctx = ctx if ctx is not None else multiprocessing.get_context("fork")
        self._channels: List[LocalChiefChannel] = []

    def create_channel(self, index: int) -> LocalChiefChannel:
        channel = LocalChiefChannel(index, self.shapes, self._ctx)
        self._channels.append(channel)
        return channel

    def close(self) -> None:
        for channel in self._channels:
            channel.close()
