"""The ``Transport`` seam between the chief and its employee workers.

PR 5's :class:`~repro.distributed.procpool.ProcessEmployeePool` spoke the
SYNC/EXPLORE/MINIBATCH/SHUTDOWN protocol directly over ``multiprocessing``
pipes plus :class:`~repro.distributed.shm.TensorSlab` shared memory.  This
module extracts that protocol behind three small interfaces so the same
pool (and therefore the same trainer, quorum logic and health
bookkeeping) can drive workers over any medium:

* :class:`Transport` — the factory owning shared resources (a listener
  socket, metric counters); builds one :class:`ChiefChannel` per
  employee index.
* :class:`ChiefChannel` — the chief's view of one worker: send commands
  and weight broadcasts, collect replies and gradient returns, and
  manage the worker's spawn/revive lifecycle.
* :class:`WorkerEndpoint` — the worker's mirror image, built inside the
  worker process from a picklable :class:`EndpointSpec` (never from
  inherited chief state — the same discipline as
  :class:`~repro.distributed.procpool.WorkerSpec`).

Failure is part of the interface: any operation may raise
:class:`ChannelClosed` when the peer is unreachable (pipe EOF, socket
reset, heartbeat loss).  The pool translates that — and only that — into
:class:`~repro.distributed.procpool.WorkerDied`, which the trainer
already maps onto its crash/restart/degraded-quorum bookkeeping.  A
``None`` return from :meth:`ChiefChannel.recv_reply` means *timeout with
the command still in flight* (the straggler path), which the pool turns
into ``FuturesTimeoutError``, which the trainer books as a timeout.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ChannelClosed",
    "ChiefChannel",
    "EndpointSpec",
    "Transport",
    "TransportError",
    "WorkerEndpoint",
]


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class ChannelClosed(TransportError):
    """The peer is unreachable: EOF, reset, or heartbeat loss.

    The pool maps this onto ``WorkerDied`` so every transport's failure
    mode lands in the same trainer bookkeeping.
    """


@dataclass(frozen=True)
class EndpointSpec:
    """Picklable recipe for building a worker-side endpoint.

    ``kind`` selects the implementation; the remaining fields are a
    union (local transports fill the slab names, socket transports the
    address/token/generation).  The spec crosses the process boundary
    inside :class:`~repro.distributed.procpool.WorkerSpec`, so it must
    stay free of live handles — sockets are opened and slabs attached
    *inside* the worker.
    """

    kind: str
    index: int
    shapes: Tuple[Tuple[int, ...], ...] = ()
    # -- local (pipe + shared-memory) fields ---------------------------
    weights_slab: str = ""
    grads_slab: str = ""
    # -- socket fields -------------------------------------------------
    address: Tuple[str, int] = ("", 0)
    token: str = ""
    generation: int = 0
    heartbeat_interval: float = 0.5
    connect_timeout: float = 10.0
    connect_backoff: float = 0.05
    connect_backoff_cap: float = 1.0
    read_timeout: float = 30.0


class ChiefChannel(abc.ABC):
    """The chief's command/payload channel to one employee worker."""

    index: int

    #: Estimated chief-minus-worker wall-clock offset in seconds.  Seeded
    #: from the HELLO handshake where the transport has one (sockets) and
    #: refreshed by the pool from the ``clock`` stamp on every reply, so
    #: worker span timestamps can be skew-corrected *at merge time* —
    #: raw worker records are never rewritten.  Plain attribute, benign
    #: to race: readers only ever see an older estimate.
    clock_offset: float = 0.0

    # -- lifecycle -----------------------------------------------------
    @abc.abstractmethod
    def arm(self) -> object:
        """Prepare for one (re)spawn; returns the spawn handle.

        The handle is passed to the worker entrypoint alongside the
        spec: the pipe's child end for local transports, ``None`` for
        sockets (the worker dials in instead).
        """

    @abc.abstractmethod
    def post_spawn(self, spawn_handle: object) -> None:
        """Release the chief's copy of the spawn handle after fork."""

    @abc.abstractmethod
    def endpoint_spec(self) -> EndpointSpec:
        """The spec the *next* spawned worker should build its endpoint from."""

    @abc.abstractmethod
    def reset_for_revive(self) -> None:
        """Invalidate everything a dead/stale worker could still touch.

        Local transports allocate fresh slabs (and eagerly unlink the
        stale ones) so a wedged predecessor scribbling into shared
        memory cannot corrupt its replacement; socket transports bump
        the generation number so a reconnecting stale worker is refused.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Release every chief-side resource (idempotent)."""

    # -- protocol ------------------------------------------------------
    @abc.abstractmethod
    def send_command(
        self,
        op: str,
        seq: int,
        payload: object,
        episode: int = -1,
        round_index: int = -1,
    ) -> None:
        """Ship one command; ``episode``/``round_index`` are fault-plan hints."""

    @abc.abstractmethod
    def send_weights(
        self, arrays: Sequence[np.ndarray], seq: int, episode: int
    ) -> int:
        """Stage/ship the weight broadcast for ``seq``; returns payload bytes."""

    @abc.abstractmethod
    def recv_reply(
        self, timeout: Optional[float]
    ) -> Optional[Tuple[str, int, object]]:
        """The next ``(status, seq, payload)`` reply, or ``None`` on timeout.

        Raises :class:`ChannelClosed` when the worker is gone (EOF /
        reset / heartbeat loss) — never hangs forever: even a ``None``
        timeout is bounded by peer-death detection.
        """

    @abc.abstractmethod
    def read_gradients(self, expected_seq: int) -> Tuple[np.ndarray, int]:
        """The gradient vector stamped ``expected_seq`` (a fresh copy)
        plus payload bytes."""

    # -- introspection -------------------------------------------------
    def slab_names(self) -> List[str]:
        """Shared-memory segment names owned by this channel (may be empty)."""
        return []


class WorkerEndpoint(abc.ABC):
    """The worker-side mirror of a :class:`ChiefChannel`."""

    @abc.abstractmethod
    def recv_command(self) -> Optional[Tuple[str, int, object]]:
        """Block for the next ``(op, seq, payload)``; ``None`` means exit.

        ``None`` is returned when the chief is permanently gone (EOF
        with no reconnect possible) — the worker's serve loop treats it
        like SHUTDOWN.
        """

    @abc.abstractmethod
    def send_reply(self, status: str, seq: int, payload: object) -> None:
        """Ship one reply triple for the command stamped ``seq``."""

    @abc.abstractmethod
    def read_weights(self, expected_seq: int) -> Sequence[np.ndarray]:
        """The weight arrays stamped ``expected_seq`` (views allowed)."""

    @abc.abstractmethod
    def send_gradients(
        self,
        vector: np.ndarray,
        seq: int,
        episode: int,
        round_index: int,
    ) -> None:
        """Ship/stage the gradient vector for the command stamped ``seq``
        (laid out by :func:`repro.nn.unflatten_vector` over the shapes)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release every worker-side resource (idempotent)."""


class Transport(abc.ABC):
    """Factory for the per-employee channels of one pool."""

    name: str = "abstract"

    @abc.abstractmethod
    def create_channel(self, index: int) -> ChiefChannel:
        """Build the channel for employee ``index`` (called once per index)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release shared transport resources after every channel closed."""
