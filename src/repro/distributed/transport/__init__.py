"""``repro.distributed.transport`` — the chief↔employee transport fabric.

The PR 5 command protocol (SYNC/EXPLORE/MINIBATCH/SHUTDOWN with seq-echo
and tensor payloads) lives behind the :class:`Transport` /
:class:`ChiefChannel` / :class:`WorkerEndpoint` interfaces defined in
:mod:`.base`.  Two implementations ship:

* :class:`LocalTransport` — duplex pipes + shared-memory
  :class:`~repro.distributed.shm.TensorSlab` pairs; the single-host data
  path, bitwise-frozen against its pre-refactor behaviour;
* :class:`SocketTransport` — framed TCP (:mod:`.framing`, :mod:`.wire`)
  with heartbeats, generation-numbered reconnects, command
  retransmission and seeded network chaos (:mod:`.netfaults`).

:func:`build_worker_endpoint` is the worker-process entry: it turns the
picklable :class:`EndpointSpec` (plus the pipe's child end, for local
transports) into a live endpoint.
"""

from __future__ import annotations

from .base import (
    ChannelClosed,
    ChiefChannel,
    EndpointSpec,
    Transport,
    TransportError,
    WorkerEndpoint,
)
from .framing import (
    FrameAssembler,
    FrameError,
    MAX_FRAME_BYTES,
    decode_control,
    encode_control,
    encode_frame,
    split_frames,
)
from .local import LocalChiefChannel, LocalTransport, LocalWorkerEndpoint
from .netfaults import (
    CorruptFrameFault,
    DelayFrameFault,
    DropFrameFault,
    DuplicateFrameFault,
    NetworkFaultInjector,
    NetworkFaultPlan,
    PartitionFault,
)
from .socket_transport import (
    ANY_GENERATION,
    SocketChiefChannel,
    SocketTransport,
    SocketWorkerEndpoint,
)
from .wire import TensorMessage, decode_tensors, encode_tensors

__all__ = [
    "ANY_GENERATION",
    "ChannelClosed",
    "ChiefChannel",
    "CorruptFrameFault",
    "DelayFrameFault",
    "DropFrameFault",
    "DuplicateFrameFault",
    "EndpointSpec",
    "FrameAssembler",
    "FrameError",
    "LocalChiefChannel",
    "LocalTransport",
    "LocalWorkerEndpoint",
    "MAX_FRAME_BYTES",
    "NetworkFaultInjector",
    "NetworkFaultPlan",
    "PartitionFault",
    "SocketChiefChannel",
    "SocketTransport",
    "SocketWorkerEndpoint",
    "TensorMessage",
    "Transport",
    "TransportError",
    "WorkerEndpoint",
    "build_worker_endpoint",
    "decode_control",
    "decode_tensors",
    "encode_control",
    "encode_frame",
    "encode_tensors",
    "split_frames",
]


def build_worker_endpoint(spec: EndpointSpec, conn=None) -> WorkerEndpoint:
    """Build the worker-side endpoint described by ``spec``.

    ``conn`` is the pipe's child end for local transports (handed to the
    forked entrypoint alongside the spec); socket transports dial in and
    ignore it.
    """
    if spec.kind == "local":
        return LocalWorkerEndpoint(spec, conn)
    if spec.kind == "socket":
        return SocketWorkerEndpoint(spec)
    raise ValueError(f"unknown transport kind {spec.kind!r}")
