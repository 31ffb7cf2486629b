"""Multi-host socket transport: framed TCP with heartbeats and reconnect.

The chief owns one listening TCP socket; every employee worker dials in
and authenticates with the pool's secret token (HELLO → WELCOME).  All
traffic then flows as CRC32-checksummed frames (:mod:`.framing`) with
tensor payloads encoded by :mod:`.wire`.

Reliability model
-----------------
TCP already gives in-order delivery *per connection*; everything above
it exists for the failure modes TCP does not cover — dropped
connections, silent peer death, partitions, and the injected chaos of
:mod:`.netfaults`:

* **Heartbeats** — each worker runs a beacon thread sending a HEARTBEAT
  frame every ``heartbeat_interval``.  The chief tracks ``last_seen``
  per employee at frame-receive time; silence beyond
  ``heartbeat_timeout`` while the chief is waiting raises
  :class:`~repro.distributed.transport.base.ChannelClosed`, which the
  pool maps onto ``WorkerDied`` → the trainer's existing
  crash/restart/degraded-quorum bookkeeping.  A *straggler* keeps its
  heartbeats flowing and therefore times out softly (FuturesTimeoutError,
  retried) — heartbeats are what let the chief tell slow from dead.
* **Command retransmission** — the chief keeps the frames of the one
  in-flight command per worker and re-sends them with capped exponential
  backoff + deterministic jitter until the reply arrives.  Workers
  deduplicate by ``seq`` and answer a duplicate by re-sending the cached
  reply frames *without re-executing* — a command consumes worker RNG at
  most once, which is what keeps the socket backend bitwise-identical to
  the process backend.
* **Reconnect + generations** — a worker that loses its connection
  redials and re-HELLOs with its generation number.  The chief
  re-attaches a matching generation (the in-flight command is simply
  retransmitted over the fresh connection); a *stale* generation — the
  worker was already given up on and revived — is refused at WELCOME
  time so a zombie can never inject frames into its successor's session.
  Every revive bumps the generation and the replacement is re-SYNCed
  from the chief's authoritative weight + RNG mirrors.

Determinism: none of this machinery touches training RNG streams.  The
``float64`` wire encoding round-trips exact bytes, commands are
strictly serial per worker, and replies are collected in the same order
as the pipe transport — the loopback bitwise gate in the test suite
holds the proof.
"""

from __future__ import annotations

import dataclasses
import pickle
import secrets
import select
import socket
import struct
import threading
import time
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...obs.log import get_logger
from ...obs.metrics import get_registry
from .base import ChannelClosed, ChiefChannel, EndpointSpec, Transport, WorkerEndpoint
from .framing import (
    FrameAssembler,
    FrameError,
    T_CONTROL,
    T_HEARTBEAT,
    T_HELLO,
    T_TENSORS,
    T_WELCOME,
    decode_control,
    encode_control,
    encode_frame,
    frame_type_name,
)
from .netfaults import NetworkFaultInjector
from .wire import decode_tensors, encode_tensors

_LOG = get_logger(__name__)

__all__ = [
    "ANY_GENERATION",
    "SocketChiefChannel",
    "SocketTransport",
    "SocketWorkerEndpoint",
]

#: Opcode of the SYNC command (mirrors procpool.OP_SYNC without importing
#: it — procpool imports *us*).
_OP_SYNC = "sync"

_RECV_CHUNK = 1 << 20
_HANDSHAKE_TIMEOUT = 10.0

#: External workers HELLO with this generation to mean "assign me one".
ANY_GENERATION = -1


def _jitter01(index: int, seq: int, attempt: int) -> float:
    """Deterministic jitter in [0, 1): seeded by (worker, seq, attempt)."""
    digest = zlib.crc32(f"{index}:{seq}:{attempt}".encode())
    return (digest % 1000) / 1000.0


def _backoff(base: float, cap: float, attempt: int, jitter: float) -> float:
    return min(cap, base * (2.0 ** attempt)) * (1.0 + 0.25 * jitter)


class _Stream:
    """One live TCP connection: socket + its frame assembler."""

    __slots__ = ("sock", "assembler")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.assembler = FrameAssembler()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Pending:
    """The one in-flight command, kept for retransmission."""

    __slots__ = ("seq", "op", "episode", "round", "frames", "sent_at", "last_tx", "attempt")

    def __init__(
        self,
        seq: int,
        op: str,
        episode: int,
        round_index: int,
        frames: List[bytes],
        now: float,
    ):
        self.seq = seq
        self.op = op
        self.episode = episode
        self.round = round_index
        self.frames = frames
        self.sent_at = now
        self.last_tx = now
        self.attempt = 0


class SocketChiefChannel(ChiefChannel):
    """Chief side of one framed-TCP worker link.

    Thread model: the chief main thread drives the protocol; the
    transport's accept thread only swaps in freshly handshaken
    connections.  All mutable state is guarded by ``self._cond``;
    blocking socket reads happen outside it on a local stream reference
    that is re-validated before its frames are applied.
    """

    def __init__(self, transport: "SocketTransport", index: int):
        self.index = index
        self._transport = transport
        self.shapes = transport.shapes
        self._cond = threading.Condition()
        self._stream: Optional[_Stream] = None
        self._generation = 0
        self._down_since: Optional[float] = None
        self._last_seen = time.monotonic()
        self._replies: List[Tuple[str, int, object]] = []
        self._tensors: Dict[int, object] = {}
        self._pending: Optional[_Pending] = None
        self._staged_weights: Optional[bytes] = None
        self._delivered_seq = 0
        self._peer: str = ""
        self._closed = False
        self.welcome_extra: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self):
        return None  # the worker dials in; nothing to hand to fork

    def post_spawn(self, spawn_handle) -> None:
        return None

    def endpoint_spec(self) -> EndpointSpec:
        transport = self._transport
        with self._cond:
            generation = self._generation
        return EndpointSpec(
            kind="socket",
            index=self.index,
            shapes=self.shapes,
            address=transport.address,
            token=transport.token,
            generation=generation,
            heartbeat_interval=transport.heartbeat_interval,
            connect_timeout=transport.connect_timeout,
            connect_backoff=transport.connect_backoff,
            connect_backoff_cap=transport.connect_backoff_cap,
            read_timeout=transport.read_timeout,
        )

    def reset_for_revive(self) -> None:
        with self._cond:
            self._generation += 1
            if self._stream is not None:
                self._stream.close()
                self._stream = None
            self._down_since = None
            self._replies.clear()
            self._tensors.clear()
            self._pending = None
            self._staged_weights = None
            self._delivered_seq = 0
            self._transport.gauge_connected.labels(employee=self.index).set(0)
            self._transport.gauge_generation.labels(employee=self.index).set(
                self._generation
            )

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if self._stream is not None:
                self._stream.close()
                self._stream = None
            self._transport.gauge_connected.labels(employee=self.index).set(0)

    # ------------------------------------------------------------------
    # Accept-thread entry: offer a freshly handshaken connection
    # ------------------------------------------------------------------
    def offer(self, sock: socket.socket, hello: Dict[str, object]) -> Optional[dict]:
        """Adopt ``sock`` if the HELLO is current; returns the WELCOME payload.

        ``None`` means refused (stale generation / channel closed) — the
        caller sends the refusal and closes the socket.
        """
        generation = int(hello.get("generation", ANY_GENERATION))
        peer_clock = hello.get("clock")
        if peer_clock is not None:
            # Seed the chief-minus-worker skew estimate from the HELLO
            # stamp; replies refresh it every pump.  Written outside the
            # condition on purpose — a plain float, benign to race.
            self.clock_offset = time.time() - float(peer_clock)
        with self._cond:
            if self._closed:
                return None
            if generation not in (ANY_GENERATION, self._generation):
                self._transport.counter_errors.labels(kind="stale_generation").inc()
                return None
            if self._stream is not None:
                self._stream.close()
            self._stream = _Stream(sock)
            self._down_since = None
            now = time.monotonic()
            self._last_seen = now
            self._peer = str(hello.get("peer", ""))
            if self._pending is not None:
                # Frames in flight on the old connection are gone; force
                # an immediate retransmit on the fresh one.
                self._pending.last_tx = 0.0
            self._cond.notify_all()
            self._transport.gauge_connected.labels(employee=self.index).set(1)
            self._transport.gauge_generation.labels(employee=self.index).set(
                self._generation
            )
            welcome = {
                "accepted": True,
                "generation": self._generation,
                "heartbeat_interval": self._transport.heartbeat_interval,
            }
            welcome.update(self.welcome_extra)
            return welcome

    # ------------------------------------------------------------------
    # Protocol: sends
    # ------------------------------------------------------------------
    def send_weights(
        self, arrays: Sequence[np.ndarray], seq: int, episode: int
    ) -> int:
        payload = encode_tensors(
            arrays,
            seq=seq,
            episode=episode,
        )
        frame = encode_frame(T_TENSORS, payload)
        with self._cond:
            self._staged_weights = frame
        self._transmit([frame], op="tensors", episode=episode, round_index=-1)
        return len(payload)

    def send_command(
        self,
        op: str,
        seq: int,
        payload: object,
        episode: int = -1,
        round_index: int = -1,
    ) -> None:
        frame = encode_frame(T_CONTROL, encode_control(op, seq, payload))
        now = time.monotonic()
        with self._cond:
            frames = [frame]
            if op == _OP_SYNC and self._staged_weights is not None:
                # Retransmissions must re-ship the weight broadcast too:
                # the original TENSORS frame may be what was lost.
                frames = [self._staged_weights, frame]
            self._pending = _Pending(seq, op, episode, round_index, frames, now)
        self._transmit([frame], op=op, episode=episode, round_index=round_index)

    def _transmit(
        self, frames: Sequence[bytes], op: str, episode: int, round_index: int
    ) -> None:
        injector = self._transport.injector
        out = list(frames)
        if injector is not None:
            out = injector.on_send(self.index, op, episode, round_index, frames)
            if len(out) < len(frames):
                self._transport.counter_chaos.labels(action="drop").inc()
            elif len(out) > len(frames):
                self._transport.counter_chaos.labels(action="duplicate").inc()
            elif out != list(frames):
                self._transport.counter_chaos.labels(action="corrupt").inc()
        with self._cond:
            stream = self._stream
        if stream is None:
            return  # disconnected: the retransmit timer re-ships on re-attach
        for frame in out:
            try:
                stream.sock.sendall(frame)
            except OSError:
                self._drop_stream(stream, reason="send failed")
                return
            self._transport.counter_frames.labels(direction="send", kind=op).inc()
            self._transport.counter_bytes.labels(direction="send").inc(len(frame))

    # ------------------------------------------------------------------
    # Protocol: receive path
    # ------------------------------------------------------------------
    def recv_reply(
        self, timeout: Optional[float]
    ) -> Optional[Tuple[str, int, object]]:
        transport = self._transport
        deadline = None if timeout is None else time.monotonic() + timeout
        # Heartbeats are only parsed when *this* channel pumps its socket;
        # while the chief waits on another employee they accumulate in the
        # kernel buffer.  Declare heartbeat loss only after at least one
        # pump in this call, so buffered liveness is never mistaken for
        # silence.
        pumped = False
        while True:
            with self._cond:
                if self._replies:
                    reply = self._replies.pop(0)
                    self._delivered_seq = max(self._delivered_seq, reply[1])
                    pending = self._pending
                    if pending is not None and pending.seq == reply[1]:
                        transport.histogram_reply.labels(op=pending.op).observe(
                            time.monotonic() - pending.sent_at
                        )
                        self._pending = None
                    return reply
                stream = self._stream
                now = time.monotonic()
                # -- liveness -------------------------------------------
                if stream is None:
                    if self._down_since is None:
                        self._down_since = now
                    grace = max(
                        transport.heartbeat_timeout, transport.connect_timeout
                    )
                    if now - self._down_since > grace:
                        raise ChannelClosed(
                            f"employee {self.index}: no connection for "
                            f"{now - self._down_since:.1f}s (generation "
                            f"{self._generation})"
                        )
                else:
                    age = now - self._last_seen
                    transport.gauge_heartbeat_age.labels(employee=self.index).set(age)
                    if age > transport.heartbeat_timeout and pumped:
                        # Condition wraps an RLock, so the nested acquire
                        # inside _drop_stream is safe here.
                        self._drop_stream(stream, reason="heartbeat loss")
                        raise ChannelClosed(
                            f"employee {self.index}: heartbeat silence for "
                            f"{age:.1f}s (> {transport.heartbeat_timeout}s)"
                        )
                # -- retransmission -------------------------------------
                resend = None
                if self._pending is not None and stream is not None:
                    pending = self._pending
                    rto = _backoff(
                        transport.retransmit_base,
                        transport.retransmit_cap,
                        pending.attempt,
                        _jitter01(self.index, pending.seq, pending.attempt),
                    )
                    if now - pending.last_tx >= rto:
                        pending.last_tx = now
                        pending.attempt += 1
                        resend = (
                            list(pending.frames),
                            pending.op,
                            pending.episode,
                            pending.round,
                        )
                        transport.counter_retransmits.labels(op=pending.op).inc()
            if resend is not None:
                self._transmit(*resend)
            if deadline is not None and time.monotonic() >= deadline:
                return None
            step = transport.poll_interval
            if deadline is not None:
                step = max(0.0, min(step, deadline - time.monotonic()))
            self._pump(step)
            pumped = True

    def _pump(self, step: float) -> None:
        """Wait up to ``step`` for bytes; parse and apply complete frames."""
        with self._cond:
            stream = self._stream
            if stream is None:
                self._cond.wait(step)  # a reconnect attach will notify
                return
        try:
            readable, __, __ = select.select([stream.sock], [], [], step)
        except (OSError, ValueError):
            self._drop_stream(stream, reason="select failed")
            return
        if not readable:
            return
        try:
            data = stream.sock.recv(_RECV_CHUNK)
        except OSError:
            self._drop_stream(stream, reason="recv failed")
            return
        if not data:
            self._drop_stream(stream, reason="EOF")
            return
        try:
            stream.assembler.feed(data)
            frames = list(stream.assembler.iter_frames())
        except FrameError as error:
            self._transport.counter_errors.labels(kind="crc").inc()
            self._drop_stream(stream, reason=f"frame error: {error}")
            return
        self._apply_frames(stream, frames)

    def _apply_frames(
        self, stream: _Stream, frames: Sequence[Tuple[int, int, bytes]]
    ) -> None:
        transport = self._transport
        injector = transport.injector
        with self._cond:
            if self._stream is not stream:
                return  # raced with a reconnect; the old stream is dead
            pending = self._pending
            episode = pending.episode if pending is not None else -1
            round_index = pending.round if pending is not None else -1
            for ftype, __, payload in frames:
                if ftype == T_CONTROL:
                    kind = "reply"
                else:
                    kind = frame_type_name(ftype)
                if injector is not None:
                    action = injector.on_recv(self.index, kind, episode, round_index)
                    if action == "drop":
                        transport.counter_chaos.labels(action="drop").inc()
                        continue
                    if action == "corrupt":
                        # Observable equivalent of a CRC casualty: count
                        # it and discard the frame.
                        transport.counter_chaos.labels(action="corrupt").inc()
                        transport.counter_errors.labels(kind="crc").inc()
                        continue
                self._last_seen = time.monotonic()
                transport.counter_frames.labels(direction="recv", kind=kind).inc()
                transport.counter_bytes.labels(direction="recv").inc(len(payload))
                if ftype == T_HEARTBEAT:
                    continue
                if ftype == T_TENSORS:
                    try:
                        message = decode_tensors(payload, self.shapes)
                    except FrameError:
                        transport.counter_errors.labels(kind="tensor_layout").inc()
                        continue
                    self._tensors[message.seq] = message
                    while len(self._tensors) > 4:
                        del self._tensors[min(self._tensors)]
                    continue
                if ftype == T_CONTROL:
                    try:
                        status, seq, reply_payload = decode_control(payload)
                    except FrameError:
                        transport.counter_errors.labels(kind="control_decode").inc()
                        continue
                    if seq <= self._delivered_seq or any(
                        queued[1] == seq for queued in self._replies
                    ):
                        # Already delivered or already queued: a cached
                        # worker resend raced the original reply.
                        transport.counter_errors.labels(kind="duplicate_reply").inc()
                        continue
                    self._replies.append((status, seq, reply_payload))

    def _drop_stream(self, stream: _Stream, reason: str) -> None:
        with self._cond:
            if self._stream is not stream:
                return
            stream.close()
            self._stream = None
            self._down_since = time.monotonic()
            self._transport.gauge_connected.labels(employee=self.index).set(0)
        _LOG.warning(
            "employee %d: connection dropped (%s); awaiting redial",
            self.index,
            reason,
        )

    def drop_current(self, reason: str) -> None:
        """Drop whatever connection is attached (handshake-thread helper)."""
        with self._cond:
            stream = self._stream
        if stream is not None:
            self._drop_stream(stream, reason)

    def read_gradients(self, expected_seq: int) -> Tuple[np.ndarray, int]:
        with self._cond:
            message = self._tensors.pop(expected_seq, None)
        if message is None:
            # The reply arrived but its gradient payload did not (frame
            # lost to chaos): treat the round's contribution as dead —
            # the pool maps this onto WorkerDied and the quorum absorbs it.
            raise ChannelClosed(
                f"employee {self.index}: gradient payload for seq "
                f"{expected_seq} never arrived"
            )
        return message.vector, message.nbytes

    # -- introspection -------------------------------------------------
    def connected(self) -> bool:
        with self._cond:
            return self._stream is not None

    def generation(self) -> int:
        with self._cond:
            return self._generation

    def last_seen_age(self) -> float:
        with self._cond:
            return time.monotonic() - self._last_seen


class SocketTransport(Transport):
    """Factory/owner of the listener, token, metrics and fleet registry."""

    name = "socket"

    def __init__(
        self,
        shapes: Sequence[Tuple[int, ...]],
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        token: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        connect_timeout: float = 10.0,
        connect_backoff: float = 0.05,
        connect_backoff_cap: float = 1.0,
        retransmit_base: float = 0.25,
        retransmit_cap: float = 4.0,
        poll_interval: float = 0.02,
        read_timeout: float = 30.0,
        injector: Optional[NetworkFaultInjector] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})"
            )
        self.shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.connect_timeout = float(connect_timeout)
        self.connect_backoff = float(connect_backoff)
        self.connect_backoff_cap = float(connect_backoff_cap)
        self.retransmit_base = float(retransmit_base)
        self.retransmit_cap = float(retransmit_cap)
        self.poll_interval = float(poll_interval)
        self.read_timeout = float(read_timeout)
        self.injector = injector
        self.token = token if token is not None else secrets.token_hex(16)
        self._channels: Dict[int, SocketChiefChannel] = {}
        self._closing = threading.Event()

        registry = get_registry()
        self.counter_frames = registry.counter(
            "repro_transport_frames_total",
            "Frames sent/received by the socket transport",
            labelnames=("direction", "kind"),
        )
        self.counter_bytes = registry.counter(
            "repro_transport_bytes_total",
            "Payload bytes sent/received by the socket transport",
            labelnames=("direction",),
        )
        self.counter_retransmits = registry.counter(
            "repro_transport_retransmits_total",
            "Command frames re-sent after backoff",
            labelnames=("op",),
        )
        self.counter_errors = registry.counter(
            "repro_transport_frame_errors_total",
            "Frames rejected (CRC, duplicates, stale generations, layout)",
            labelnames=("kind",),
        )
        self.counter_chaos = registry.counter(
            "repro_transport_chaos_total",
            "Frames altered by the network fault injector",
            labelnames=("action",),
        )
        self.histogram_reply = registry.histogram(
            "repro_transport_reply_seconds",
            "Command-to-reply latency over the socket transport",
            labelnames=("op",),
        )
        self.gauge_heartbeat_age = registry.gauge(
            "repro_transport_heartbeat_age_seconds",
            "Seconds since the last frame from each employee",
            labelnames=("employee",),
        )
        self.gauge_connected = registry.gauge(
            "repro_fleet_connected",
            "1 while the employee's connection is attached",
            labelnames=("employee",),
        )
        self.gauge_generation = registry.gauge(
            "repro_fleet_generation",
            "Current generation number of each employee",
            labelnames=("employee",),
        )

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(tuple(listen))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-transport-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    def create_channel(self, index: int) -> SocketChiefChannel:
        channel = SocketChiefChannel(self, index)
        self._channels[index] = channel
        return channel

    def set_welcome_extra(self, index: int, extra: Dict[str, object]) -> None:
        """Attach payload shipped inside WELCOME (external-worker bootstrap)."""
        self._channels[index].welcome_extra = dict(extra)

    def fleet(self) -> Dict[int, Dict[str, object]]:
        """Live per-employee registry (CLI/dashboard/tests)."""
        table: Dict[int, Dict[str, object]] = {}
        for index, channel in sorted(self._channels.items()):
            table[index] = {
                "connected": channel.connected(),
                "generation": channel.generation(),
                "last_seen_age": channel.last_seen_age(),
            }
        return table

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, __ = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._handshake, args=(sock,), daemon=True
            )
            thread.start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(_HANDSHAKE_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            assembler = FrameAssembler()
            hello: Optional[Dict[str, object]] = None
            while hello is None:
                data = sock.recv(_RECV_CHUNK)
                if not data:
                    sock.close()
                    return
                assembler.feed(data)
                for ftype, __, payload in assembler.iter_frames():
                    if ftype == T_HELLO:
                        hello = pickle.loads(payload)
                        break
            if not isinstance(hello, dict) or hello.get("token") != self.token:
                self.counter_errors.labels(kind="bad_token").inc()
                self._refuse(sock, "bad token")
                return
            index = int(hello.get("index", -1))
            channel = self._channels.get(index)
            if channel is None:
                self._refuse(sock, f"unknown employee index {index}")
                return
            welcome = channel.offer(sock, hello)
            if welcome is None:
                self._refuse(sock, "stale generation")
                return
            sock.settimeout(self.read_timeout)
            frame = encode_frame(
                T_WELCOME, pickle.dumps(welcome, protocol=pickle.HIGHEST_PROTOCOL)
            )
            try:
                sock.sendall(frame)
            except OSError:
                channel.drop_current("welcome send failed")
        except Exception as error:  # malformed pickle, raced close, ...
            _LOG.warning("transport handshake failed: %s", error)
            try:
                sock.close()
            except OSError:
                return

    def _refuse(self, sock: socket.socket, reason: str) -> None:
        payload = pickle.dumps(
            {"accepted": False, "reason": reason},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            sock.sendall(encode_frame(T_WELCOME, payload))
        except OSError:
            _LOG.warning("refusal send failed (%s)", reason)
        try:
            sock.close()
        except OSError:
            return

    def close(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            _LOG.warning("transport listener close failed")
        for channel in self._channels.values():
            channel.close()
        self._accept_thread.join(timeout=2.0)


class SocketWorkerEndpoint(WorkerEndpoint):
    """Worker side: dial, authenticate, heartbeat, dedup, reconnect."""

    def __init__(self, spec: EndpointSpec):
        self._spec = spec
        self._shapes = tuple(tuple(int(d) for d in s) for s in spec.shapes)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._assembler = FrameAssembler()
        self._weights: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._staged: List[bytes] = []
        self._cache_seq = 0
        self._cache_frames: List[bytes] = []
        self._handled_seq = 0
        self._closed = False
        self.welcome = self._connect()
        self._hb_stop = threading.Event()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-heartbeat", daemon=True
        )
        self._hb_thread.start()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> dict:
        """Dial + HELLO/WELCOME with capped exponential backoff + jitter."""
        spec = self._spec
        deadline = time.monotonic() + spec.connect_timeout
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChannelClosed(
                    f"employee {spec.index}: chief at {spec.address} unreachable "
                    f"after {spec.connect_timeout}s"
                )
            try:
                sock = socket.create_connection(
                    tuple(spec.address), timeout=min(2.0, max(0.1, remaining))
                )
            except OSError:
                attempt += 1
                time.sleep(
                    min(
                        max(0.0, deadline - time.monotonic()),
                        _backoff(
                            spec.connect_backoff,
                            spec.connect_backoff_cap,
                            attempt,
                            _jitter01(spec.index, spec.generation, attempt),
                        ),
                    )
                )
                continue
            try:
                welcome = self._handshake(sock)
            except (OSError, FrameError):
                try:
                    sock.close()
                except OSError:
                    pass
                attempt += 1
                continue
            if not welcome.get("accepted", False):
                try:
                    sock.close()
                except OSError:
                    pass
                raise ChannelClosed(
                    f"employee {spec.index}: chief refused the connection "
                    f"({welcome.get('reason', 'unknown')})"
                )
            shapes = welcome.get("shapes")
            if shapes:
                # External workers bootstrap their tensor layout from the
                # WELCOME payload (their spec carries no shapes).
                self._shapes = tuple(tuple(int(d) for d in s) for s in shapes)
            if spec.generation == ANY_GENERATION:
                # Adopt the assigned generation: if the chief later gives
                # up on us and revives, our reconnect is refused and the
                # serve loop exits instead of injecting stale state.
                self._spec = spec = dataclasses.replace(
                    spec, generation=int(welcome.get("generation", 0))
                )
            with self._lock:
                self._sock = sock
                self._assembler = FrameAssembler()
            return welcome

    def _handshake(self, sock: socket.socket) -> dict:
        spec = self._spec
        sock.settimeout(spec.read_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = {
            "index": spec.index,
            "token": spec.token,
            "generation": spec.generation,
            "peer": socket.gethostname(),
            # Wall-clock stamp: the chief seeds its clock-skew estimate
            # from this (old chiefs simply ignore the extra key).
            "clock": time.time(),
        }
        sock.sendall(
            encode_frame(
                T_HELLO, pickle.dumps(hello, protocol=pickle.HIGHEST_PROTOCOL)
            )
        )
        assembler = FrameAssembler()
        while True:
            data = sock.recv(_RECV_CHUNK)
            if not data:
                raise FrameError("chief closed the connection during handshake")
            assembler.feed(data)
            for ftype, __, payload in assembler.iter_frames():
                if ftype == T_WELCOME:
                    welcome = pickle.loads(payload)
                    if not isinstance(welcome, dict):
                        raise FrameError("malformed WELCOME payload")
                    return welcome

    def _drop_connection(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def _reconnect(self) -> bool:
        """Redial with the same generation; False means permanently gone."""
        self._drop_connection()
        if self._closed:
            return False
        try:
            self._connect()
        except ChannelClosed:
            return False
        return True

    # ------------------------------------------------------------------
    # WorkerEndpoint protocol
    # ------------------------------------------------------------------
    def recv_command(self) -> Optional[Tuple[str, int, object]]:
        while True:
            frame = self._read_frame()
            if frame is None:
                return None
            ftype, __, payload = frame
            if ftype == T_TENSORS:
                try:
                    message = decode_tensors(payload, self._shapes)
                except FrameError:
                    continue
                # Only the newest broadcast matters; SYNC is strictly serial.
                self._weights = {message.seq: message.arrays}
                continue
            if ftype != T_CONTROL:
                continue  # WELCOME duplicates, heartbeats echoed, ...
            try:
                op, seq, command = decode_control(payload)
            except FrameError:
                continue
            if seq <= self._handled_seq:
                # Duplicate command (retransmit raced the reply): re-send
                # the cached reply frames, never re-execute — a command
                # may consume worker RNG at most once.
                self._resend_cached(seq)
                continue
            if op == _OP_SYNC and seq not in self._weights:
                # The weight broadcast for this SYNC was lost; stay
                # silent so the chief's retransmission re-ships both.
                continue
            self._staged = []
            return op, seq, command

    def _read_frame(self) -> Optional[Tuple[int, int, bytes]]:
        while True:
            with self._lock:
                sock = self._sock
                assembler = self._assembler
            if sock is None:
                if not self._reconnect():
                    return None
                continue
            try:
                frame = assembler.next_frame()
            except FrameError:
                if not self._reconnect():
                    return None
                continue
            if frame is not None:
                return frame
            try:
                data = sock.recv(_RECV_CHUNK)
            except OSError:
                if not self._reconnect():
                    return None
                continue
            if not data:
                if not self._reconnect():
                    return None
                continue
            try:
                assembler.feed(data)
            except FrameError:
                if not self._reconnect():
                    return None

    def send_reply(self, status: str, seq: int, payload: object) -> None:
        frame = encode_frame(T_CONTROL, encode_control(status, seq, payload))
        self._staged.append(frame)
        self._send(frame)
        self._cache_seq = seq
        self._cache_frames = list(self._staged)
        self._handled_seq = seq
        self._staged = []

    def read_weights(self, expected_seq: int) -> Sequence[np.ndarray]:
        arrays = self._weights.get(expected_seq)
        if arrays is None:
            raise RuntimeError(
                f"employee {self._spec.index}: no weight broadcast stamped "
                f"seq {expected_seq}"
            )
        return arrays

    def send_gradients(
        self,
        vector: np.ndarray,
        seq: int,
        episode: int,
        round_index: int,
    ) -> None:
        payload = encode_tensors(
            (vector,),
            seq=seq,
            episode=episode,
            round_index=round_index,
        )
        frame = encode_frame(T_TENSORS, payload)
        self._staged.append(frame)
        self._send(frame)

    def _resend_cached(self, seq: int) -> None:
        if seq != self._cache_seq:
            return  # older than the cache: the chief has long moved on
        for frame in self._cache_frames:
            self._send(frame)

    def _send(self, frame: bytes) -> None:
        with self._lock:
            sock = self._sock
            if sock is None:
                return  # the read loop reconnects; the chief retransmits
            try:
                # The serve loop and the heartbeat beacon share this
                # socket: the lock keeps their frames from interleaving.
                sock.sendall(frame)
            except OSError:
                try:
                    sock.close()
                except OSError:
                    pass
                self._sock = None

    def _heartbeat_loop(self) -> None:
        beat = encode_frame(T_HEARTBEAT, struct.pack(">q", self._spec.index))
        while not self._hb_stop.wait(self._spec.heartbeat_interval):
            self._send(beat)

    def close(self) -> None:
        self._closed = True
        self._hb_stop.set()
        self._hb_thread.join(timeout=2.0)
        self._drop_connection()
