"""Length-prefixed, CRC32-checksummed frames for the socket transport.

Every byte that crosses a host boundary travels inside a **frame**::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       2     magic  b"RB"  (catches stream desync / non-protocol peers)
    2       1     type   (HELLO/WELCOME/CONTROL/TENSORS/HEARTBEAT)
    3       1     flags  (reserved)
    4       4     length of payload, big-endian unsigned
    8       4     CRC32 over (type, flags, payload), big-endian unsigned
    12      n     payload

The layout is deliberately dumb: a fixed 12-byte header that can be read
with one ``struct`` call, a hard :data:`MAX_FRAME_BYTES` bound so a
corrupted length field can never allocate unbounded memory, and a CRC
over the payload *and* the type/flags bytes so a bit flip anywhere in
the semantic content is detected.  TCP's own checksum is famously weak
(16-bit, per segment, recomputed by middleboxes); the CRC is end-to-end.

:class:`FrameAssembler` is the incremental decoder: ``feed()`` it bytes
as they arrive and pop complete frames with ``next_frame()``.  A torn
frame (peer died mid-write) surfaces as :class:`FrameError` from
:meth:`FrameAssembler.check_eof`, a bad magic / CRC / oversized length
as :class:`FrameError` from ``next_frame()`` — never as garbage handed
to the payload decoder.

Control payloads (command/reply dicts, RNG state dicts) are pickled —
the same serialization the in-host ``multiprocessing`` pipes have always
used, so the trust domain is unchanged: frames are only accepted from
peers that presented the pool's secret token at HELLO time.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "FRAME_HEADER",
    "FrameAssembler",
    "FrameError",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "T_CONTROL",
    "T_HEARTBEAT",
    "T_HELLO",
    "T_TENSORS",
    "T_WELCOME",
    "decode_control",
    "encode_control",
    "encode_frame",
    "frame_types",
    "split_frames",
]

MAGIC = b"RB"

#: Fixed 12-byte header: magic, type, flags, payload length, CRC32.
FRAME_HEADER = struct.Struct(">2sBBII")

#: Hard upper bound on one frame's payload.  A corrupted length field
#: must never turn into an unbounded allocation; real payloads (full
#: CEWS parameter broadcasts) are a few MB.
MAX_FRAME_BYTES = 256 * 1024 * 1024

# Frame types.
T_HELLO = 1      # worker -> chief: {index, token, generation, pid}
T_WELCOME = 2    # chief -> worker: {generation, ...} or {refused}
T_CONTROL = 3    # command / reply tuples (pickled)
T_TENSORS = 4    # weight broadcast / gradient return (see transport.wire)
T_HEARTBEAT = 5  # worker -> chief liveness beacon

_TYPE_NAMES = {
    T_HELLO: "hello",
    T_WELCOME: "welcome",
    T_CONTROL: "control",
    T_TENSORS: "tensors",
    T_HEARTBEAT: "heartbeat",
}


def frame_types() -> Tuple[int, ...]:
    """Every valid frame-type byte (tests enumerate them)."""
    return tuple(sorted(_TYPE_NAMES))


def frame_type_name(ftype: int) -> str:
    """Human-readable frame-type name (metrics labels, errors)."""
    return _TYPE_NAMES.get(ftype, f"unknown({ftype})")


class FrameError(RuntimeError):
    """A frame failed structural validation (magic/length/CRC/torn)."""


def _crc(ftype: int, flags: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes((ftype, flags)))) & 0xFFFFFFFF


def encode_frame(ftype: int, payload: bytes, flags: int = 0) -> bytes:
    """One complete frame for ``payload``; raises on oversized payloads."""
    if ftype not in _TYPE_NAMES:
        raise FrameError(f"cannot encode unknown frame type {ftype}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    header = FRAME_HEADER.pack(
        MAGIC, ftype, flags, len(payload), _crc(ftype, flags, payload)
    )
    return header + payload


class FrameAssembler:
    """Incremental frame decoder over an arbitrary byte stream.

    ``feed()`` appends received bytes; ``next_frame()`` pops the next
    complete ``(type, flags, payload)`` triple or returns ``None`` when
    more bytes are needed.  Validation failures raise :class:`FrameError`
    and poison the assembler — a desynced byte stream cannot be trusted
    again, the connection must be torn down and re-established.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned: Optional[str] = None

    def feed(self, data: bytes) -> None:
        if self._poisoned is not None:
            raise FrameError(f"assembler poisoned: {self._poisoned}")
        self._buffer.extend(data)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed as a complete frame."""
        return len(self._buffer)

    def _poison(self, reason: str) -> FrameError:
        self._poisoned = reason
        return FrameError(reason)

    def next_frame(self) -> Optional[Tuple[int, int, bytes]]:
        """The next complete ``(type, flags, payload)``, else ``None``."""
        if self._poisoned is not None:
            raise FrameError(f"assembler poisoned: {self._poisoned}")
        if len(self._buffer) < FRAME_HEADER.size:
            return None
        magic, ftype, flags, length, crc = FRAME_HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            raise self._poison(
                f"bad frame magic {bytes(magic)!r}: stream is desynced"
            )
        if ftype not in _TYPE_NAMES:
            raise self._poison(f"unknown frame type {ftype}")
        if length > MAX_FRAME_BYTES:
            raise self._poison(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
            )
        if len(self._buffer) < FRAME_HEADER.size + length:
            return None
        payload = bytes(self._buffer[FRAME_HEADER.size : FRAME_HEADER.size + length])
        if _crc(ftype, flags, payload) != crc:
            raise self._poison(
                f"CRC mismatch on a {frame_type_name(ftype)} frame "
                f"({length} payload bytes)"
            )
        del self._buffer[: FRAME_HEADER.size + length]
        return ftype, flags, payload

    def iter_frames(self) -> Iterator[Tuple[int, int, bytes]]:
        """Pop every currently complete frame."""
        while True:
            frame = self.next_frame()
            if frame is None:
                return
            yield frame

    def check_eof(self) -> None:
        """Raise :class:`FrameError` if the stream ended mid-frame."""
        if self._buffer:
            raise self._poison(
                f"stream ended with {len(self._buffer)} bytes of a torn frame"
            )


def split_frames(buffer: bytes) -> List[Tuple[int, int, bytes]]:
    """Decode a complete buffer into frames (tests / diagnostics).

    Raises :class:`FrameError` on any structural problem, including
    trailing torn bytes.
    """
    assembler = FrameAssembler()
    assembler.feed(buffer)
    frames = list(assembler.iter_frames())
    assembler.check_eof()
    return frames


# ----------------------------------------------------------------------
# Control payloads
# ----------------------------------------------------------------------
def encode_control(kind: str, seq: int, payload: object) -> bytes:
    """Serialize one command/reply triple for a CONTROL frame."""
    return pickle.dumps((kind, int(seq), payload), protocol=pickle.HIGHEST_PROTOCOL)


def decode_control(data: bytes) -> Tuple[str, int, object]:
    """Parse a CONTROL frame payload; raises :class:`FrameError` on junk."""
    try:
        kind, seq, payload = pickle.loads(data)
    except Exception as error:  # truncated pickle, wrong shape, ...
        raise FrameError(f"undecodable control payload: {error}") from None
    if not isinstance(kind, str) or not isinstance(seq, int):
        raise FrameError(
            f"malformed control payload (kind={type(kind).__name__}, "
            f"seq={type(seq).__name__})"
        )
    return kind, seq, payload
