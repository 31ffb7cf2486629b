"""Tensor wire encoding for TENSORS frames.

Both ends of a channel know the parameter layout (the same
``shapes`` list the :class:`~repro.distributed.shm.TensorSlab` uses),
so a tensor message never ships shapes — only a small fixed header and
the concatenated array payloads in layout order::

    offset  size  field
    ------  ----  ---------------------------------------------
    0       8     seq (big-endian signed)   — slab-stamp equivalent
    8       8     episode (big-endian signed)
    16      8     round (big-endian signed)
    24      1     dtype code (always 0 = float64)
    25      7     reserved (zero)
    32      n     array payloads, contiguous, layout order

Arrays travel as float64, the exact bytes NumPy holds in memory, so every
weight broadcast and gradient return keeps the repo's bitwise-equivalence
contract.  The decoder refuses any other dtype code (a float32 frame from
an older peer included) rather than mis-read its payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ... import nn
from .framing import FrameError

__all__ = [
    "TENSOR_HEADER",
    "TensorMessage",
    "decode_tensors",
    "encode_tensors",
    "payload_nbytes",
]

TENSOR_HEADER = struct.Struct(">qqqB7x")

#: The one dtype code a TENSORS header may carry.
_FLOAT64_CODE = 0
_FLOAT64 = np.dtype(np.float64)


def payload_nbytes(shapes: Sequence[Tuple[int, ...]]) -> int:
    """Payload size (header included) of one tensor message for ``shapes``."""
    elems = sum(int(np.prod(shape, dtype=np.int64)) for shape in shapes)
    return TENSOR_HEADER.size + elems * _FLOAT64.itemsize


@dataclass(frozen=True)
class TensorMessage:
    """A decoded TENSORS payload: stamped metadata plus float64 arrays.

    ``vector`` is the whole payload, copied once out of the frame;
    ``arrays`` are its per-tensor views (:func:`repro.nn.unflatten_vector`).
    """

    seq: int
    episode: int
    round: int
    arrays: Tuple[np.ndarray, ...]
    nbytes: int
    vector: np.ndarray


def encode_tensors(
    arrays: Sequence[np.ndarray],
    seq: int,
    episode: int = -1,
    round_index: int = -1,
) -> bytes:
    """Serialize float64 ``arrays`` into one TENSORS payload (a single flat
    vector of the whole layout gives the same bytes)."""
    chunks = [
        TENSOR_HEADER.pack(int(seq), int(episode), int(round_index), _FLOAT64_CODE)
    ]
    for array in arrays:
        chunks.append(np.ascontiguousarray(array, dtype=_FLOAT64).tobytes())
    return b"".join(chunks)


def decode_tensors(
    payload: bytes, shapes: Sequence[Tuple[int, ...]]
) -> TensorMessage:
    """Parse one TENSORS payload into float64 arrays shaped as ``shapes``.

    Raises :class:`FrameError` when the payload does not match the layout
    both sides agreed on — a length mismatch means the peers disagree
    about the model architecture and nothing downstream can be trusted.
    """
    if len(payload) < TENSOR_HEADER.size:
        raise FrameError(
            f"tensor payload of {len(payload)} bytes is shorter than the "
            f"{TENSOR_HEADER.size}-byte header"
        )
    seq, episode, round_index, code = TENSOR_HEADER.unpack_from(payload)
    if code != _FLOAT64_CODE:
        raise FrameError(f"unknown tensor dtype code {code} (only 0 = float64)")
    expected = payload_nbytes(shapes)
    if len(payload) != expected:
        raise FrameError(
            f"tensor payload is {len(payload)} bytes but the agreed layout "
            f"needs {expected} ({len(shapes)} arrays)"
        )
    vector = np.frombuffer(payload, dtype=_FLOAT64, offset=TENSOR_HEADER.size).copy()
    return TensorMessage(
        seq=int(seq),
        episode=int(episode),
        round=int(round_index),
        arrays=tuple(nn.unflatten_vector(vector, shapes)),
        nbytes=len(payload),
        vector=vector,
    )
