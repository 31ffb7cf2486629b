"""Property tests for the socket transport's frame and tensor codecs.

The codec contract (PR 6): every byte crossing a host boundary is a
length-prefixed CRC32-checksummed frame, and damage of any kind — torn
streams, flipped bits, desynced magic, oversized lengths, truncated
pickles, layout disagreements — surfaces as :class:`FrameError`, never
as garbage handed to the trainer.  The float64 wire encoding round-trips
exact bytes (the bitwise-equivalence contract).
"""

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.transport import (
    FrameAssembler,
    FrameError,
    MAX_FRAME_BYTES,
    decode_control,
    decode_tensors,
    encode_control,
    encode_frame,
    encode_tensors,
    split_frames,
)
from repro.distributed.transport.framing import (
    FRAME_HEADER,
    MAGIC,
    T_CONTROL,
    T_HEARTBEAT,
    T_TENSORS,
    frame_types,
)
from repro.distributed.transport.netfaults import NetworkFaultPlan
from repro.distributed.transport.wire import TENSOR_HEADER, payload_nbytes

payloads = st.binary(min_size=0, max_size=4096)
types = st.sampled_from(frame_types())


# ----------------------------------------------------------------------
# Frame round-trips
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(types, payloads)
def test_frame_round_trip(ftype, payload):
    frames = split_frames(encode_frame(ftype, payload))
    assert frames == [(ftype, 0, payload)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(types, payloads), min_size=1, max_size=8))
def test_concatenated_frames_round_trip(messages):
    buffer = b"".join(encode_frame(t, p) for t, p in messages)
    assert split_frames(buffer) == [(t, 0, p) for t, p in messages]


@settings(max_examples=30, deadline=None)
@given(types, payloads, st.data())
def test_assembler_handles_arbitrary_chunking(ftype, payload, data):
    """TCP may deliver any byte split; reassembly must not care."""
    buffer = encode_frame(ftype, payload)
    cut = data.draw(st.integers(0, len(buffer)))
    assembler = FrameAssembler()
    assembler.feed(buffer[:cut])
    early = assembler.next_frame()
    assembler.feed(buffer[cut:])
    frames = ([early] if early is not None else []) + list(assembler.iter_frames())
    assert frames == [(ftype, 0, payload)]
    assembler.check_eof()  # nothing torn


def test_zero_and_slab_sized_payloads_round_trip():
    """The size extremes the trainer actually ships: empty control
    payloads up to multi-megabyte full-parameter broadcasts."""
    for size in (0, 1, FRAME_HEADER.size, 1 << 20):
        payload = np.random.default_rng(size).integers(
            0, 256, size, dtype=np.uint8
        ).tobytes()
        assert split_frames(encode_frame(T_TENSORS, payload)) == [
            (T_TENSORS, 0, payload)
        ]


def test_oversized_payload_refused_at_encode():
    class FakeLen(bytes):
        def __len__(self):
            return MAX_FRAME_BYTES + 1

    with pytest.raises(FrameError, match="exceeds"):
        encode_frame(T_CONTROL, FakeLen())


# ----------------------------------------------------------------------
# Damage detection
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(payloads.filter(bool), st.data())
def test_any_single_bit_flip_is_detected(payload, data):
    """Flip one bit anywhere in the frame: the decoder must raise, not
    deliver altered content."""
    buffer = bytearray(encode_frame(T_CONTROL, payload))
    position = data.draw(st.integers(0, len(buffer) - 1))
    bit = data.draw(st.integers(0, 7))
    buffer[position] ^= 1 << bit
    assembler = FrameAssembler()
    assembler.feed(bytes(buffer))
    try:
        frame = assembler.next_frame()
    except FrameError:
        return  # magic / type / length / CRC check fired
    if frame is None:
        # A length-field flip can make the frame look incomplete; EOF
        # then reports the torn remainder instead of delivering it.
        with pytest.raises(FrameError):
            assembler.check_eof()
        return
    raise AssertionError(f"bit flip at byte {position} went undetected: {frame}")


@settings(max_examples=40, deadline=None)
@given(types, payloads, st.data())
def test_torn_frame_raises_at_eof(ftype, payload, data):
    """A peer dying mid-write leaves a prefix; check_eof must flag it."""
    buffer = encode_frame(ftype, payload)
    cut = data.draw(st.integers(1, len(buffer) - 1))
    assembler = FrameAssembler()
    assembler.feed(buffer[:cut])
    assert assembler.next_frame() is None
    with pytest.raises(FrameError, match="torn"):
        assembler.check_eof()


def test_bad_magic_poisons_assembler():
    assembler = FrameAssembler()
    assembler.feed(b"XX" + encode_frame(T_HEARTBEAT, b"")[2:])
    with pytest.raises(FrameError, match="desynced"):
        assembler.next_frame()
    # Poisoned: the stream can never be trusted again.
    with pytest.raises(FrameError, match="poisoned"):
        assembler.feed(b"more")
    with pytest.raises(FrameError, match="poisoned"):
        assembler.next_frame()


def test_oversized_length_field_rejected_without_allocation():
    header = FRAME_HEADER.pack(MAGIC, T_TENSORS, 0, MAX_FRAME_BYTES + 1, 0)
    assembler = FrameAssembler()
    assembler.feed(header)
    with pytest.raises(FrameError, match="bound"):
        assembler.next_frame()


# ----------------------------------------------------------------------
# Control payloads
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["sync", "explore", "minibatch", "shutdown", "ok", "crash"]),
    st.integers(-(2**62), 2**62),
)
def test_control_round_trip(kind, seq):
    payload = {"result": [1.5, None], "nested": {"rng": (2, 3)}}
    assert decode_control(encode_control(kind, seq, payload)) == (kind, seq, payload)


def test_truncated_control_payload_raises():
    data = encode_control("explore", 7, {"x": 1})
    with pytest.raises(FrameError, match="undecodable"):
        decode_control(data[: len(data) - 3])


def test_malformed_control_shape_raises():
    with pytest.raises(FrameError, match="malformed"):
        decode_control(pickle.dumps((123, "not-an-int-seq", None)))


# ----------------------------------------------------------------------
# Tensor wire encoding
# ----------------------------------------------------------------------
SHAPES = [(3, 4), (7,), ()]


def _arrays(seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in SHAPES]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 50), st.integers(-1, 5))
def test_f64_wire_round_trips_exact_bits(seed, episode, round_index):
    arrays = _arrays(seed)
    payload = encode_tensors(arrays, seq=seed % 997, episode=episode,
                             round_index=round_index)
    assert len(payload) == payload_nbytes(SHAPES)
    assert payload[24] == 0  # dtype code byte: float64
    message = decode_tensors(payload, SHAPES)
    assert (message.seq, message.episode, message.round) == (
        seed % 997, episode, round_index,
    )
    for sent, got in zip(arrays, message.arrays):
        assert got.dtype == np.float64
        assert np.array_equal(sent, got)  # exact bytes, not approx


def test_layout_mismatch_raises():
    payload = encode_tensors(_arrays(0), seq=1)
    with pytest.raises(FrameError, match="agreed layout"):
        decode_tensors(payload, [(3, 4), (7,)])  # one array short
    with pytest.raises(FrameError, match="shorter than"):
        decode_tensors(payload[: TENSOR_HEADER.size - 1], SHAPES)


def test_unknown_wire_dtype_code_raises():
    """Code 1 is what an older peer stamped on a float32 frame: it must be
    refused, never mis-decoded as float64."""
    for code in (1, 200):
        payload = bytearray(encode_tensors(_arrays(0), seq=1))
        payload[24] = code  # dtype code byte
        with pytest.raises(FrameError, match="dtype code"):
            decode_tensors(bytes(payload), SHAPES)


# ----------------------------------------------------------------------
# Chaos plans are seed-deterministic
# ----------------------------------------------------------------------
def test_random_plan_is_deterministic_per_seed():
    kwargs = dict(
        num_employees=3,
        episodes=4,
        k_updates=2,
        drop_rate=0.2,
        duplicate_rate=0.2,
        corrupt_rate=0.1,
        delay_rate=0.1,
        partition_rate=0.05,
    )
    assert NetworkFaultPlan.random(11, **kwargs) == NetworkFaultPlan.random(
        11, **kwargs
    )
    assert NetworkFaultPlan.random(11, **kwargs) != NetworkFaultPlan.random(
        12, **kwargs
    )
