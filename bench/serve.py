"""Benchmark side of ``serve_unique`` / ``serve_repeat_reload``.

The program is the real ``python -m repro serve`` CLI in its own process
tree.  This process is the load generator: one pump thread multiplexes
``CONNECTIONS`` framed-TCP connections with ``PIPELINE`` requests in
flight on each (a closed loop: a fleet controller sends its next state
only after it got its joint action), so 16 fleets are in flight.  op =
one request answered.

The generator is kept out of the measurement: frames are pre-encoded
between segments, replies are parsed with a header-only fast path except
on the verified 1-in-16 sample, and its own CPU share is reported and
bounded.
"""

from __future__ import annotations

import http.client
import json
import math
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from control import ControlKernel
from inputs import VERIFY_EVERY, ServeInputs, zipf_indices
from proc import (
    InvalidRun,
    Placement,
    cpu_seconds,
    peak_rss_mib,
    program_env,
    shm_segments,
    signal_on_parent_death,
    stop_process,
    tree_pids,
)
from repro.serve.protocol import decode_message, encode_infer, encode_info
from stats import Segment, summarise

__all__ = ["run_serve", "WORKLOADS"]

CONNECTIONS = 2
PIPELINE = 8
SOCKET_TIMEOUT_S = 10.0
#: A serve run is invalid when the load generator itself used more than
#: this share of a segment's wall time.
MAX_CLIENT_CPU_SHARE = 0.3

#: requests per segment, distinct states, reload cadence (0 = never).
WORKLOADS = {
    "serve_unique": {"segment": 1000, "states": 4096, "verify_every": VERIFY_EVERY,
                     "reload_every": 0},
    "serve_repeat_reload": {"segment": 5000, "states": 64, "verify_every": 1,
                            "reload_every": 4},
}
_ZIPF_EXPONENT = 1.3
_HEADER = 12
_LENGTH = struct.Struct(">I")
_INT32 = struct.Struct("<i")


def peek_reply(buffer, start: int) -> Optional[Tuple[bool, int]]:
    """``(kind == "result", seq)`` read from the first bytes of the pickled
    control tuple at ``buffer[start:]``, without unpickling the arrays
    behind them; ``None`` when the layout is not the one pickle protocol 5
    writes for ``(str, int, dict)`` (the caller then decodes in full)."""
    if buffer[start] != 0x80 or buffer[start + 2] != 0x95 or buffer[start + 11] != 0x8C:
        return None
    end = start + 13 + buffer[start + 12]
    if buffer[end] != 0x94:
        return None
    is_result = buffer[start + 13 : end] == b"result"
    op = buffer[end + 1]
    if op == 0x4B:
        return is_result, buffer[end + 2]
    if op == 0x4D:
        return is_result, buffer[end + 2] | buffer[end + 3] << 8
    if op == 0x4A:
        return is_result, _INT32.unpack_from(buffer, end + 2)[0]
    return None


class ServerProgram:
    """One ``python -m repro serve`` process with CLI defaults.  Use as a
    context manager: on the way out the process tree is dead."""

    def __init__(self, checkpoint: str):
        env = program_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--checkpoint", checkpoint,
             "--port", "0", "--http-port", "0"],
            stdout=subprocess.PIPE, env=env, text=True,
            preexec_fn=signal_on_parent_death(signal.SIGINT),
        )
        self.port = self.http_port = None
        while self.http_port is None:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"serve CLI exited during start-up (code {self.process.poll()})"
                )
            if "tcp://" in line:
                self.port = int(line.rsplit(":", 1)[1])
            elif "http://" in line:
                self.http_port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        self.pids = [self.process.pid]

    def __enter__(self) -> "ServerProgram":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:  # unwinding: still the graceful path
            self.stop()
        self.process.stdout.close()

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=SOCKET_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def reload(self, checkpoint: str) -> Tuple[float, float, int]:
        """``POST /-/reload``; ``(start, end, generation)``."""
        start = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.http_port,
                                                timeout=SOCKET_TIMEOUT_S)
        try:
            connection.request("POST", "/-/reload",
                               body=json.dumps({"checkpoint": checkpoint}))
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        if response.status != 200:
            raise InvalidRun(f"reload refused: {body}")
        return start, time.perf_counter(), int(body["generation"])

    def stop(self) -> List[int]:
        """SIGINT is the CLI's graceful path; returns orphaned pids."""
        self.pids = tree_pids(self.process.pid)
        self.process.send_signal(signal.SIGINT)
        return stop_process(self.process, self.pids)


def _round_trip(sock: socket.socket, frame: bytes) -> bytes:
    """Send one frame, return the payload of the one reply."""
    sock.sendall(frame)
    buffer = bytearray()
    while len(buffer) < _HEADER or len(buffer) < _HEADER + int.from_bytes(buffer[4:8], "big"):
        data = sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        buffer += data
    return bytes(buffer[_HEADER:])


def _info(sock: socket.socket) -> Dict:
    return decode_message(_round_trip(sock, encode_info(0)))[2]


class Checker:
    """Output checks on the verified sample; every miss is a failed op."""

    def __init__(self, inputs: ServeInputs, expect_cached: bool):
        self.inputs = inputs
        self.expect_cached = expect_cached
        self.failures = 0
        self.verified = 0
        self.notes: List[str] = []
        self._last_generation: Dict[int, int] = {}

    def fail(self, note: str) -> None:
        self.failures += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def check(self, connection: int, state_index: int, payload: bytes, seq: int) -> None:
        kind, reply_seq, body = decode_message(payload)
        self.verified += 1
        if kind != "result" or reply_seq != seq:
            return self.fail(f"reply {kind!r} seq {reply_seq}, expected result seq {seq}")
        generation = int(body["generation"])
        if generation < self._last_generation.get(connection, 0):
            self.fail(f"generation went backwards on connection {connection}")
        self._last_generation[connection] = generation
        if body["cached"] and not self.expect_cached:
            self.fail("cached flag set on a workload that never repeats a state")
        table = self.inputs.expected[(generation - 1) % len(self.inputs.expected)]
        moves, charges = table[state_index]
        if not (np.array_equal(body["moves"], moves)
                and np.array_equal(body["charges"], charges)):
            self.fail(f"state {state_index}: served action differs from offline "
                      f"act_full(greedy=True) at generation {generation}")


def pump(
    socks: List[socket.socket],
    frames: List[List[bytes]],
    first_seq: List[int],
    sample: List[List[bool]],
    progress: List[int],
) -> Tuple[List[np.ndarray], List[np.ndarray], List[Tuple[int, int, bytes]], int]:
    """Drive one segment: ``frames[c]`` over ``socks[c]``, ``PIPELINE`` in
    flight each; replies at positions where ``sample[c]`` is set are kept
    for verification.  Returns per-connection send times and latencies (s,
    NaN where the reply was not a ``result``), the sampled ``(connection,
    position, payload)`` replies, and the count of non-``result`` replies."""
    poller = select.epoll()  # bare epoll: half the per-wake-up cost of selectors
    by_fd = {sock.fileno(): c for c, sock in enumerate(socks)}
    count = [len(f) for f in frames]
    sent_at = [[0.0] * n for n in count]
    latency = [[math.nan] * n for n in count]
    next_up = [0] * len(socks)
    buffers = [bytearray() for __ in socks]
    sampled: List[Tuple[int, int, bytes]] = []
    bad = 0
    remaining = sum(count)
    try:
        for c, sock in enumerate(socks):
            poller.register(sock.fileno(), select.EPOLLIN)
            depth = next_up[c] = min(PIPELINE, count[c])
            sent_at[c][:depth] = [time.perf_counter()] * depth
            sock.sendall(b"".join(frames[c][:depth]))
        while remaining:
            events = poller.poll(SOCKET_TIMEOUT_S)
            if not events:
                raise InvalidRun(f"no reply within {SOCKET_TIMEOUT_S:.0f} s")
            for fd, __ in events:
                c = by_fd[fd]
                data = socks[c].recv(1 << 16)
                if not data:
                    raise InvalidRun("server closed a connection mid-segment")
                now = time.perf_counter()
                buffer = buffers[c]
                buffer += data
                filled = len(buffer)
                sent, lat, mine, want = sent_at[c], latency[c], frames[c], sample[c]
                first, total, upcoming = first_seq[c], count[c], next_up[c]
                position = 0
                refill = []
                while filled - position >= _HEADER:
                    body = position + _HEADER
                    end = body + _LENGTH.unpack_from(buffer, position + 4)[0]
                    if end > filled:
                        break
                    position = end
                    peeked = peek_reply(buffer, body)
                    if peeked is None:
                        kind, seq, __ = decode_message(bytes(buffer[body:end]))
                        peeked = (kind == "result", seq)
                    index = peeked[1] - first
                    if not 0 <= index < total:
                        # Not of this segment: the reply it displaced never
                        # comes and the select() timeout ends the run.
                        bad += 1
                        continue
                    remaining -= 1
                    if peeked[0]:
                        lat[index] = now - sent[index]
                    else:
                        bad += 1
                    if want[index]:
                        sampled.append((c, index, bytes(buffer[body:end])))
                    if upcoming < total:
                        refill.append(mine[upcoming])
                        sent[upcoming] = now
                        upcoming += 1
                next_up[c] = upcoming
                del buffer[:position]
                if refill:
                    socks[c].sendall(b"".join(refill))
            progress[0] = sum(count) - remaining
    finally:
        poller.close()
    return ([np.array(x) for x in sent_at], [np.array(x) for x in latency],
            sampled, bad)


def measure_setup(inputs: ServeInputs, control: ControlKernel) -> Tuple[float, float, int]:
    """One fresh set-up: spawn the CLI -> first verified reply."""
    shm_before = shm_segments()
    before = control.measure_ms()
    checker = Checker(inputs, expect_cached=False)
    with ServerProgram(inputs.checkpoints[0]) as server:
        with server.connect() as sock:
            payload = _round_trip(sock, encode_infer(inputs.requests[0], 1))
            raw = time.perf_counter() - server.spawned_at
        checker.check(0, 0, payload, 1)
        orphans = server.stop()
    after = control.measure_ms()
    failures = checker.failures + len(orphans) + len(shm_segments() - shm_before)
    return raw, 0.5 * (before + after), failures


class LoadSession:
    """The load generator's state against one running server: the request
    stream, its connections, and what came back."""

    def __init__(self, name: str, inputs: ServeInputs, seed: int,
                 server: ServerProgram, checker: Checker):
        spec = WORKLOADS[name]
        self.inputs = inputs
        self.server = server
        self.checker = checker
        self.repeat = spec["reload_every"] > 0
        self.per_segment = spec["segment"]
        self.rng = np.random.default_rng(seed)
        self.verifiable = np.array(sorted(inputs.expected[0]))
        self.socks = [server.connect() for __ in range(CONNECTIONS)]
        # Position in the endless request stream; state 0 is the set-up's
        # first request (served and cached), so the stream starts after it.
        self.cursor = 1
        self.seq = 2
        self.pids: List[int] = []
        self.attempted = 0
        self.bad_replies = 0
        self.reload_calls_ms: List[float] = []
        self.reload_stalls_ms: List[float] = []

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    def _next_segment(self):
        """Pre-encode one segment (outside every timed interval)."""
        requests = self.inputs.requests
        if self.repeat:
            states = zipf_indices(self.rng, self.per_segment, len(requests), _ZIPF_EXPONENT)
        else:
            states = (self.cursor + np.arange(self.per_segment)) % len(requests)
        self.cursor += self.per_segment
        share = self.per_segment // CONNECTIONS
        frames, first, chosen, sample = [], [], [], []
        for c in range(CONNECTIONS):
            mine = states[c * share : (c + 1) * share]
            frames.append(
                [encode_infer(requests[s], self.seq + i) for i, s in enumerate(mine)]
            )
            first.append(self.seq)
            chosen.append(mine)
            wanted = np.isin(mine, self.verifiable)
            if self.repeat:  # every state is verifiable: thin to 1 in 16
                wanted &= np.arange(share) % VERIFY_EVERY == 0
            sample.append(wanted.tolist())
            self.seq += share
        return frames, first, chosen, sample

    def run_segment(self, reload_to: Optional[str] = None) -> Tuple[Segment, float]:
        """One closed-loop segment; with ``reload_to``, a hot reload is
        issued from this (helper) thread once half the replies are in.
        Returns the segment (controls not yet filled in) and the
        generator's own CPU share of its wall."""
        frames, first, chosen, sample = self._next_segment()
        progress = [0]
        result: Dict[str, object] = {}

        def work():
            try:
                result["out"] = pump(self.socks, frames, first, sample, progress)
            except BaseException as error:  # re-raised on the main thread
                result["error"] = error

        own_cpu = time.process_time()
        cpu_start = cpu_seconds(self.pids)
        started = time.perf_counter()
        thread = threading.Thread(target=work, name="bench-pump")
        thread.start()
        reloaded = None
        if reload_to is not None:
            while progress[0] < self.per_segment // 2 and thread.is_alive():
                time.sleep(0.001)
            reloaded = self.server.reload(reload_to)
        thread.join()
        ended = time.perf_counter()
        cpu_end = cpu_seconds(self.pids)
        own_cpu = time.process_time() - own_cpu
        if "error" in result:
            raise result["error"]
        sent_at, latency, sampled, bad = result["out"]
        self.bad_replies += bad
        self.attempted += self.per_segment
        for c, index, payload in sampled:
            self.checker.check(c, int(chosen[c][index]), payload, first[c] + index)
        everything = np.concatenate(latency)
        if reloaded is not None:
            call_start, call_end, __ = reloaded
            self.reload_calls_ms.append((call_end - call_start) * 1e3)
            sent = np.concatenate(sent_at)
            in_flight = (sent < call_end) & (sent + everything > call_start)
            if in_flight.any():
                self.reload_stalls_ms.append(float(np.nanmax(everything[in_flight])) * 1e3)
        segment = Segment(
            ops=self.per_segment,
            wall_s=ended - started,
            latencies_ms=everything[~np.isnan(everything)] * 1e3,
            cpu_s=cpu_end - cpu_start,
            control_before_ms=0.0,
            control_after_ms=0.0,
        )
        return segment, own_cpu / (ended - started)


def run_serve(
    name: str,
    inputs: ServeInputs,
    seed: int,
    seconds: float,
    setups: int,
    control: ControlKernel,
    control_ref_ms: float,
) -> Dict[str, object]:
    """One end-to-end pass of a serving workload."""
    with Placement(control) as placement:
        return _run_serve(name, inputs, seed, seconds, setups, control,
                          control_ref_ms, placement)


def _run_serve(name, inputs, seed, seconds, setups, control, control_ref_ms, placement):
    reload_every = WORKLOADS[name]["reload_every"]
    failures = 0
    setup_samples = []
    for __ in range(max(setups - 1, 0)):
        raw, local, failed = measure_setup(inputs, control)
        setup_samples.append(raw * control_ref_ms / local)
        failures += failed

    shm_before = shm_segments()
    checker = Checker(inputs, expect_cached=reload_every > 0)
    segments: List[Segment] = []
    client_shares: List[float] = []
    before = control.measure_ms()
    with ServerProgram(inputs.checkpoints[0]) as server:
        session = LoadSession(name, inputs, seed, server, checker)
        try:
            # The measured pass's own start is the last set-up sample.
            payload = _round_trip(session.socks[0], encode_infer(inputs.requests[0], 1))
            first_raw = time.perf_counter() - server.spawned_at
            checker.check(0, 0, payload, 1)
            after = control.measure_ms()
            if setups:
                setup_samples.append(first_raw * control_ref_ms / (0.5 * (before + after)))

            session.pids = placement.spread(server.process.pid)
            session.run_segment()  # warm-up: plans built and validated, cache primed
            session.attempted = 0
            info_before = _info(session.socks[0])

            window_start = time.perf_counter()
            control_before = control.measure_ms()
            while True:
                reload_to = None
                if reload_every and len(segments) % reload_every == reload_every // 2:
                    # Generations alternate b, a, b, ... (generation 1 is a).
                    reload_to = inputs.checkpoints[(len(session.reload_calls_ms) + 1) % 2]
                segment, client_share = session.run_segment(reload_to)
                control_after = control.measure_ms()
                segment.control_before_ms = control_before
                segment.control_after_ms = control_after
                control_before = control_after
                segments.append(segment)
                client_shares.append(client_share)
                reloaded = not reload_every or session.reload_stalls_ms
                if reloaded and time.perf_counter() - window_start >= seconds:
                    break
            window = time.perf_counter() - window_start
            info_after = _info(session.socks[0])
            rss = peak_rss_mib(session.pids)
        finally:
            session.close()
        orphans = server.stop()

    notes = list(checker.notes)
    failures += checker.failures + session.bad_replies
    if session.bad_replies:
        notes.append(f"{session.bad_replies} replies were refused or not a result")
    if orphans:
        failures += len(orphans)
        notes.append(f"orphaned processes after SIGINT: {orphans}")
    leaked = shm_segments() - shm_before
    if leaked:
        failures += len(leaked)
        notes.append(f"leaked shared memory: {sorted(leaked)}")
    client_share = float(np.median(client_shares))
    if client_share > MAX_CLIENT_CPU_SHARE:
        raise InvalidRun(
            f"load generator used {client_share:.2f} of a segment's wall "
            f"(limit {MAX_CLIENT_CPU_SHARE})"
        )

    cache = {k: info_after["cache"][k] - info_before["cache"][k]
             for k in ("hits", "misses", "evictions")}
    batcher = {k: info_after["batcher"][k] - info_before["batcher"][k]
               for k in ("submitted", "rejected", "batches")}
    if not reload_every and cache["hits"]:
        failures += cache["hits"]
        notes.append(f"{cache['hits']} cache hits on a workload of distinct states")

    summary = summarise(segments, control_ref_ms)
    metrics = {
        "ops_per_s": summary["ops_per_s"],
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "cpu_ms_per_op": summary["cpu_ms_per_op"],
        "peak_rss_mb": rss,
    }
    if setups:
        metrics["setup_s"] = float(np.median(setup_samples))
    live = {
        "serve.cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
        "serve.batcher.mean_batch_rows": batcher["submitted"] / batcher["batches"],
        "serve.server.rejected": batcher["rejected"],
    }
    if reload_every:
        live["serve.server.reload_call_ms"] = float(np.median(session.reload_calls_ms))
        live["serve.server.reload_stall_ms"] = float(np.median(session.reload_stalls_ms))
    return {
        "metrics": metrics,
        "attempted": session.attempted,
        "failed": failures,
        "notes": notes,
        "live": live,
        "harness": {
            "harness.control_ms": summary["harness.control_ms"],
            "harness.slowdown": summary["harness.slowdown"],
            "harness.raw_ops_per_s": summary["harness.raw_ops_per_s"],
            "harness.client_cpu_share": client_share,
        },
        "detail": {
            "segments": len(segments),
            "requests_per_segment": session.per_segment,
            "samples_beyond_p90": summary["samples_beyond_p90"],
            "verified_replies": checker.verified,
            "reloads": len(session.reload_calls_ms),
            "window_s": window,
            "setup_samples_s": setup_samples,
            "cache": cache,
            "batcher": batcher,
        },
    }
