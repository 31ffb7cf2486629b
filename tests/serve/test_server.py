"""End-to-end serving tests: TCP + HTTP front doors, micro-batching,
backpressure, hot reload, metrics, and shutdown hygiene.

Everything runs against an :class:`InlinePool` (in-process engine) so
the suite stays fast; the fork-worker pool has its own test below that
additionally checks shared-memory hygiene.
"""

import asyncio
import glob
import json
import signal
import socket
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.distributed.transport.framing import (
    FrameAssembler,
    T_CONTROL,
    encode_control,
    encode_frame,
)
from repro.env import CrowdsensingEnv
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import MAX_BODY_BYTES
from repro.serve import (
    InferenceServer,
    InferRequest,
    InlinePool,
    Overloaded,
    PolicyEngine,
    ServeClient,
    ServeWorkerPool,
    WorkerCrashed,
)
from repro.serve.protocol import (
    decode_message,
    encode_infer,
    encode_info,
    encode_result,
)

from ..conftest import process_alive as _alive
from .conftest import assert_bitwise, capture_cases, serve_cli


class ServerThread:
    """An InferenceServer running on its own event loop thread."""

    def __init__(self, pool, server_cls=InferenceServer, **kwargs):
        self._server_cls = server_cls
        kwargs.setdefault("registry", MetricsRegistry())
        kwargs.setdefault("port", 0)
        kwargs.setdefault("http_port", 0)
        self._kwargs = kwargs
        self._pool = pool
        self._ready = threading.Event()
        self.server = None
        self.loop = None
        self.error = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        try:
            asyncio.run(self._amain())
        except Exception as error:  # pragma: no cover
            self.error = error
            self._ready.set()

    async def _amain(self):
        self.server = self._server_cls(self._pool, **self._kwargs)
        await self.server.start()
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server failed to start"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self, timeout=30.0):
        """Run ``server.stop()`` and wait for the loop thread to exit."""
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "server thread failed to exit"

    @property
    def port(self):
        return self.server.port

    def http(self, path, body=None, timeout=30):
        url = f"http://{self.server.http_address}{path}"
        if body is None:
            request = urllib.request.Request(url)
        else:
            request = urllib.request.Request(
                url,
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode()


class SpyServer(InferenceServer):
    """An InferenceServer that keeps every accepted connection's writer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writers = []

    async def _serve_conn(self, reader, writer):
        self.writers.append(writer)
        await super()._serve_conn(reader, writer)


PIPELINED = 512


def stall_a_peer(harness, request):
    """Connect a peer that pipelines ``PIPELINED`` copies of ``request``
    and never reads a reply; returns (the first reply, its socket).

    One ordinary request goes first, so the pipelined ones are cache
    hits.  Kernel buffers are small on both ends (accepted sockets
    inherit the listener's), so what the server owes sits in its
    transport's buffer where flow control can see it.
    """
    with ServeClient("127.0.0.1", harness.port) as client:
        first = client.infer_request(request)
    listener = harness.server._server.sockets[0]
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    stuck = socket.socket()
    try:
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stuck.settimeout(0.5)
        stuck.connect(("127.0.0.1", harness.port))
        try:
            stuck.sendall(
                b"".join(encode_infer(request, seq) for seq in range(PIPELINED))
            )
        except socket.timeout:
            pass  # the server stopped reading us: the point
        deadline = time.monotonic() + 20
        while len(harness.server.writers) < 2:
            assert time.monotonic() < deadline, "the stalled peer was never accepted"
            time.sleep(0.01)
    except BaseException:
        stuck.close()
        raise
    return first, stuck


@pytest.fixture
def cases(tiny_config, agent):
    env = CrowdsensingEnv(tiny_config)
    return capture_cases(env, agent, 6, seeds=[None, 11, None, 7, 11, None])


class TestTcpFrontDoor:
    def test_concurrent_mixed_duplicates_are_bitwise(self, network_state, cases):
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool, max_batch=4, max_delay=0.005) as harness:
            failures = []

            def pump(thread_index):
                try:
                    with ServeClient("127.0.0.1", harness.port) as client:
                        # Duplicate-heavy: every thread sends every case.
                        for request, expected in cases:
                            result = client.infer_request(request)
                            assert_bitwise(result, expected)
                            assert result.generation == 1
                except Exception as error:
                    failures.append((thread_index, error))

            threads = [
                threading.Thread(target=pump, args=(k,)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert failures == []
            stats = harness.server.cache.stats()
            assert stats["hits"] + stats["misses"] == 24
            # Concurrent duplicates may all race past the cache (misses
            # dispatch before any put lands); a sequential second pass
            # over the same keys must hit every time.
            with ServeClient("127.0.0.1", harness.port) as client:
                for request, expected in cases:
                    result = client.infer_request(request)
                    assert result.cached is True
                    assert_bitwise(result, expected)
            assert harness.server.cache.stats()["hits"] >= stats["hits"] + 6

    def test_cached_answers_are_bitwise_and_flagged(self, network_state, cases):
        pool = InlinePool(network_state, generation=1)
        request, expected = cases[0]
        with ServerThread(pool) as harness:
            with ServeClient("127.0.0.1", harness.port) as client:
                first = client.infer_request(request)
                second = client.infer_request(request)
        assert first.cached is False
        assert second.cached is True
        assert_bitwise(first, expected)
        assert_bitwise(second, expected)

    def test_info_round_trip(self, network_state):
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool, max_batch=3) as harness:
            with ServeClient("127.0.0.1", harness.port) as client:
                info = client.info()
        assert info["generation"] == 1
        assert info["max_batch"] == 3


def read_replies(sock, count=None):
    """Decoded ``(kind, seq, body)`` replies off ``sock`` — ``count`` of
    them, or all until the server closes — and how many ``recv`` calls
    returned data.  The assembler checks every frame's CRC, so replies
    that interleaved on the wire raise here."""
    assembler = FrameAssembler()
    replies = []
    recvs = 0
    while count is None or len(replies) < count:
        data = sock.recv(1 << 16)
        if not data:
            assert count is None, "server closed the connection early"
            break
        recvs += 1
        assembler.feed(data)
        replies.extend(
            decode_message(payload)
            for ftype, __, payload in assembler.iter_frames()
            if ftype == T_CONTROL
        )
    assert assembler.pending_bytes == 0
    return replies, recvs


class TestReplyOutbox:
    """Replies leave through a per-connection outbox flushed once per
    event-loop tick, with the read loop gated on ``drain()``."""

    def test_pipelined_replies_coalesce_and_never_interleave(
        self, network_state, cases
    ):
        frames_per_conn = 64
        hits = [cases[0][0], cases[1][0]]
        reference = PolicyEngine(network_state)

        def script(conn):
            """(frame, expected kind, request or None) per position."""
            out = []
            for i in range(frames_per_conn):
                seq = 1000 * conn + i
                if i == 20:
                    out.append((encode_info(seq), "served", None))
                elif i == 41:
                    # Sampled without a seed: refused at decode time,
                    # before the seq is known to the handler.
                    bad = encode_control(
                        "infer",
                        seq,
                        {
                            "state": hits[0].state,
                            "move_mask": hits[0].move_mask,
                            "worker_features": hits[0].worker_features,
                            "greedy": False,
                        },
                    )
                    out.append((encode_frame(T_CONTROL, bad), "error", None))
                elif i % 2 == 0:
                    request = hits[(i // 2) % 2]
                    out.append((encode_infer(request, seq), "result", request))
                else:
                    base = cases[2 + i % 4][0]
                    request = InferRequest(  # a seed nobody sent before: a miss
                        state=base.state,
                        move_mask=base.move_mask,
                        worker_features=base.worker_features,
                        greedy=False,
                        seed=seq,
                    )
                    out.append((encode_infer(request, seq), "result", request))
            return out

        outcomes = {}

        def drive(conn, port):
            try:
                sent = script(conn)
                with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                    sock.sendall(b"".join(frame for frame, __, __ in sent))
                    outcomes[conn] = (sent, *read_replies(sock, len(sent)))
            except Exception as error:
                outcomes[conn] = error

        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool, max_batch=8, max_delay=0.002) as harness:
            with ServeClient("127.0.0.1", harness.port) as client:
                for request in hits:
                    client.infer_request(request)
            threads = [
                threading.Thread(target=drive, args=(conn, harness.port))
                for conn in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            cache = harness.server.cache.stats()

        for conn in range(2):
            assert not isinstance(outcomes[conn], Exception), outcomes[conn]
            sent, replies, recvs = outcomes[conn]
            assert len(replies) == frames_per_conn
            by_seq = {seq: (kind, body) for kind, seq, body in replies}
            assert len(by_seq) == frames_per_conn  # each answered exactly once
            for i, (__, kind, request) in enumerate(sent):
                seq = -1 if kind == "error" else 1000 * conn + i
                got_kind, body = by_seq[seq]
                assert got_kind == kind
                if request is not None:
                    [expected] = reference.infer_batch([request])
                    assert np.array_equal(body["moves"], expected.moves)
                    assert np.array_equal(body["charges"], expected.charges)
                    assert body["log_prob"] == expected.log_prob
                    assert body["value"] == expected.value
                    assert body["cached"] == (i % 2 == 0)
            # Coalescing is observable from outside: fewer wake-ups than
            # reply frames.
            assert recvs < frames_per_conn
        assert cache["hits"] == 2 * 31 and cache["misses"] == 2 + 2 * 31

    def test_client_that_never_reads_stops_being_read(self, network_state, cases):
        request, __ = cases[0]
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool, server_cls=SpyServer) as harness:
            first, stuck = stall_a_peer(harness, request)
            try:
                reply_len = len(encode_result(first, PIPELINED))
                request_len = len(encode_infer(request, PIPELINED))
                transport = harness.server.writers[-1].transport
                high = transport.get_write_buffer_limits()[1]
                # Per read chunk the loop queues that chunk's replies and
                # then waits on drain().
                bound = high + ((1 << 16) // request_len + 2) * reply_len
                assert bound < PIPELINED * reply_len  # the bound bites
                # Settled = past the high-water mark (flow control has
                # engaged) and then unchanged for half a second.
                size, stable_since = -1, time.monotonic()
                deadline = time.monotonic() + 20
                while size <= high or time.monotonic() - stable_since < 0.5:
                    assert time.monotonic() < deadline, "write buffer never settled"
                    now = transport.get_write_buffer_size()
                    if now != size:
                        size, stable_since = now, time.monotonic()
                    time.sleep(0.02)
                assert high < size <= bound
                # The stalled connection does not stall the server.
                other, expected = cases[1]
                with ServeClient("127.0.0.1", harness.port) as client:
                    assert_bitwise(client.infer_request(other), expected)
            finally:
                stuck.close()

    def test_stop_is_bounded_while_a_peer_never_reads(self, network_state, cases):
        """A connected peer that never reads cannot hold ``stop()``: the
        close its connection is owed has a fixed bound, then the
        transport is aborted."""
        request, __ = cases[0]
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool, server_cls=SpyServer) as harness:
            __, stuck = stall_a_peer(harness, request)
            try:
                transport = harness.server.writers[-1].transport
                deadline = time.monotonic() + 20
                while transport.get_write_buffer_size() == 0:
                    assert time.monotonic() < deadline, "no reply ever backed up"
                    time.sleep(0.02)
                started = time.monotonic()
                harness.stop(timeout=3.0)  # the peer is still connected
                assert time.monotonic() - started < 3.0
            finally:
                stuck.close()

    def test_half_closing_client_gets_every_reply_it_is_owed(
        self, network_state, cases
    ):
        pool = InlinePool(network_state, generation=1)
        # A long coalescing window: every reply is still owed when the
        # server reads the client's EOF.
        with ServerThread(pool, max_batch=8, max_delay=0.05) as harness:
            with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as sock:
                sock.sendall(
                    b"".join(
                        encode_infer(request, seq)
                        for seq, (request, __) in enumerate(cases)
                    )
                )
                sock.shutdown(socket.SHUT_WR)
                replies, __ = read_replies(sock)
        assert sorted(seq for __, seq, __ in replies) == list(range(len(cases)))
        for kind, seq, body in replies:
            assert kind == "result"
            expected = cases[seq][1]
            assert np.array_equal(body["moves"], expected.moves)
            assert body["log_prob"] == expected.log_prob


class TestHttpFrontDoor:
    def test_infer_healthz_info_and_metrics(self, network_state, cases):
        from repro.serve.protocol import request_to_json

        pool = InlinePool(network_state, generation=1)
        request, expected = cases[0]
        with ServerThread(pool) as harness:
            status, body = harness.http("/infer", request_to_json(request))
            assert status == 200
            answer = json.loads(body)
            assert np.array_equal(
                np.asarray(answer["moves"], dtype=np.int64), expected.moves
            )
            assert answer["log_prob"] == expected.log_prob
            assert answer["value"] == expected.value

            status, body = harness.http("/healthz")
            assert status == 200

            status, body = harness.http("/info")
            assert status == 200
            assert json.loads(body)["generation"] == 1

            status, metrics = harness.http("/metrics")
            assert status == 200
            for family in (
                "repro_serve_requests_total",
                "repro_serve_latency_seconds",
                "repro_serve_batch_rows",
                "repro_serve_cache_total",
                "repro_serve_generation",
            ):
                assert family in metrics

    def test_malformed_request_is_a_400(self, network_state):
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool) as harness:
            import urllib.error

            with pytest.raises(urllib.error.HTTPError) as caught:
                harness.http("/infer", {"state": [[1.0]]})
            assert caught.value.code == 400

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("ten", 400), (str(MAX_BODY_BYTES + 1), 413), (str(10**12), 413)],
    )
    def test_content_length_is_checked_before_the_body_is_read(
        self, network_state, length, status
    ):
        """A header-only POST: a negative length must not read to EOF
        and a huge one must not allocate — both are answered at once."""
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool) as harness:
            host, port = harness.server.http_address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=3.0) as sock:
                sock.sendall(
                    f"POST /infer HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode()
                )
                reply = b""
                while b"\r\n" not in reply:
                    chunk = sock.recv(4096)  # socket.timeout if no answer
                    if not chunk:
                        break
                    reply += chunk
        assert reply.split(b"\r\n", 1)[0].split()[1:2] == [str(status).encode()]

    def test_internal_error_is_a_500_and_counted(self, network_state, cases):
        """A failure past admission answers like the TCP door does — an
        error reply and ``outcome="error"`` — not a dropped connection."""
        import urllib.error

        from repro.serve.protocol import request_to_json

        class CrashedPool(InlinePool):
            def infer(self, requests):
                raise WorkerCrashed("serve worker 0 died mid-infer")

        registry = MetricsRegistry()
        request, __ = cases[0]
        pool = CrashedPool(network_state, generation=1)
        with ServerThread(pool, registry=registry) as harness:
            with pytest.raises(urllib.error.HTTPError) as caught:
                harness.http("/infer", request_to_json(request))
            assert caught.value.code == 500
            answer = json.loads(caught.value.read())
        assert answer == {"error": "internal error: serve worker 0 died mid-infer"}
        series = registry.get("repro_serve_requests_total").snapshot()["series"]
        assert series == {'repro_serve_requests_total{outcome="error"}': 1.0}


    def test_timed_out_infer_is_cancelled_and_named(
        self, network_state, cases, monkeypatch
    ):
        """A request the loop has not answered in time gets a 500 that
        names the wait, and its coroutine is cancelled, not abandoned."""
        import urllib.error

        from repro.serve import server as server_module
        from repro.serve.protocol import request_to_json

        cancelled = threading.Event()

        class StuckServer(InferenceServer):
            async def answer(self, request):
                try:
                    await asyncio.sleep(30)
                except asyncio.CancelledError:
                    cancelled.set()
                    raise

        monkeypatch.setattr(server_module, "_INFER_TIMEOUT_S", 0.2)
        registry = MetricsRegistry()
        request, __ = cases[0]
        pool = InlinePool(network_state, generation=1)
        with ServerThread(pool, server_cls=StuckServer, registry=registry) as harness:
            with pytest.raises(urllib.error.HTTPError) as caught:
                harness.http("/infer", request_to_json(request))
            assert caught.value.code == 500
            answer = json.loads(caught.value.read())
            assert cancelled.wait(timeout=5)
        assert answer == {"error": "internal error: no answer within 0.2 s"}
        series = registry.get("repro_serve_requests_total").snapshot()["series"]
        assert series == {'repro_serve_requests_total{outcome="error"}': 1.0}

class TestBackpressure:
    def test_overload_sheds_with_retry_after(self, network_state, cases):
        pool = InlinePool(network_state, generation=1)
        request, expected = cases[0]
        with ServerThread(pool, max_pending=1, max_batch=1, max_delay=0.2) as harness:
            server = harness.server
            loop = harness.loop

            async def flood():
                tasks = [
                    asyncio.ensure_future(server.answer(request))
                    for __ in range(8)
                ]
                results = await asyncio.gather(*tasks, return_exceptions=True)
                outcomes = []
                for outcome in results:
                    if isinstance(outcome, Overloaded):
                        assert outcome.retry_after > 0
                        outcomes.append("rejected")
                    elif isinstance(outcome, BaseException):
                        raise outcome
                    else:
                        outcomes.append("accepted")
                return outcomes

            outcomes = asyncio.run_coroutine_threadsafe(flood(), loop).result(60)
            assert "rejected" in outcomes
            assert "accepted" in outcomes
            # The rejects are visible to the client as retryable 503s.
            with ServeClient(
                "127.0.0.1", harness.port, max_retries=5
            ) as client:
                result = client.infer_request(request)
            assert_bitwise(result, expected)


class TestHotReload:
    def test_reload_swaps_weights_and_invalidates_cache(
        self, tiny_config, agent, cases
    ):
        from repro.agents.policy import PPOWorkerAgent

        old_state = agent.network.state_dict()
        new_agent = PPOWorkerAgent(tiny_config, seed=9)
        new_state = new_agent.network.state_dict()

        env = CrowdsensingEnv(tiny_config)
        new_cases = capture_cases(env, new_agent, 3)

        pool = InlinePool(old_state, generation=1)
        request, old_expected = cases[0]
        with ServerThread(pool) as harness:
            with ServeClient("127.0.0.1", harness.port) as client:
                before = client.infer_request(request)
                assert before.generation == 1
                assert_bitwise(before, old_expected)

                future = asyncio.run_coroutine_threadsafe(
                    harness.server.reload_state(new_state), harness.loop
                )
                assert future.result(60) == 2

                # Same request, new weights: fresh compute (the old
                # cache entry is generation-stale), new tag.
                after = client.infer_request(request)
                assert after.generation == 2
                assert after.cached is False

                # And the served actions now match the *new* network's
                # offline act_full bitwise.
                for new_request, new_expected in new_cases:
                    result = client.infer_request(new_request)
                    assert result.generation == 2
                    assert_bitwise(result, new_expected)

            assert harness.server.cache.stats()["generation"] == 2

    def test_generation_must_advance(self, network_state):
        pool = InlinePool(network_state, generation=1)
        with pytest.raises(ValueError):
            pool.reload(network_state, generation=1)


class TestForkWorkerPool:
    def test_fork_pool_parity_reload_and_shm_hygiene(
        self, network_state, tiny_config, cases
    ):
        from repro.agents.policy import PPOWorkerAgent

        before_shm = set(glob.glob("/dev/shm/*serve*"))
        pool = ServeWorkerPool(network_state, num_workers=2, generation=1)
        try:
            assert pool.ping() == 2
            results = pool.infer([request for request, __ in cases])
            for result, (__, expected) in zip(results, cases):
                assert_bitwise(result, expected)

            # Zero-copy hot reload: every worker adopts the new slab.
            new_state = PPOWorkerAgent(tiny_config, seed=9).network.state_dict()
            pool.reload(new_state, generation=2)
            reloaded = pool.infer([cases[0][0]])[0]
            assert reloaded.generation == 2

            assert pool.slab_names()  # the slab existed while serving
        finally:
            pool.shutdown()
        # No leaked shared memory and no leaked worker processes.
        assert set(glob.glob("/dev/shm/*serve*")) == before_shm
        import os

        for pid in pool.pids():
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_reload_under_concurrent_infer_load(
        self, network_state, tiny_config, cases
    ):
        """Reload reaches every worker exactly once despite infer traffic.

        The free queue is FIFO and shared with infer leases: a reload
        that leases-and-releases per command can draw a just-reloaded
        worker twice (its engine then refuses the repeated generation)
        while a busy worker is never reloaded.  Holding all leases for
        the sweep makes the generation flip atomic with respect to the
        queue — no infer error, and every worker answers the new tag.
        """
        import time

        from repro.agents.policy import PPOWorkerAgent

        new_state = PPOWorkerAgent(tiny_config, seed=9).network.state_dict()
        pool = ServeWorkerPool(network_state, num_workers=2, generation=1)
        stop = threading.Event()
        errors = []

        def hammer():
            request = cases[0][0]
            while not stop.is_set():
                try:
                    pool.infer([request])
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return

        threads = [threading.Thread(target=hammer) for __ in range(4)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let infer traffic churn the free queue
            pool.reload(new_state, generation=2)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert pool.generation == 2
            # Sequential infers round-robin the FIFO free queue, so
            # 2 x size infers visit every worker: all must answer the
            # new generation (none left behind on the old weights).
            for __ in range(2 * pool.size):
                assert pool.infer([cases[0][0]])[0].generation == 2
        finally:
            stop.set()
            pool.shutdown()

    def test_duplicate_reload_command_is_idempotent(
        self, network_state, tiny_config
    ):
        """A retried reload command must be a worker-side no-op.

        If a reload sweep fails partway, the pool generation stays put
        and the caller retries with the same generation; workers that
        already loaded it must answer ok instead of crashing on the
        engine's generation-must-advance guard.
        """
        from repro.agents.policy import PPOWorkerAgent
        from repro.serve.pool import OP_RELOAD

        new_state = PPOWorkerAgent(tiny_config, seed=9).network.state_dict()
        pool = ServeWorkerPool(network_state, num_workers=1, generation=1)
        try:
            arrays = [
                np.ascontiguousarray(new_state[k], dtype=np.float64)
                for k in pool._keys
            ]
            pool._slab.write(arrays, seq=2)
            handle = pool._workers[0]
            assert handle.call(OP_RELOAD, 2) == 2
            assert handle.call(OP_RELOAD, 2) == 2  # repeat: no-op, no crash
        finally:
            pool.shutdown()


class TestCliSignals:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_stops_the_cli_and_leaves_nothing_behind(
        self, checkpoint_file, signum
    ):
        """SIGTERM (what a supervisor sends) takes SIGINT's graceful path:
        the fork worker is reaped and its weight slab unlinked."""
        before_shm = set(glob.glob("/dev/shm/repro-shm-*"))
        with serve_cli(checkpoint_file, "--workers", "1") as (process, __):
            children = [
                int(pid)
                for pid in Path(
                    f"/proc/{process.pid}/task/{process.pid}/children"
                ).read_text().split()
            ]
            assert children, "the CLI forked no worker"
            assert set(glob.glob("/dev/shm/repro-shm-*")) - before_shm
            process.send_signal(signum)
            assert process.wait(timeout=5) == 0
            assert "stopping" in process.stdout.read()
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in children if _alive(pid)] == []
        assert set(glob.glob("/dev/shm/repro-shm-*")) == before_shm


class TestRequestValidation:
    def test_negative_seed_is_a_request_error(self, cases):
        """Rejected at decode time (400), not mid-batch inside a worker.

        ``np.random.default_rng`` raises on negative seeds; unvalidated,
        that surfaces as an internal error that fails the whole chunk.
        """
        from repro.serve import InferRequest, RequestError

        request = cases[0][0]
        with pytest.raises(RequestError, match="seed must be >= 0"):
            InferRequest(
                state=request.state,
                move_mask=request.move_mask,
                worker_features=request.worker_features,
                greedy=False,
                seed=-1,
            ).validate()


class TestShutdownHygiene:
    def test_stop_is_clean_and_idempotent(self, network_state, cases):
        pool = InlinePool(network_state, generation=1)
        harness = ServerThread(pool)
        with harness:
            with ServeClient("127.0.0.1", harness.port) as client:
                client.infer_request(cases[0][0])
        # Context exit ran server.stop(); the TCP port must be closed.
        with pytest.raises(OSError):
            ServeClient("127.0.0.1", harness.port).infer_request(cases[0][0])
