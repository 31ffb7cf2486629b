"""Process-backed employee pool: true multi-core chief–employee training.

Why processes
-------------
The paper's synchronous chief–employee architecture (Section V-A, Fig. 1)
exists to parallelize employee exploration and gradient computation, and
DPPO-style distributed PPO gets its wall-clock wins from workers
computing gradients concurrently.  Our autograd substrate is numpy-on-
Python: the per-op Python dispatch holds the GIL, so threads would
overlap only the slices of time numpy spends inside C kernels — on small
CEWS networks that is a minority of the step.  This module gives each
:class:`~repro.distributed.trainer._Employee` its own **worker
process**, so M employees genuinely occupy M cores.

Protocol
--------
Each worker is driven by a four-command protocol::

    SYNC      chief -> worker   read the seq-stamped weight broadcast,
                                optionally re-seed the worker RNG; ack'd
    EXPLORE   chief -> worker   roll one episode into the local buffer;
                                reply carries the EpisodeResult + RNG state
    MINIBATCH chief -> worker   sample one minibatch, compute gradients,
                                ship them back; reply carries PPOStats +
                                RNG state
    SHUTDOWN  chief -> worker   ack and exit

Commands are strictly serial per worker (at most one outstanding), each
stamped with a monotonically increasing ``seq`` echoed by the reply and
verified against the tensor payload stamps — a stale or torn payload
raises instead of being consumed.

The *medium* those commands travel over is pluggable: the pool drives a
:class:`~repro.distributed.transport.Transport`, one
:class:`~repro.distributed.transport.ChiefChannel` per worker.  The
default :class:`~repro.distributed.transport.LocalTransport` is the
PR 5 data path unchanged — commands over a duplex pipe, tensors through
preallocated per-worker :class:`~repro.distributed.shm.TensorSlab`
pairs.  The :class:`~repro.distributed.transport.SocketTransport` speaks
the same protocol over framed TCP (heartbeats, reconnect, retransmit)
and can cross host boundaries; ``remote_indices`` marks employees whose
worker process is started *externally* (``python -m repro worker``)
instead of forked here.

Determinism contract
--------------------
The chief keeps the **authoritative RNG mirror** for every employee:
each successful (or drained) task reply returns the worker's post-task
``bit_generator.state`` and the chief stores it; every SYNC ships the
mirror state back.  Fault-free runs are therefore bitwise-identical to
the serial backend (same seed derivation, same consumption
order) — for *any* transport: commands are serial, replies are collected
in index order, and duplicate delivery is suppressed worker-side so a
command consumes worker RNG at most once.
Checkpoints capture exact employee RNG states, and a respawned worker
resumes from the last known-good state.

Fault tolerance
---------------
The :class:`~repro.distributed.faults.FaultPlan` is forwarded to each
worker, which drives its own :class:`FaultInjector` for stragglers and
crashes (``before_task``); injected crashes come back as ``"crash"``
replies and map onto the trainer's existing ``_note_crash`` path.
Corruption and checkpoint faults stay chief-side (unchanged code paths).
Real worker death — pipe EOF, socket reset, heartbeat silence — surfaces
as :class:`~repro.distributed.transport.ChannelClosed` from the channel
and is translated to :class:`WorkerDied` here; the chief records a
crash, invalidates everything the dead worker could still touch
(fresh slabs / bumped generation via ``reset_for_revive``), respawns the
worker and re-seeds it from the mirror.

Lifecycle
---------
The pool is a context manager; :meth:`shutdown` (also registered via
``atexit``) terminates workers and closes the transport, so no
``/dev/shm`` segments leak after normal exit, KeyboardInterrupt or an
injected worker crash.  Workers are ``fork``-started: the factories the
trainer already uses are closures over the scenario, which ``fork``
inherits for free (a ``spawn`` backend would need every factory to be
picklable).  Worker entrypoints receive *explicit* seeds and configs —
never module globals.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import platform
import time
import traceback
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..agents.policy import GradientPack
from ..obs.federation import WorkerTelemetry, fold_into
from ..obs.flight import reset_after_fork as _flight_reset_after_fork
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import (
    Tracer,
    current_context,
    fold_worker_records,
    get_tracer,
    record_span,
    wall_clock,
)
from ..analysis.lockwatch import reset_after_fork as _lockwatch_reset_after_fork
from ..obs.trace import reset_after_fork as _trace_reset_after_fork
from .faults import EXPLORE_ROUND, FaultInjector, FaultPlan, InjectedCrash
from .transport import (
    ChannelClosed,
    ChiefChannel,
    EndpointSpec,
    LocalTransport,
    NetworkFaultInjector,
    SocketTransport,
    Transport,
    WorkerEndpoint,
    build_worker_endpoint,
)

_LOG = get_logger(__name__)

__all__ = ["ProcessEmployeePool", "WorkerDied", "WorkerSpec", "serve_employee"]

# Command opcodes (chief -> worker).
OP_SYNC = "sync"
OP_EXPLORE = "explore"
OP_MINIBATCH = "minibatch"
OP_SHUTDOWN = "shutdown"

# Reply statuses (worker -> chief).
_OK = "ok"
_CRASH = "crash"  # injected (deterministic) crash; worker stays alive
_ERROR = "error"  # genuine exception; traceback re-raised chief-side


class WorkerDied(RuntimeError):
    """The worker process died for real (EOF / SIGKILL / heartbeat loss)."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, passed *explicitly*.

    A forked worker inherits the chief's entire module state — module
    RNGs, singletons, half-open resources.  Reading any of it post-fork
    is a determinism and correctness hazard, so the entrypoint receives
    this frozen spec instead: its own factories, the (immutable) fault
    plan and the transport endpoint recipe.  It carries no RNG state: the
    chief ships each worker's state on every SYNC, and a worker runs no
    task before its first SYNC.
    """

    index: int
    agent_factory: Callable[[int], object]
    env_factory: Callable[[int], object]
    plan: Optional[FaultPlan]
    endpoint: EndpointSpec
    shapes: Tuple[Tuple[int, ...], ...]
    num_policy_params: int
    #: Ship metric deltas back piggy-backed on replies (PR 8 federation).
    federate: bool = False


def _ensure_worker_tracer(
    tracer: Optional[Tracer], ctx: object
) -> Optional[Tracer]:
    """Lazily build the worker-side tracer on the first traced command.

    ``ctx`` is the chief's propagated ``{"trace_id", "parent"}`` context
    (absent while chief-side tracing is off, and ignored by old peers).
    The tracer is memory-only — spans ship back piggy-backed on replies
    via :meth:`Tracer.drain_ring`, never through a worker-side file — and
    adopts the chief's ``trace_id`` so the fleet shares one trace.
    """
    if tracer is not None or not isinstance(ctx, dict):
        return tracer
    trace_id = ctx.get("trace_id")
    fresh = Tracer(path=None, trace_id=str(trace_id) if trace_id else None)
    if get_tracer() is None:
        # Install so nested module-level span()/event() calls inside the
        # agent/env land in this ring too (forked workers cleared the
        # inherited chief tracer in reset_after_fork).
        fresh.install()
    return fresh


def _task_span(
    tracer: Optional[Tracer], name: str, index: int, episode: int, round_index: int
):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, employee=index, episode=episode, round=round_index)


def _attach_telemetry(
    reply: Dict[str, object],
    tracer: Optional[Tracer],
    telemetry: Optional[WorkerTelemetry],
    host: str,
    pid: int,
) -> Dict[str, object]:
    """Piggy-back clock/identity, drained spans and metric deltas on a reply."""
    reply["clock"] = wall_clock()
    reply["host"] = host
    reply["pid"] = pid
    if tracer is not None:
        spans = tracer.drain_ring()
        if spans:
            reply["spans"] = spans
    if telemetry is not None:
        delta = telemetry.collect()
        if delta is not None:
            reply["metrics"] = delta
    return reply


def serve_employee(spec: WorkerSpec, endpoint: WorkerEndpoint) -> None:
    """Serve the command protocol over ``endpoint`` until EOF/SHUTDOWN.

    Shared by the forked entrypoint and ``python -m repro worker``
    (external socket workers).  Every input comes from ``spec`` or the
    endpoint; nothing is read from module globals.
    """
    agent = spec.agent_factory(spec.index)
    env = spec.env_factory(spec.index)
    rng = np.random.default_rng(0)  # replaced by the first SYNC's state
    injector = FaultInjector(spec.plan) if spec.plan is not None else None
    params = list(agent.policy_parameters()) + list(agent.curiosity_parameters())
    rollout = None
    host = platform.node()
    pid = os.getpid()
    telemetry = WorkerTelemetry() if spec.federate else None
    tracer: Optional[Tracer] = None
    try:
        while True:
            command = endpoint.recv_command()
            if command is None:
                break  # chief is gone; exit quietly
            op, seq, payload = command
            if op == OP_SHUTDOWN:
                endpoint.send_reply(_OK, seq, None)
                break
            try:
                if op == OP_SYNC:
                    arrays = endpoint.read_weights(seq)
                    for param, array in zip(params, arrays):
                        param.data[...] = array
                    state = payload.get("rng_state")
                    if state is not None:
                        rng.bit_generator.state = state
                    endpoint.send_reply(_OK, seq, None)
                elif op == OP_EXPLORE:
                    episode = payload["episode"]
                    tracer = _ensure_worker_tracer(tracer, payload.get("ctx"))
                    start = time.perf_counter()
                    if injector is not None:
                        injector.before_task(spec.index, episode, EXPLORE_ROUND)
                    with _task_span(
                        tracer, "employee.explore", spec.index, episode, EXPLORE_ROUND
                    ):
                        rollout, result = agent.collect_episode(env, rng)
                    dur = time.perf_counter() - start
                    if telemetry is not None:
                        telemetry.note_command(op)
                        telemetry.observe_phase("explore", dur)
                        telemetry.note_episode(result)
                    endpoint.send_reply(
                        _OK,
                        seq,
                        _attach_telemetry(
                            {
                                "result": result,
                                "rng_state": rng.bit_generator.state,
                                "dur": dur,
                            },
                            tracer,
                            telemetry,
                            host,
                            pid,
                        ),
                    )
                elif op == OP_MINIBATCH:
                    episode = payload["episode"]
                    round_index = payload["round"]
                    tracer = _ensure_worker_tracer(tracer, payload.get("ctx"))
                    start = time.perf_counter()
                    if injector is not None:
                        injector.before_task(spec.index, episode, round_index)
                    if rollout is None:
                        raise RuntimeError(
                            f"worker {spec.index}: MINIBATCH before a "
                            f"successful EXPLORE"
                        )
                    with _task_span(
                        tracer, "employee.gradients", spec.index, episode, round_index
                    ):
                        batch = next(
                            iter(
                                rollout.minibatches(
                                    payload["batch_size"], rng, epochs=1
                                )
                            )
                        )
                        pack = agent.compute_gradients(batch)
                    endpoint.send_gradients(
                        pack.vector,
                        seq=seq,
                        episode=episode,
                        round_index=round_index,
                    )
                    dur = time.perf_counter() - start
                    if telemetry is not None:
                        telemetry.note_command(op)
                        telemetry.observe_phase("gradients", dur)
                        telemetry.note_stats(pack.stats)
                    endpoint.send_reply(
                        _OK,
                        seq,
                        _attach_telemetry(
                            {
                                "stats": pack.stats,
                                "rng_state": rng.bit_generator.state,
                                "dur": dur,
                            },
                            tracer,
                            telemetry,
                            host,
                            pid,
                        ),
                    )
                else:
                    raise RuntimeError(f"unknown opcode {op!r}")
            except InjectedCrash:
                # Deterministic injected crash: fired in before_task, so
                # the RNG is untouched; the worker itself stays healthy.
                endpoint.send_reply(
                    _CRASH,
                    seq,
                    {"rng_state": rng.bit_generator.state, "clock": wall_clock()},
                )
            except Exception:
                endpoint.send_reply(_ERROR, seq, traceback.format_exc())
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        endpoint.close()


def _batch_schedule() -> None:
    """Put this process in ``SCHED_BATCH`` where the OS has it.

    With more employees than free CPUs, some worker shares a CPU with
    the chief.  A normal task woken by the chief's command preempts the
    chief in the middle of its fan-out, so the next worker's command goes
    out milliseconds late, every round.  A batch task does not preempt on
    wake-up: it runs once the chief blocks waiting for replies.  Setting
    it needs no privilege, and it moves no bit: only when a worker starts
    running changes.
    """
    policy = getattr(os, "SCHED_BATCH", None)
    if policy is None:
        return
    try:
        os.sched_setscheduler(0, policy, os.sched_param(0))
    except OSError:
        pass


def _employee_worker_main(spec: WorkerSpec, conn) -> None:
    """Forked worker-process entrypoint (see :class:`WorkerSpec`)."""
    _batch_schedule()
    _trace_reset_after_fork()
    _lockwatch_reset_after_fork()
    _flight_reset_after_fork()
    endpoint = build_worker_endpoint(spec.endpoint, conn)
    serve_employee(spec, endpoint)


class _WorkerHandle:
    """Chief-side bookkeeping for one worker process."""

    __slots__ = ("process", "channel", "seq", "in_flight", "ctx_parent")

    def __init__(self, process, channel: ChiefChannel):
        self.process = process
        self.channel = channel
        self.seq = 0
        #: (seq, op, episode, round_index) of the outstanding command.
        self.in_flight: Optional[Tuple[int, str, int, int]] = None
        #: Chief span id the outstanding command was issued under (the
        #: fold target for worker-propagated spans).
        self.ctx_parent: Optional[int] = None

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class ProcessEmployeePool:
    """M employee worker processes plus their transport.

    Parameters
    ----------
    agent_factory, env_factory:
        The trainer's per-employee factories (called *inside* the worker
        after fork, so each process builds its own local model).
    num_employees:
        Pool size ``M``.
    shapes:
        Parameter shapes — policy parameters first, curiosity parameters
        after — shared by the weight and gradient payloads.
    num_policy_params:
        How many leading entries of ``shapes`` are policy parameters.
    initial_rng_states:
        One ``bit_generator.state`` dict per employee.  Only its length
        is checked: a worker takes its state from every SYNC, and the
        first SYNC comes before its first task.
    plan:
        Optional fault plan forwarded verbatim to every worker.
    transport:
        ``"local"`` (pipes + shared memory, the default) or ``"socket"``
        (framed TCP with heartbeats/reconnect).
    transport_options:
        Keyword arguments for the :class:`SocketTransport` constructor
        (listen address, heartbeat cadence, chaos injector).
    remote_indices:
        Employee indices whose worker is started externally
        (``python -m repro worker``) rather than forked — socket
        transport only.
    federate:
        Run a :class:`~repro.obs.federation.WorkerTelemetry` inside each
        worker and fold the shipped metric deltas into the chief's
        registry under ``worker``/``host`` labels.
    """

    def __init__(
        self,
        agent_factory: Callable[[int], object],
        env_factory: Callable[[int], object],
        num_employees: int,
        shapes: Sequence[Tuple[int, ...]],
        num_policy_params: int,
        initial_rng_states: Sequence[dict],
        plan: Optional[FaultPlan] = None,
        transport: str = "local",
        transport_options: Optional[Dict[str, object]] = None,
        remote_indices: Sequence[int] = (),
        federate: bool = False,
    ):
        if num_employees < 1:
            raise ValueError(f"need at least one employee, got {num_employees}")
        if len(initial_rng_states) != num_employees:
            raise ValueError(
                f"{len(initial_rng_states)} RNG states for "
                f"{num_employees} employees"
            )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as error:
            raise RuntimeError(
                "the process backend requires the 'fork' start method "
                "(the trainer's factories are closures over the scenario); "
                "use backend='serial' on platforms without fork"
            ) from error
        self.num_employees = num_employees
        self.shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        self.num_policy_params = int(num_policy_params)
        self._plan = plan
        self._agent_factory = agent_factory
        self._env_factory = env_factory
        self._federate = bool(federate)
        #: Last explore latency per employee (feeds the straggler gauge).
        self.explore_durations: Dict[int, float] = {}
        self._closed = False
        self._remote = frozenset(int(i) for i in remote_indices)
        if self._remote and transport != "socket":
            raise ValueError("remote_indices requires transport='socket'")
        if any(i < 0 or i >= num_employees for i in self._remote):
            raise ValueError(
                f"remote_indices {sorted(self._remote)} out of range for "
                f"{num_employees} employees"
            )
        if transport == "local":
            self._transport: Transport = LocalTransport(self.shapes, ctx=self._ctx)
        elif transport == "socket":
            self._transport = SocketTransport(
                self.shapes, **(transport_options or {})
            )
        else:
            raise ValueError(
                f"transport must be 'local' or 'socket', got {transport!r}"
            )
        registry = get_registry()
        self._ipc_bytes = registry.counter(
            "repro_ipc_bytes_total",
            "Tensor payload bytes moved between chief and workers",
            labelnames=("direction",),
        )
        self._ipc_wait = registry.histogram(
            "repro_ipc_wait_seconds",
            "Chief wait time on worker replies",
            labelnames=("phase",),
        )
        self._workers: List[_WorkerHandle] = []
        for index in range(num_employees):
            channel = self._transport.create_channel(index)
            handle = self._spawn(index, channel)
            self._workers.append(handle)
        atexit.register(self._atexit_shutdown)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int, channel: ChiefChannel) -> _WorkerHandle:
        spawn_handle = channel.arm()
        spec = WorkerSpec(
            index=index,
            agent_factory=self._agent_factory,
            env_factory=self._env_factory,
            plan=self._plan,
            endpoint=channel.endpoint_spec(),
            shapes=self.shapes,
            num_policy_params=self.num_policy_params,
            federate=self._federate,
        )
        if isinstance(self._transport, SocketTransport):
            # External workers (and reconnect debugging) bootstrap from
            # the WELCOME payload instead of a forked spec.
            self._transport.set_welcome_extra(
                index,
                {
                    "shapes": self.shapes,
                    "num_policy_params": self.num_policy_params,
                    "plan": self._plan,
                    "federate": self._federate,
                },
            )
        if index in self._remote:
            _LOG.warning(
                "employee %d is remote: waiting for `repro worker --connect "
                "%s:%d --index %d` to dial in",
                index,
                *self._transport.address,
                index,
            )
            return _WorkerHandle(None, channel)
        process = self._ctx.Process(
            target=_employee_worker_main,
            args=(spec, spawn_handle),
            name=f"repro-employee-{index}",
            daemon=True,
        )
        process.start()
        channel.post_spawn(spawn_handle)
        return _WorkerHandle(process, channel)

    def pid(self, index: int) -> int:
        """The worker's OS pid (fault tests kill it for real); -1 if remote."""
        process = self._workers[index].process
        return process.pid if process is not None else -1

    def slab_names(self) -> List[str]:
        """Names of every live segment (leak tests scan for these)."""
        names: List[str] = []
        for handle in self._workers:
            names.extend(handle.channel.slab_names())
        return names

    @property
    def transport(self) -> Transport:
        return self._transport

    def alive(self, index: int) -> bool:
        process = self._workers[index].process
        if process is not None:
            return process.is_alive()
        connected = getattr(self._workers[index].channel, "connected", None)
        return bool(connected()) if connected is not None else False

    def revive(
        self, index: int, arrays: Sequence[np.ndarray], rng_state: dict, episode: int
    ) -> None:
        """Respawn a dead worker and re-seed it from the chief's mirrors.

        ``reset_for_revive`` first invalidates everything the old worker
        could still touch: the local transport allocates fresh slabs and
        eagerly unlinks the stale pair (a wedged predecessor must never
        scribble into its replacement's shared memory, and ``/dev/shm``
        stays flat across revive cycles), the socket transport bumps the
        generation so a stale reconnect is refused.  The fresh worker is
        then re-synced with the current global parameters and the last
        known-good RNG state, so a respawn is observationally identical
        to a restarted serial employee.
        """
        handle = self._workers[index]
        handle.in_flight = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5.0)
        handle.channel.reset_for_revive()
        fresh = self._spawn(index, handle.channel)
        self._workers[index] = fresh
        if index in self._remote:
            return  # nothing to sync until the operator restarts the worker
        try:
            self._sync_one(fresh, arrays, rng_state, episode)
            self._await_reply(index, None, phase="revive")
        except WorkerDied:
            # Even the fresh worker is unreachable (e.g. the partition is
            # still open).  Leave it; the next sync() retries the revive.
            _LOG.warning("employee %d unreachable after respawn", index)
        _LOG.warning("employee worker %d respawned (pid %d)", index, self.pid(index))

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def _sync_one(
        self,
        handle: _WorkerHandle,
        arrays: Sequence[np.ndarray],
        rng_state: Optional[dict],
        episode: int,
    ) -> int:
        seq = handle.next_seq()
        handle.in_flight = (seq, OP_SYNC, episode, EXPLORE_ROUND)
        try:
            nbytes = handle.channel.send_weights(arrays, seq=seq, episode=episode)
            self._ipc_bytes.labels(direction="broadcast").inc(nbytes)
            handle.channel.send_command(
                OP_SYNC,
                seq,
                {"rng_state": rng_state},
                episode=episode,
                round_index=EXPLORE_ROUND,
            )
        except ChannelClosed:
            # Dead at send time: the ack collection will raise WorkerDied
            # and the caller revives — same path as dead-at-reply.
            _LOG.warning(
                "employee %d unreachable while sending SYNC", handle.channel.index
            )
        return seq

    def sync(
        self,
        arrays: Sequence[np.ndarray],
        rng_states: Sequence[Optional[dict]],
        episode: int,
    ) -> List[int]:
        """Broadcast weights (and RNG mirrors) to every worker; barrier.

        The payload write + SYNC goes out to all workers first, then the
        acks are collected, so the broadcast overlaps across workers.
        Returns the indices of workers that were found dead and respawned
        (the trainer records those as crashes).
        """
        respawned: List[int] = []
        for handle, state in zip(self._workers, rng_states):
            self._sync_one(handle, arrays, state, episode)
        for index, (handle, state) in enumerate(zip(self._workers, rng_states)):
            try:
                self._await_reply(index, None, phase="sync")
            except WorkerDied:
                self.revive(index, arrays, state or {}, episode)
                respawned.append(index)
        return respawned

    def submit(
        self,
        index: int,
        op: str,
        episode: int,
        round_index: int = EXPLORE_ROUND,
        batch_size: Optional[int] = None,
    ) -> None:
        """Send one EXPLORE/MINIBATCH command (non-blocking)."""
        handle = self._workers[index]
        if handle.in_flight is not None:
            raise RuntimeError(
                f"worker {index} already has command {handle.in_flight} in flight"
            )
        seq = handle.next_seq()
        if op == OP_EXPLORE:
            payload: Dict[str, object] = {"episode": episode}
        elif op == OP_MINIBATCH:
            payload = {"episode": episode, "round": round_index, "batch_size": batch_size}
        else:
            raise ValueError(f"submit cannot send opcode {op!r}")
        ctx = current_context()
        handle.ctx_parent = ctx.get("parent") if ctx is not None else None
        if ctx is not None:
            # Optional trace context: old workers never look at this key.
            payload["ctx"] = ctx
        handle.in_flight = (seq, op, episode, round_index)
        try:
            handle.channel.send_command(
                op, seq, payload, episode=episode, round_index=round_index
            )
        except ChannelClosed:
            # Dead at send time: wait() will raise WorkerDied for this
            # command and the trainer's revive path takes over.
            _LOG.warning("employee %d unreachable while sending %s", index, op)

    def has_in_flight(self, index: int) -> bool:
        return self._workers[index].in_flight is not None

    def _await_reply(
        self, index: int, timeout: Optional[float], phase: str
    ) -> Tuple[str, object, Tuple[int, str, int, int]]:
        """Block (with optional timeout) for the outstanding reply.

        Raises ``FuturesTimeoutError`` (command left in flight) or
        :class:`WorkerDied` (in-flight command discarded).  Protocol
        errors — a genuine worker exception or a seq mismatch — raise
        ``RuntimeError``.
        """
        handle = self._workers[index]
        pending = handle.in_flight
        if pending is None:
            raise RuntimeError(f"worker {index} has no command in flight")
        wait_start = time.perf_counter()
        try:
            reply = handle.channel.recv_reply(timeout)
        except ChannelClosed as error:
            self._ipc_wait.labels(phase=phase).observe(time.perf_counter() - wait_start)
            handle.in_flight = None
            raise WorkerDied(
                f"employee worker {index} died during {phase}: {error}"
            ) from error
        self._ipc_wait.labels(phase=phase).observe(time.perf_counter() - wait_start)
        if reply is None:
            # NOTE: ``FuturesTimeoutError`` aliases the builtin
            # ``TimeoutError`` (an ``OSError``) on 3.11+, so it must be
            # raised *outside* the channel-death translation above.
            raise FuturesTimeoutError(
                f"worker {index} exceeded {timeout}s during {phase}"
            )
        status, seq, payload = reply
        if isinstance(payload, dict):
            peer_clock = payload.get("clock")
            if peer_clock is not None:
                # Refresh the chief-minus-worker skew estimate per pump;
                # applied when worker spans are folded, never to raw data.
                handle.channel.clock_offset = wall_clock() - float(peer_clock)
        if seq != pending[0]:
            handle.in_flight = None
            raise RuntimeError(
                f"worker {index} protocol violation: reply seq {seq} for "
                f"in-flight {pending}"
            )
        handle.in_flight = None
        if status == _ERROR:
            raise RuntimeError(
                f"employee worker {index} raised:\n{payload}"
            )
        return status, payload, pending

    def _fold_reply_telemetry(
        self, index: int, handle: _WorkerHandle, payload: Dict[str, object]
    ) -> bool:
        """Fold piggy-backed spans/metric deltas from one reply.

        Returns True when worker-propagated spans were merged (the caller
        then skips its synthetic re-emission).
        """
        folded_spans = False
        spans = payload.get("spans")
        if spans:
            folded_spans = (
                fold_worker_records(
                    spans,
                    parent=handle.ctx_parent,
                    offset=handle.channel.clock_offset,
                    worker=index,
                    host=payload.get("host") or None,
                    pid=payload.get("pid"),
                )
                > 0
            )
        delta = payload.get("metrics")
        if delta:
            fold_into(
                get_registry(),
                delta,
                worker=index,
                host=payload.get("host", ""),
            )
        return folded_spans

    def wait(
        self, index: int, timeout: Optional[float], phase: str
    ) -> Tuple[object, dict]:
        """Collect one EXPLORE/MINIBATCH result.

        Returns ``(outcome, rng_state)`` where ``outcome`` is the
        :class:`EpisodeResult` (explore) or the assembled
        :class:`~repro.agents.policy.GradientPack` (minibatch).  Raises
        ``FuturesTimeoutError`` / :class:`InjectedCrash` /
        :class:`WorkerDied`, which the trainer's retry/quorum machinery
        books like the serial driver's crashes and timeouts.
        """
        status, payload, (seq, op, episode, round_index) = self._await_reply(
            index, timeout, phase
        )
        if status == _CRASH:
            # Mirrors serial: before_task fired, RNG untouched.
            raise InjectedCrash(
                f"injected crash: employee {index}, episode {episode}, "
                f"round {round_index}"
            )
        rng_state = payload["rng_state"]
        handle = self._workers[index]
        if not self._fold_reply_telemetry(index, handle, payload):
            # No worker-propagated spans (tracing-only run, old worker):
            # re-emit the shipped duration chief-side, marked synthetic so
            # a later merge with genuine worker spans never double-counts.
            record_span(
                f"employee.{phase}",
                payload["dur"],
                employee=index,
                episode=episode,
                round=round_index,
                synthetic=True,
            )
        if op == OP_EXPLORE:
            self.explore_durations[index] = float(payload["dur"])
        if op == OP_MINIBATCH:
            try:
                vector, nbytes = handle.channel.read_gradients(seq)
            except ChannelClosed as error:
                raise WorkerDied(
                    f"employee worker {index} lost its gradient payload "
                    f"during {phase}: {error}"
                ) from error
            self._ipc_bytes.labels(direction="gather").inc(nbytes)
            pack = GradientPack.from_vector(
                vector, self.shapes, self.num_policy_params, payload["stats"]
            )
            return pack, rng_state
        return payload["result"], rng_state

    def drain(self, indices: Iterable[int]) -> List[Tuple[int, dict]]:
        """Absorb abandoned in-flight commands at a phase boundary.

        A worker whose retries were exhausted may still be computing; the
        chief must consume that (discarded) reply before the next payload
        write or command, and must fold the worker's post-task RNG state
        into the mirror — matching serial, where an over-budget task also
        consumes its employee's RNG before the phase ends.
        Returns ``(index, rng_state)`` pairs for the trainer to apply.
        """
        drained: List[Tuple[int, dict]] = []
        for index in sorted(set(indices)):
            handle = self._workers[index]
            if handle.in_flight is None:
                continue
            try:
                status, payload, __ = self._await_reply(index, None, phase="drain")
            except WorkerDied:
                continue  # revived lazily by the next sync
            if isinstance(payload, dict):
                # Abandoned work still reports: its spans and metric
                # deltas are folded so the fleet view never loses them.
                self._fold_reply_telemetry(index, handle, payload)
            if status == _OK and isinstance(payload, dict) and "rng_state" in payload:
                drained.append((index, payload["rng_state"]))
            elif status == _CRASH and isinstance(payload, dict):
                drained.append((index, payload["rng_state"]))
        return drained

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker and release the transport (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit_shutdown)
        for index, handle in enumerate(self._workers):
            if not self.alive(index):
                continue
            if handle.in_flight is not None:
                # Mid-command (an interrupted or abandoned phase): it
                # cannot be sent OP_SHUTDOWN and would only sit out the
                # join timeout below, one worker after another.
                if handle.process is not None:
                    handle.process.terminate()
                continue
            try:
                handle.channel.send_command(OP_SHUTDOWN, handle.next_seq(), None)
            except ChannelClosed:
                _LOG.warning("worker %d already unreachable at shutdown", index)
        for handle in self._workers:
            if handle.process is None:
                continue
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=timeout)
        for handle in self._workers:
            handle.channel.close()
        self._transport.close()

    def _atexit_shutdown(self) -> None:
        """Last-resort cleanup on interpreter exit (incl. KeyboardInterrupt)."""
        try:
            self.shutdown(timeout=1.0)
        except Exception:
            _LOG.warning("process pool atexit shutdown failed", exc_info=True)

    def __enter__(self) -> "ProcessEmployeePool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
