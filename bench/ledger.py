"""The traced pass (``--trace 1``): an outside-in per-layer ledger.

End-to-end timing is off here.  Three parts:

1. every layer's public functions timed from ``bench/`` on shared
   fixtures (median of up to 200 calls, normalised like everything else);
2. the workload's op replayed as its public call sequence with an
   in-memory span at each layer boundary -> a waterfall of self times
   that sums to the op's wall, ``harness.unattributed_share`` and, against
   the same replay with spans off, ``harness.trace_overhead_ratio``;
3. a short live run of each workload for the counters only the running
   program can give (cache hit ratio, batch rows, reload stall, parallel
   efficiency, quality).

Layers are the repo's packages; README.md says which end-to-end metric
each layer metric should move, on which workload.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from inputs import random_action, smoke_trainer, zipf_indices
from proc import Placement
from repro import nn
from repro.agents.ppo import make_ppo_planner, ppo_step
from repro.agents.rollout import RolloutBuffer, Transition
from repro.curiosity.base import TransitionBatch
from repro.distributed import (
    ProcessEmployeePool,
    TensorSlab,
    build_worker_factories,
    load_checkpoint,
    save_checkpoint,
)
from repro.distributed.procpool import OP_EXPLORE, OP_MINIBATCH
from repro.distributed.shm import slab_name
from repro.distributed.transport.wire import decode_tensors, encode_tensors
from repro.experiments.training import make_ppo_config
from repro.obs.trace import Tracer
from repro.serve import ActionCache, InlinePool, MicroBatcher, PolicyEngine, ServeWorkerPool
from repro.serve.engine import load_network_state
from repro.serve.protocol import (
    decode_message,
    encode_infer,
    encode_result,
    request_digest,
)
from spans import NullRecorder, SpanRecorder, render_waterfall, self_times

__all__ = ["traced_pass"]

_HEADER = 12  # frame header bytes in front of a control payload
_PROBE_SHARE = 0.1  # of --seconds, per live probe
_MIN_CALLS = 12  # per timing, however slow the call (an episode is ~40 ms)


class Ledger:
    """Times calls into the layers and normalises them by the control."""

    def __init__(self, bench, budget_s: float):
        self.control = bench.control
        self.ref = bench.control_ref_ms
        self.budget_s = budget_s
        self.metrics: Dict[str, float] = {}

    def time(self, name: str, call: Callable[[], object],
             prepare: Optional[Callable[[], object]] = None,
             calls: int = 200) -> None:
        """``metrics[name]`` = normalised median milliseconds of ``call()``;
        ``prepare()`` runs untimed before each call."""
        for __ in range(2):  # warm: plans compiled, caches filled
            if prepare:
                prepare()
            call()
        before = self.control.measure_ms()
        durations = []
        deadline = time.perf_counter() + self.budget_s
        while len(durations) < calls and (
            len(durations) < _MIN_CALLS or time.perf_counter() < deadline
        ):
            if prepare:
                prepare()
            start = time.perf_counter()
            call()
            durations.append(time.perf_counter() - start)
        after = self.control.measure_ms()
        self.metrics[name] = (
            float(np.median(durations)) * 1e3 * self.ref / (0.5 * (before + after))
        )


def _parameter_arrays(agent) -> List[np.ndarray]:
    """Global parameters in slab order: policy first, curiosity after."""
    return [p.data for p in agent.policy_parameters() + agent.curiosity_parameters()]


# ----------------------------------------------------------------------
# Part 1: layer micro-timings
# ----------------------------------------------------------------------
def train_layers(ledger: Ledger, trainer, out_dir: Path) -> None:
    """env, agents, curiosity, nn, distributed (in-process part), obs."""
    rng = np.random.default_rng(0)
    employee = trainer.employees[0]
    agent, env = employee.agent, employee.env
    global_agent = trainer.global_agent
    batch_size = agent.ppo.batch_size

    # env
    ledger.time("env.reset_ms", env.reset)
    state, done = env.reset(), False
    rollout = batch = pack = None

    def step():
        nonlocal state, done
        state, __, done, __ = env.step(random_action(env, rng))

    def fresh_if_done():
        nonlocal state, done
        if done:
            state, done = env.reset(), False
    ledger.time("env.step_ms", step, fresh_if_done)

    # agents
    def advance():
        fresh_if_done()
        step()
        fresh_if_done()
    ledger.time("agents.act_full_ms",
                lambda: agent.act_full(env, rng, greedy=False, state=state), advance)

    def collect():
        nonlocal rollout
        rollout = agent.collect_episode(env, rng)[0]
    ledger.time("agents.collect_episode_ms", collect)

    def sample():
        nonlocal batch
        batch = next(iter(rollout.minibatches(batch_size, rng, epochs=1)))
    ledger.time("agents.minibatch_ms", sample)

    def gradients():
        nonlocal pack
        pack = agent.compute_gradients(batch)
    ledger.time("agents.compute_gradients_ms", gradients, sample)

    # curiosity
    episode = rollout.full_batch()
    singles = [
        TransitionBatch.single(
            positions=episode.positions[t], moves=episode.moves[t],
            next_positions=episode.next_positions[t],
            state=episode.states[t], next_state=episode.next_states[t])
        for t in range(len(episode))
    ]
    steps = itertools.cycle(singles)
    ledger.time("curiosity.intrinsic_ms",
                lambda: agent.curiosity.intrinsic_reward(next(steps)))
    curiosity_batch = TransitionBatch(
        positions=batch.positions, next_positions=batch.next_positions,
        moves=batch.moves, states=batch.states, next_states=batch.next_states,
    )

    def curiosity_backward():
        for param in agent.curiosity.parameters():
            param.grad = None
        agent.curiosity.loss(curiosity_batch).backward()
    ledger.time("curiosity.loss_backward_ms", curiosity_backward)

    # nn
    def zero():
        for param in agent.network.parameters():
            param.grad = None
    planner = make_ppo_planner(agent.network, agent.ppo)
    ledger.time("nn.ppo_step_plan_ms",
                lambda: ppo_step(agent.network, batch, agent.ppo, planner=planner), zero)
    runs = planner.stats["plan_runs"] + planner.stats["tape_runs"]
    ledger.metrics["nn.plan_replay_ratio"] = planner.stats["plan_runs"] / runs
    ledger.time("nn.ppo_step_tape_ms",
                lambda: ppo_step(agent.network, batch, agent.ppo), zero)
    scratch = copy.deepcopy(agent)  # optimizer steps must not move the fixture
    params = scratch.network.parameters()
    adam = nn.Adam(params, lr=agent.ppo.learning_rate)

    def install():
        for param, grad in zip(params, pack.policy):
            param.grad = grad.copy()

    def apply():
        nn.clip_grad_norm(params, agent.ppo.max_grad_norm)
        adam.step()
    ledger.time("nn.adam_apply_ms", apply, install)

    # distributed, in-process
    ledger.time("distributed.sync_copy_ms",
                lambda: agent.copy_parameters_from(global_agent))
    grads = pack.policy + pack.curiosity
    buffer = trainer.ppo_buffer

    def add_drain():
        for index in range(len(trainer.employees)):
            buffer.add(pack.policy, employee=index)
        buffer.drain()
    ledger.time("distributed.buffer_add_drain_ms", add_drain)
    arrays = _parameter_arrays(trainer.global_agent)
    slab = TensorSlab.create(slab_name(0, "bench"), [a.shape for a in arrays])
    seqs = itertools.count(1)
    try:
        def write_read():
            seq = next(seqs)
            slab.write(arrays, seq=seq)
            slab.read(seq)
        ledger.time("distributed.slab_write_read_ms", write_read)
    finally:
        slab.unlink()
    shapes = [g.shape for g in grads]
    payload = encode_tensors(grads, seq=1)
    ledger.time("distributed.wire_encode_ms", lambda: encode_tensors(grads, seq=1))
    ledger.time("distributed.wire_decode_ms", lambda: decode_tensors(payload, shapes))
    ledger.metrics["distributed.grad_bytes_per_round"] = float(
        len(payload) * len(trainer.employees)
    )
    path = out_dir / "ledger-checkpoint.npz"
    ledger.time("distributed.checkpoint_save_ms",
                lambda: save_checkpoint(trainer, path), calls=40)
    ledger.time("distributed.checkpoint_load_ms",
                lambda: load_checkpoint(trainer, path), calls=40)

    # obs: one episode with the repo's Tracer installed vs without,
    # interleaved so both sample the host at the same times.
    plain, traced = [], []
    trainer.train(1)
    for __ in range(max(3, int(ledger.budget_s * 8))):
        start = time.perf_counter()
        trainer.train(1)
        plain.append(time.perf_counter() - start)
        with Tracer(path=None):
            start = time.perf_counter()
            trainer.train(1)
            traced.append(time.perf_counter() - start)
    ledger.metrics["obs.tracer_on_ratio"] = float(np.median(traced) / np.median(plain))


def make_pool(trainer, config, scale, seed: int) -> ProcessEmployeePool:
    """The process pool exactly as ``ChiefEmployeeTrainer`` builds it."""
    agent_factory, env_factory = build_worker_factories(
        "cews", config, ppo=make_ppo_config(scale), seed=seed
    )
    count = len(trainer.employees)
    seeds = np.random.SeedSequence(seed).spawn(count + 1)
    return ProcessEmployeePool(
        agent_factory, env_factory, count,
        shapes=[a.shape for a in _parameter_arrays(trainer.global_agent)],
        num_policy_params=len(trainer.global_agent.policy_parameters()),
        initial_rng_states=[
            np.random.default_rng(seeds[i]).bit_generator.state for i in range(count)
        ],
        transport="local",
        federate=True,
    )


def pool_layers(ledger: Ledger, pool: ProcessEmployeePool, trainer) -> None:
    arrays = _parameter_arrays(trainer.global_agent)
    count = pool.num_employees
    batch_size = trainer.global_agent.ppo.batch_size
    pool.sync(arrays, [None] * count, episode=0)

    def phase(op: str, name: str, **kwargs):
        for index in range(count):
            pool.submit(index, op, 0, **kwargs)
        return [pool.wait(index, None, name)[0] for index in range(count)]
    ledger.time("distributed.pool_explore_ms", lambda: phase(OP_EXPLORE, "explore"))
    ledger.time("distributed.pool_minibatch_ms",
                lambda: phase(OP_MINIBATCH, "gradients", round_index=0,
                              batch_size=batch_size))


def serve_layers(ledger: Ledger, inputs) -> None:
    """serve.protocol / cache / engine / pool / batcher."""
    requests = inputs.requests
    state = load_network_state(inputs.checkpoints[0])
    other = load_network_state(inputs.checkpoints[1])
    ledger.time("serve.engine.load_state_ms",
                lambda: load_network_state(inputs.checkpoints[0]), calls=60)
    cursor = 0

    def following(step: int = 1) -> None:
        """Move on to requests not used by the previous call."""
        nonlocal cursor
        cursor = (cursor + step) % (len(requests) - 8)

    # engine
    engine = PolicyEngine(state, generation=1)
    ledger.time("serve.engine.infer_b1_ms",
                lambda: engine.infer_batch(requests[cursor:cursor + 1]), following)
    ledger.time("serve.engine.infer_b8_ms",
                lambda: engine.infer_batch(requests[cursor:cursor + 8]),
                lambda: following(8))
    stats = engine.stats()
    ledger.metrics["serve.engine.plan_replay_ratio"] = stats["plan_runs"] / (
        stats["plan_runs"] + stats["tape_runs"]
    )
    result = engine.infer_batch(requests[:1])[0]

    # protocol
    frame = encode_infer(requests[0], 7)
    reply = encode_result(result, 7)
    ledger.time("serve.protocol.encode_infer_ms",
                lambda: encode_infer(requests[cursor], 7), following)
    ledger.time("serve.protocol.decode_infer_ms", lambda: decode_message(frame[_HEADER:]))
    ledger.time("serve.protocol.encode_result_ms", lambda: encode_result(result, 7))
    ledger.time("serve.protocol.decode_result_ms", lambda: decode_message(reply[_HEADER:]))
    ledger.time("serve.protocol.digest_ms",
                lambda: request_digest(requests[cursor]), following)

    # cache: hits on a resident set, misses on absent keys, puts that evict.
    cache = ActionCache(capacity=1024)
    cache.bump_generation(result.generation)
    for request in requests[:1024]:
        cache.put(request, result)
    resident = itertools.cycle(requests[:64])
    absent = itertools.cycle(requests[1024:])  # a put evicts it again 1 024 puts later
    ledger.time("serve.cache.get_hit_ms", lambda: cache.get(next(resident)))
    ledger.time("serve.cache.get_miss_ms", lambda: cache.get(next(absent)))
    ledger.time("serve.cache.put_evict_ms", lambda: cache.put(next(absent), result))

    # pool: the same batch of 8 inline and through one fork worker; their
    # gap is the pool's IPC cost.
    inline = InlinePool(state, generation=1)
    ledger.time("serve.pool.inline_b8_ms",
                lambda: inline.infer(requests[cursor:cursor + 8]),
                lambda: following(8))
    pool = ServeWorkerPool(state, num_workers=1, generation=1)
    try:
        ledger.time("serve.pool.fork1_b8_ms",
                    lambda: pool.infer(requests[cursor:cursor + 8]),
                    lambda: following(8))
        generations = itertools.count(2)

        def reload():
            generation = next(generations)
            pool.reload(other if generation % 2 == 0 else state, generation)
        ledger.time("serve.pool.reload_ms", reload, calls=60)
    finally:
        pool.shutdown()

    # batcher: submit -> result around a no-op dispatch, batches of one so
    # the coalescing timer is not what is measured.
    async def batcher_round_trips(count: int) -> List[float]:
        with ThreadPoolExecutor(max_workers=1) as executor:
            batcher = MicroBatcher(lambda chunk: [result] * len(chunk), executor,
                                   max_batch=1)
            durations = []
            for __ in range(count):
                start = time.perf_counter()
                await batcher.submit(requests[0])
                durations.append(time.perf_counter() - start)
            await batcher.close()
        return durations
    before = ledger.control.measure_ms()
    durations = asyncio.run(batcher_round_trips(220))[20:]
    after = ledger.control.measure_ms()
    ledger.metrics["serve.batcher.overhead_ms"] = (
        float(np.median(durations)) * 1e3 * ledger.ref / (0.5 * (before + after))
    )


# ----------------------------------------------------------------------
# Part 2: op replays with spans
# ----------------------------------------------------------------------
def replay_episode_serial(trainer, recorder) -> None:
    """One synchronous episode as ``ChiefEmployeeTrainer`` runs it on the
    serial backend, spelled out as its public call sequence."""
    span = recorder.span
    global_agent = trainer.global_agent
    batch_size = global_agent.ppo.batch_size
    with recorder.op("episode"):
        rollouts = []
        for employee in trainer.employees:
            with span("agents.copy_parameters_from"):
                employee.agent.copy_parameters_from(global_agent)
        for employee in trainer.employees:
            agent, env, rng = employee.agent, employee.env, employee.rng
            buffer = RolloutBuffer(gamma=agent.ppo.gamma, gae_lambda=agent.ppo.gae_lambda)
            with span("env.reset"):
                state = env.reset()
            done = False
            while not done:
                before = env.workers.positions.copy()
                with span("agents.act_full"):
                    action, log_prob, value, mask, features = agent.act_full(
                        env, rng, greedy=False, state=state)
                with span("env.step"):
                    next_state, extrinsic, done, info = env.step(action)
                with span("curiosity.intrinsic_reward"):
                    intrinsic = float(agent.curiosity.intrinsic_reward(
                        TransitionBatch.single(
                            positions=before, moves=action.move,
                            next_positions=info["positions"], state=state,
                            next_state=next_state))[0])
                with span("agents.rollout_add"):
                    buffer.add(Transition(
                        state=state, move_mask=mask, moves=action.move,
                        charges=action.charge, log_prob=log_prob, value=value,
                        reward=extrinsic + intrinsic, done=done, positions=before,
                        next_positions=info["positions"].copy(), next_state=next_state,
                        worker_features=features))
                state = next_state
            with span("agents.rollout_finalize"):
                buffer.finalize(bootstrap_value=0.0)
            rollouts.append(buffer)
        for __ in range(trainer.config.k_updates):
            for index, (employee, buffer) in enumerate(zip(trainer.employees, rollouts)):
                with span("agents.minibatches"):
                    batch = next(iter(buffer.minibatches(batch_size, employee.rng, epochs=1)))
                with span("agents.compute_gradients"):
                    pack = employee.agent.compute_gradients(batch)
                with span("distributed.buffer_add"):
                    trainer.ppo_buffer.add(pack.policy, employee=index)
                    trainer.curiosity_buffer.add(pack.curiosity, employee=index)
            _apply_round(trainer, span)
            for employee in trainer.employees:
                with span("agents.copy_parameters_from"):
                    employee.agent.copy_parameters_from(global_agent)


def _apply_round(trainer, span) -> None:
    global_agent = trainer.global_agent
    with span("distributed.buffer_drain"):
        grads, __ = trainer.ppo_buffer.drain()
        curiosity_grads, __ = trainer.curiosity_buffer.drain()
    with span("nn.apply_gradients"):
        params = global_agent.policy_parameters()
        for param, grad in zip(params, grads):
            param.grad = grad
        nn.clip_grad_norm(params, global_agent.ppo.max_grad_norm)
        trainer.policy_optimizer.step()
        trainer.curiosity_optimizer.apply_gradients(curiosity_grads)


def replay_episode_process(trainer, pool: ProcessEmployeePool, recorder) -> None:
    """The same episode with both employees in worker processes: what the
    chief does, and where it waits."""
    span = recorder.span
    count = pool.num_employees
    batch_size = trainer.global_agent.ppo.batch_size
    arrays = _parameter_arrays(trainer.global_agent)
    with recorder.op("episode"):
        with span("distributed.pool_sync"):
            pool.sync(arrays, [None] * count, episode=0)
        with span("distributed.pool_submit"):
            for index in range(count):
                pool.submit(index, OP_EXPLORE, 0)
        for index in range(count):
            with span("distributed.pool_wait_explore"):
                pool.wait(index, None, "explore")
        for round_index in range(trainer.config.k_updates):
            with span("distributed.pool_submit"):
                for index in range(count):
                    pool.submit(index, OP_MINIBATCH, 0, round_index, batch_size=batch_size)
            for index in range(count):
                with span("distributed.pool_wait_gradients"):
                    pack = pool.wait(index, None, "gradients")[0]
                with span("distributed.buffer_add"):
                    trainer.ppo_buffer.add(pack.policy, employee=index)
                    trainer.curiosity_buffer.add(pack.curiosity, employee=index)
            _apply_round(trainer, span)
            with span("distributed.pool_sync"):
                pool.sync(arrays, [None] * count, episode=0)


def replay_request(request, seq: int, cache: ActionCache, engine: PolicyEngine,
                   recorder) -> None:
    """One request through the layers the server runs it through."""
    span = recorder.span
    with recorder.op("request"):
        with span("serve.protocol.encode_infer"):
            frame = encode_infer(request, seq)
        with span("serve.protocol.decode_message"):
            __, __, decoded = decode_message(frame[_HEADER:])
        with span("serve.cache.get"):
            result = cache.get(decoded)
        if result is None:
            with span("serve.engine.infer_batch"):
                result = engine.infer_batch([decoded])[0]
            with span("serve.cache.put"):
                cache.put(decoded, result)
        with span("serve.protocol.encode_result"):
            reply = encode_result(result, seq)
        with span("serve.protocol.decode_message"):
            decode_message(reply[_HEADER:])


def waterfall(name: str, replay: Callable[[object], None], ops: int, rounds: int,
              out_dir: Path, warm: int = 1) -> Dict[str, float]:
    """Alternate traced and plain blocks of ``ops`` replays (after ``warm``
    untimed ones); print the waterfall; write the last traced ops' spans."""
    null = NullRecorder()
    for __ in range(warm):
        replay(null)
    recorder = SpanRecorder()
    plain_wall = traced_wall = 0.0
    for __ in range(rounds):
        start = time.perf_counter()
        for __ in range(ops):
            replay(null)
        plain_wall += time.perf_counter() - start
        start = time.perf_counter()
        for __ in range(ops):
            replay(recorder)
        traced_wall += time.perf_counter() - start
    __, wall, root_self = self_times(recorder)
    print("\n".join(render_waterfall(recorder, ops * rounds)))
    trace_path = out_dir / f"trace-{name}.json"
    recorder.dump(trace_path, last_ops=min(ops, 50))
    print(f"  spans written to {trace_path}")
    return {
        "harness.unattributed_share": root_self / wall,
        "harness.trace_overhead_ratio": traced_wall / plain_wall,
    }


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def traced_pass(bench, name: str, seed: int, seconds: float, out_dir: Path) -> Dict[str, object]:
    ledger = Ledger(bench, budget_s=0.3 * seconds / 25.0)
    unique = bench.serve_inputs("serve_unique", seed)
    repeat = bench.serve_inputs("serve_repeat_reload", seed)
    trainer, config, scale = smoke_trainer(seed)
    pool = None
    # Parts 1-2 run in this process: one CPU, and the control on that CPU.
    with Placement(bench.control) as placement:
        try:
            train_layers(ledger, trainer, out_dir)
            serve_layers(ledger, unique)
            if name == "train_serial":
                trace = waterfall(name, lambda r: replay_episode_serial(trainer, r),
                                  1, 3, out_dir)
            elif name.startswith("serve_"):
                engine = PolicyEngine(load_network_state(unique.checkpoints[0]), generation=1)
                cache = ActionCache(capacity=1024)
                cache.bump_generation(1)
                if name == "serve_unique":
                    requests = unique.requests
                    stream = itertools.cycle(range(len(requests)))
                else:
                    requests = repeat.requests
                    # Every hot state once (the warm-up fills the cache), then Zipf.
                    stream = itertools.chain(
                        range(len(requests)),
                        zipf_indices(np.random.default_rng(seed), 10**4, len(requests), 1.3))
                trace = waterfall(
                    name,
                    lambda r: replay_request(requests[next(stream)], 1, cache, engine, r),
                    100, 4, out_dir, warm=len(repeat.requests))
            # The employee pool's workers go where train_process puts them.
            pool = make_pool(trainer, config, scale, seed)
            placement.spread(os.getpid())
            pool_layers(ledger, pool, trainer)
            if name == "train_process":
                trace = waterfall(name, lambda r: replay_episode_process(trainer, pool, r),
                                  1, 3, out_dir)
        finally:
            if pool is not None:
                pool.shutdown()
            trainer.close()

    # Part 3: short live runs, every resource of parts 1-2 released first
    # (their leak checks would otherwise see this process's own slabs).
    metrics = dict(ledger.metrics)
    metrics.update(trace)
    attempted = failed = 0
    notes: List[str] = []
    live: Dict[str, Dict[str, object]] = {}
    for workload in ("train_serial", "train_process", "serve_unique", "serve_repeat_reload"):
        result = bench.end_to_end(workload, seed, _PROBE_SHARE * seconds, setups=0)
        live[workload] = result
        attempted += result["attempted"]
        failed += result["failed"]
        notes += [f"{workload}: {note}" for note in result["notes"]]
    metrics.update(live[name]["harness"])
    metrics["distributed.parallel_efficiency"] = live["train_serial"]["metrics"]["p50_ms"] / (
        2.0 * live["train_process"]["metrics"]["p50_ms"]
    )
    metrics["quality.rho"] = live["train_serial"]["detail"]["quality.rho"]
    metrics["quality.kappa"] = live["train_serial"]["detail"]["quality.kappa"]
    metrics["serve.batcher.mean_batch_rows"] = (
        live["serve_unique"]["live"]["serve.batcher.mean_batch_rows"]
    )
    for key in ("serve.cache.hit_ratio", "serve.server.reload_call_ms",
                "serve.server.reload_stall_ms"):
        metrics[key] = live["serve_repeat_reload"]["live"][key]
    print(f"  quality.log_hash {live['train_serial']['detail']['quality.log_hash']} "
          f"(train_process {live['train_process']['detail']['quality.log_hash']})")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}
