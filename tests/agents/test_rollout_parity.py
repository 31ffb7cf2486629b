"""The batch-native rollout stores the bits the per-step rollout stored.

``collect_episode`` acts through a forward-only execution plan of
``CNNActorCritic.forward_rows`` and scores curiosity once per episode.
The reference below is the per-step loop it replaced, kept verbatim: a
taped ``network.forward`` under ``no_grad`` per step, and one
``intrinsic_reward(TransitionBatch.single(...))`` per step.  Every
stored ``Transition`` field and the ``EpisodeResult`` must be
byte-equal to it, for each curiosity module the trainer can run.

``collect_episodes`` steps a group of envs in lockstep through one
stacked forward per time slot; each row must equal a reference rollout
of its own, on a fresh agent, env and generator, including rows that
leave the group early.
"""

import dataclasses
import struct
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.agents.base import EpisodeResult
from repro.agents.networks import select_actions
from repro.agents.rollout import RolloutBuffer, Transition
from repro.curiosity import TransitionBatch
from repro.distributed.factories import build_agent
from repro.env import CrowdsensingEnv
from repro.env.actions import Action
from repro.env.generator import generate_scenario
from repro.experiments.scales import get_scale
from repro.experiments.training import make_ppo_config
from repro.obs.trace import Tracer

SCALE = get_scale("smoke")

#: (method, build_agent curiosity override kwargs)
VARIANTS = {
    "cews": ("cews", {}),
    "dppo": ("dppo", {}),
    "spatial-direct-independent": (
        "cews",
        {"curiosity": "spatial", "feature": "direct", "structure": "independent"},
    ),
    "icm": ("cews", {"curiosity": "icm"}),
    "rnd": ("cews", {"curiosity": "rnd"}),
}


def reference_act_full(agent, env, rng, greedy=False, state=None):
    """``act_full`` as the per-step rollout ran it: a taped forward."""
    if state is None:
        state = env._state()
    move_mask = env.valid_moves()
    worker_features = agent.worker_features_of(env)
    with nn.no_grad():
        output = agent.network.forward(
            state, move_mask=move_mask[None], worker_features=worker_features[None]
        )
        moves, charges, log_prob = select_actions(
            output, [None if greedy else rng]
        )
        value = float(output.value.item())
    return (
        Action(charge=charges[0], move=moves[0]),
        float(log_prob[0]),
        value,
        move_mask,
        worker_features,
    )


def reference_collect_episode(agent, env, rng):
    """``collect_episode`` as it was: curiosity scored step by step."""
    buffer = RolloutBuffer(gamma=agent.ppo.gamma, gae_lambda=agent.ppo.gae_lambda)
    state = env.reset()
    extrinsic_total = 0.0
    intrinsic_total = 0.0
    done = False
    steps = 0
    while not done:
        positions_before = env.workers.positions.copy()
        action, log_prob, value, move_mask, worker_features = reference_act_full(
            agent, env, rng, greedy=False, state=state
        )
        next_state, extrinsic, done, info = env.step(action)

        transition_batch = TransitionBatch.single(
            positions=positions_before,
            moves=action.move,
            next_positions=info["positions"],
            state=state if agent._needs_states else None,
            next_state=next_state if agent._needs_states else None,
        )
        intrinsic = float(agent.curiosity.intrinsic_reward(transition_batch)[0])
        reward = extrinsic + intrinsic
        extrinsic_total += extrinsic
        intrinsic_total += intrinsic

        buffer.add(
            Transition(
                state=state,
                move_mask=move_mask,
                moves=action.move,
                charges=action.charge,
                log_prob=log_prob,
                value=value,
                reward=reward,
                done=done,
                positions=positions_before,
                next_positions=info["positions"].copy(),
                next_state=next_state,
                worker_features=worker_features,
            )
        )
        state = next_state
        steps += 1

    buffer.finalize(bootstrap_value=0.0)
    result = EpisodeResult(
        metrics=env.metrics(),
        extrinsic_reward=extrinsic_total,
        intrinsic_reward=intrinsic_total,
        steps=steps,
        trajectory=None,
    )
    return buffer, result


def as_bytes(value):
    """A value's exact bits (type, shape and dtype included)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return (type(value).__name__, struct.pack("<d", float(value)))
    if dataclasses.is_dataclass(value):
        return tuple(
            (field.name, as_bytes(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    return (type(value).__name__, value)


def columns_of(buffer):
    """Every stored column through the public surface: ``full_batch``
    (returns and advantages included) plus ``rewards`` and ``dones``."""
    batch = buffer.full_batch()
    columns = {field.name: getattr(batch, field.name) for field in dataclasses.fields(batch)}
    columns["rewards"] = buffer.rewards
    columns["dones"] = buffer.dones
    return columns


def assert_same_episode(got, want):
    (buffer, result), (ref_buffer, ref_result) = got, want
    assert len(buffer) == len(ref_buffer)
    mine, theirs = columns_of(buffer), columns_of(ref_buffer)
    assert mine.keys() == theirs.keys()
    for name, column in theirs.items():
        assert as_bytes(mine[name]) == as_bytes(column), f"column {name} differs"
    assert as_bytes(result) == as_bytes(ref_result)


def build(name, horizons=(SCALE.horizon,)):
    """A fresh agent plus one env and one generator per horizon.

    Every call builds the same agent; env ``i`` runs ``horizons[i]``
    steps over the same scenario and draws from ``default_rng(11 + i)``.
    """
    method, overrides = VARIANTS[name]
    config = SCALE.scenario(seed=3)
    scenario = generate_scenario(config)
    agent = build_agent(
        method, config, scenario=scenario, ppo=make_ppo_config(SCALE), seed=7,
        **overrides,
    )
    envs = []
    for horizon in horizons:
        # The generator ignores the horizon: every env sees the same map.
        env_config = SCALE.scenario(seed=3, horizon=horizon)
        envs.append(
            CrowdsensingEnv(
                env_config,
                reward_mode=agent.reward_mode,
                scenario=generate_scenario(env_config),
            )
        )
    rngs = [np.random.default_rng(11 + i) for i in range(len(horizons))]
    return agent, envs, rngs


def twins(name):
    """Two identically built (agent, env, rng) triples."""
    out = []
    for __ in range(2):
        agent, (env,), (rng,) = build(name)
        out.append((agent, env, rng))
    return out


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_rollout_is_byte_equal_to_the_per_step_reference(name):
    (agent, env, rng), (ref_agent, ref_env, ref_rng) = twins(name)
    for episode in range(2):
        got = agent.collect_episode(env, rng)
        assert_same_episode(got, reference_collect_episode(ref_agent, ref_env, ref_rng))
        if episode == 0:
            # The build step counts as a plan run: every step was planned.
            assert agent._act_planner.stats == {
                "plan_runs": got[1].steps,
                "tape_runs": 0,
                "built": 1,
                "unsupported": 0,
                "validation_failed": 0,
            }
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_tape_path_under_a_tracer_gives_the_same_bits():
    (agent, env, rng), (ref_agent, ref_env, ref_rng) = twins("cews")
    with Tracer():
        got = agent.collect_episode(env, rng)
    assert_same_episode(got, reference_collect_episode(ref_agent, ref_env, ref_rng))
    stats = agent._act_planner.stats
    assert stats["tape_runs"] == got[1].steps
    assert stats["plan_runs"] == stats["built"] == 0


def test_act_planner_is_rebuilt_not_copied():
    import copy
    import pickle

    (agent, env, rng), __ = twins("cews")
    agent.collect_episode(env, rng)
    assert agent._act_planner is not None
    for clone in (copy.deepcopy(agent), pickle.loads(pickle.dumps(agent))):
        assert clone._act_planner is None
        clone.act_full(env, np.random.default_rng(0))
        assert clone._act_planner.program.__self__ is clone.network


def assert_group_matches_separate_rollouts(name, horizons, record_trajectory=False):
    """A lockstep group ≡ one per-step reference rollout per env, each on
    a fresh copy of the agent, its env and its generator."""
    agent, envs, rngs = build(name, horizons)
    got = agent.collect_episodes(envs, rngs, record_trajectory=record_trajectory)
    assert len(got) == len(envs)
    __, ref_envs, ref_rngs = build(name, horizons)
    for i, (buffer, result) in enumerate(got):
        ref_agent, __, __ = build(name)
        want = reference_collect_episode(ref_agent, ref_envs[i], ref_rngs[i])
        if record_trajectory:
            # The reference records no trajectory: rebuild it from the
            # positions it stored (start, then after every step).
            ref_batch = want[0].full_batch()
            expected = [ref_batch.positions[0]] + list(ref_batch.next_positions)
            assert len(result.trajectory) == len(expected)
            for mine, theirs in zip(result.trajectory, expected):
                assert as_bytes(mine) == as_bytes(theirs)
            result = dataclasses.replace(result, trajectory=None)
        assert_same_episode((buffer, result), want)
        assert rngs[i].bit_generator.state == ref_rngs[i].bit_generator.state
    # One plan per live-row count, every slot planned.
    lengths = [result.steps for __, result in got]
    live_counts = {sum(n > t for n in lengths) for t in range(max(lengths))}
    assert agent._act_planner.stats == {
        "plan_runs": max(lengths),
        "tape_runs": 0,
        "built": len(live_counts),
        "unsupported": 0,
        "validation_failed": 0,
    }
    return lengths


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_lockstep_group_is_byte_equal_to_separate_rollouts(name, rows):
    assert_group_matches_separate_rollouts(name, (SCALE.horizon,) * rows)


@pytest.mark.parametrize("name", ["cews", "icm"])
def test_rows_leave_the_group_mid_episode(name):
    horizons = (SCALE.horizon, SCALE.horizon - 13, SCALE.horizon - 27, SCALE.horizon - 13)
    lengths = assert_group_matches_separate_rollouts(name, horizons)
    assert lengths == list(horizons)


def test_lockstep_group_records_every_trajectory():
    horizons = (SCALE.horizon, SCALE.horizon - 9)
    assert_group_matches_separate_rollouts("cews", horizons, record_trajectory=True)


def test_groups_larger_than_the_default_plan_cache_stay_planned():
    """The act planner's bound follows the group size: ten rows that
    leave one at a time need ten plans, past the default of eight."""
    horizons = tuple(SCALE.horizon - 2 * i for i in range(10))
    agent, envs, rngs = build("dppo", horizons)
    agent.collect_episodes(envs, rngs)
    stats = agent._act_planner.stats
    assert stats["built"] == 10
    assert stats["tape_runs"] == stats["validation_failed"] == 0


def test_collect_episodes_rejects_mismatched_generators():
    agent, envs, rngs = build("cews", (SCALE.horizon,) * 2)
    with pytest.raises(ValueError, match="generators"):
        agent.collect_episodes(envs, rngs[:1])


def _four_employees():
    """Four agents, each with its own env and generator (seeds 11..14)."""
    employees = []
    for k in range(4):
        agent, envs, rngs = build("cews", (SCALE.horizon,) * 4)
        employees.append((agent, envs[k], rngs[k]))
    return employees


def _roll(employee, episodes=2):
    agent, env, rng = employee
    return [agent.collect_episodes([env], [rng])[0] for __ in range(episodes)]


def test_concurrent_plan_captures_are_thread_local_and_bitwise():
    """Four agents roll on four threads at once, with the GIL switching
    as often as it can.  A capture records through its own thread's
    list and patches nothing process-wide, so a neighbour's capture
    sends no step to the tape: every act planner builds once and then
    only replays, and no bit moves against a sequential run."""
    expected = [_roll(employee) for employee in _four_employees()]
    employees = _four_employees()
    got = [None] * len(employees)
    errors = []

    def run(k):
        try:
            got[k] = _roll(employees[k])
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(employees))]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    for mine, theirs in zip(got, expected):
        for episode, reference in zip(mine, theirs, strict=True):
            assert_same_episode(episode, reference)
    for agent, __, __ in employees:
        stats = agent._act_planner.stats
        assert stats["validation_failed"] == 0
        assert stats["unsupported"] == 0
        assert stats["tape_runs"] == 0
        assert stats["built"] == 1
