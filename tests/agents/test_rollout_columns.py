"""The columnar ``RolloutBuffer`` samples the bytes a row-object buffer did.

The buffer keeps one array per column and gathers a minibatch with one
``take`` per column.  The reference below is the gather it replaced: a
list of ``Transition`` objects and one ``np.stack`` per field per
minibatch.  A buffer filled by ``add`` and one filled by
``collect_episodes`` (whole columns) must sample byte-equal minibatches.
"""

import numpy as np
import pytest

from repro.agents.rollout import (
    COLUMNS,
    RolloutBuffer,
    Transition,
    discounted_returns,
    gae_advantages,
)
from repro.distributed.factories import build_agent
from repro.env import CrowdsensingEnv
from repro.env.generator import generate_scenario
from repro.experiments.scales import get_scale
from repro.experiments.training import make_ppo_config

SCALE = get_scale("smoke")
FIELDS = (
    "states",
    "move_masks",
    "moves",
    "charges",
    "log_probs",
    "values",
    "returns",
    "advantages",
    "positions",
    "next_positions",
    "next_states",
    "worker_features",
)


def random_transitions(rng, count, workers=3):
    out = []
    for t in range(count):
        out.append(
            Transition(
                state=rng.normal(size=(3, 5, 5)),
                move_mask=rng.random((workers, 9)) < 0.7,
                moves=rng.integers(0, 9, size=workers),
                charges=rng.integers(0, 2, size=workers),
                log_prob=float(rng.normal()),
                value=float(rng.normal()),
                reward=float(rng.normal()),
                done=t == count - 1 or bool(rng.random() < 0.1),
                positions=rng.uniform(0, 8, size=(workers, 2)),
                next_positions=rng.uniform(0, 8, size=(workers, 2)),
                next_state=rng.normal(size=(3, 5, 5)),
                # Every third transition stores no features (CNN-only rows).
                worker_features=None if t % 3 == 0 else rng.random((workers, 3)),
            )
        )
    return out


def reference_gather(transitions, indices, gamma, lam):
    """The row-object gather: one ``np.stack`` per field per minibatch."""
    rewards = np.array([tr.reward for tr in transitions])
    values = np.array([tr.value for tr in transitions])
    dones = np.array([tr.done for tr in transitions])
    returns = discounted_returns(rewards, dones, gamma, 0.0)
    advantages = gae_advantages(rewards, values, dones, gamma, lam, 0.0)
    picked = [transitions[i] for i in indices]
    return {
        "states": np.stack([tr.state for tr in picked]),
        "move_masks": np.stack([tr.move_mask for tr in picked]),
        "moves": np.stack([tr.moves for tr in picked]),
        "charges": np.stack([tr.charges for tr in picked]),
        "log_probs": np.array([tr.log_prob for tr in picked]),
        "values": np.array([tr.value for tr in picked]),
        "returns": returns[indices],
        "advantages": advantages[indices],
        "positions": np.stack([tr.positions for tr in picked]),
        "next_positions": np.stack([tr.next_positions for tr in picked]),
        "next_states": np.stack([tr.next_state for tr in picked]),
        "worker_features": np.stack([tr.worker_features_or_zeros() for tr in picked]),
    }


def as_bytes(array):
    return array.dtype.str, array.shape, array.tobytes()


def assert_batches_equal(got, want):
    for name in FIELDS:
        assert as_bytes(getattr(got, name)) == as_bytes(want[name]), name


def batch_fields(batch):
    return {name: getattr(batch, name) for name in FIELDS}


class TestGatherBytes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gather_equals_the_stacking_reference(self, seed):
        rng = np.random.default_rng(seed)
        transitions = random_transitions(rng, 37)
        buffer = RolloutBuffer(gamma=0.97, gae_lambda=0.9)
        for transition in transitions:
            buffer.add(transition)
        buffer.finalize()
        index_sets = [
            rng.permutation(37)[:8],
            np.arange(37),
            rng.integers(0, 37, size=11),  # repeats allowed
            np.array([36]),
        ]
        for indices in index_sets:
            assert_batches_equal(
                buffer._gather(indices), reference_gather(transitions, indices, 0.97, 0.9)
            )
        assert buffer.rewards.tobytes() == np.array([tr.reward for tr in transitions]).tobytes()
        assert buffer.dones.tobytes() == np.array([tr.done for tr in transitions]).tobytes()

    def test_extend_rejects_ragged_columns(self):
        columns = {name: np.zeros(3) for name in COLUMNS}
        buffer = RolloutBuffer()
        with pytest.raises(ValueError, match="rows"):
            buffer.extend(dict(columns, values=np.zeros(2)))

    def test_extend_fills_only_an_empty_buffer(self):
        columns = {name: np.zeros(3) for name in COLUMNS}
        added = RolloutBuffer()
        added.add(random_transitions(np.random.default_rng(5), 1)[0])
        with pytest.raises(RuntimeError, match="empty buffer"):
            added.extend(columns)
        extended = RolloutBuffer()
        extended.extend(columns)
        with pytest.raises(RuntimeError, match="extend"):
            extended.add(random_transitions(np.random.default_rng(5), 1)[0])
        extended.clear()
        extended.extend(columns)
        assert len(extended) == 3

    def test_rewards_and_dones_are_read_only(self):
        columns = {name: np.zeros(3) for name in COLUMNS}
        buffer = RolloutBuffer()
        buffer.extend(columns)
        for view in (buffer.rewards, buffer.dones):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0
        assert columns["rewards"].flags.writeable
        assert not columns["rewards"].any()


def collected(name, curiosity):
    """A smoke-scale agent and one collected episode."""
    config = SCALE.scenario(seed=3)
    scenario = generate_scenario(config)
    agent = build_agent(
        name,
        config,
        scenario=scenario,
        ppo=make_ppo_config(SCALE),
        seed=7,
        **({"curiosity": curiosity} if curiosity else {}),
    )
    env = CrowdsensingEnv(config, reward_mode=agent.reward_mode, scenario=scenario)
    buffer, __ = agent.collect_episode(env, np.random.default_rng(11))
    return agent, buffer


def refill_by_add(buffer):
    """The same rows, handed to a fresh buffer one ``Transition`` at a time."""
    batch = buffer.full_batch()
    twin = RolloutBuffer(gamma=buffer.gamma, gae_lambda=buffer.gae_lambda)
    for t, (reward, done) in enumerate(zip(buffer.rewards.tolist(), buffer.dones.tolist())):
        twin.add(
            Transition(
                state=batch.states[t],
                move_mask=batch.move_masks[t],
                moves=batch.moves[t],
                charges=batch.charges[t],
                log_prob=float(batch.log_probs[t]),
                value=float(batch.values[t]),
                reward=reward,
                done=done,
                positions=batch.positions[t],
                next_positions=batch.next_positions[t],
                next_state=batch.next_states[t],
                worker_features=batch.worker_features[t],
            )
        )
    twin.finalize()
    return twin


@pytest.mark.parametrize(
    "name, curiosity",
    [("cews", None), ("dppo", None), ("cews", "icm"), ("cews", "rnd")],
)
def test_collected_buffer_equals_an_added_one(name, curiosity):
    agent, buffer = collected(name, curiosity)
    twin = refill_by_add(buffer)
    assert twin.rewards.tobytes() == buffer.rewards.tobytes()
    assert twin.dones.tobytes() == buffer.dones.tobytes()
    rng, twin_rng = np.random.default_rng(5), np.random.default_rng(5)
    batches = list(buffer.minibatches(agent.ppo.batch_size, rng, epochs=2))
    twin_batches = list(twin.minibatches(agent.ppo.batch_size, twin_rng, epochs=2))
    assert len(batches) == len(twin_batches)
    for batch, twin_batch in zip(batches, twin_batches):
        assert_batches_equal(batch, batch_fields(twin_batch))
