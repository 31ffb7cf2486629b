"""Tests for the Edics multi-agent baseline."""

import numpy as np
import pytest

from repro.agents import EdicsAgent, PPOConfig
from repro.env import CrowdsensingEnv


@pytest.fixture
def ppo():
    return PPOConfig(batch_size=6, epochs=1, learning_rate=1e-3)


@pytest.fixture
def edics(tiny_config, ppo):
    return EdicsAgent(tiny_config, ppo=ppo, seed=2)


@pytest.fixture
def env(tiny_config):
    return CrowdsensingEnv(tiny_config, reward_mode="dense")


class TestStructure:
    def test_one_network_per_worker(self, edics, tiny_config):
        assert len(edics.networks) == tiny_config.num_workers

    def test_networks_take_identity_channel(self, edics):
        assert all(net.channels == 4 for net in edics.networks)

    def test_networks_are_single_worker(self, edics):
        assert all(net.num_workers == 1 for net in edics.networks)

    def test_no_curiosity_parameters(self, edics):
        assert edics.curiosity_parameters() == []

    def test_policy_parameters_concatenated(self, edics):
        per_net = len(edics.networks[0].parameters())
        assert len(edics.policy_parameters()) == per_net * len(edics.networks)


class TestActing:
    def test_actions_valid(self, edics, env, rng):
        env.reset()
        for __ in range(5):
            mask = env.valid_moves()
            action = edics.act(env, rng)
            for w in range(env.num_workers):
                assert mask[w, action.move[w]]
            env.step(action)

    def test_greedy_deterministic(self, edics, env):
        env.reset()
        a = edics.act(env, np.random.default_rng(0), greedy=True)
        b = edics.act(env, np.random.default_rng(9), greedy=True)
        np.testing.assert_array_equal(a.move, b.move)


class TestRollout:
    def test_buffers_aligned(self, edics, env, rng):
        rollout, result = edics.collect_episode(env, rng)
        assert len(rollout) == env.config.horizon
        assert len(rollout.buffers) == env.num_workers
        assert result.steps == env.config.horizon

    def test_per_worker_rewards_stored(self, edics, env, rng):
        rollout, __ = edics.collect_episode(env, rng)
        rewards = [buffer.rewards.tolist() for buffer in rollout.buffers]
        # Workers see different reward streams in general.
        assert rewards[0] != rewards[1] or len(set(rewards[0])) > 1

    def test_minibatches_yield_lists(self, edics, env, rng):
        rollout, __ = edics.collect_episode(env, rng)
        batch_list = next(iter(rollout.minibatches(4, rng)))
        assert len(batch_list) == env.num_workers
        assert all(len(batch) == 4 for batch in batch_list)

    def test_full_batch(self, edics, env, rng):
        rollout, __ = edics.collect_episode(env, rng)
        batches = rollout.full_batch()
        assert all(len(batch) == env.config.horizon for batch in batches)


class TestGradients:
    def test_gradient_pack(self, edics, env, rng):
        rollout, __ = edics.collect_episode(env, rng)
        pack = edics.compute_gradients(rollout.full_batch())
        assert len(pack.policy) == len(edics.policy_parameters())
        assert pack.curiosity == []

    def test_batch_count_mismatch(self, edics, env, rng):
        rollout, __ = edics.collect_episode(env, rng)
        with pytest.raises(ValueError, match="batches"):
            edics.compute_gradients(rollout.full_batch()[:1])


class TestTrainingAndSync:
    def test_standalone_train(self, edics, env, rng):
        results = edics.train(env, episodes=2, rng=rng)
        assert len(results) == 2

    def test_copy_parameters(self, tiny_config, ppo):
        a = EdicsAgent(tiny_config, ppo=ppo, seed=1)
        b = EdicsAgent(tiny_config, ppo=ppo, seed=2)
        b.copy_parameters_from(a)
        np.testing.assert_array_equal(
            a.networks[0].fc.weight.data, b.networks[0].fc.weight.data
        )

    def test_state_dict_round_trip(self, tiny_config, ppo):
        a = EdicsAgent(tiny_config, ppo=ppo, seed=1)
        b = EdicsAgent(tiny_config, ppo=ppo, seed=2)
        b.load_state_dict(a.state_dict())
        for na, nb in zip(a.networks, b.networks):
            for (ka, va), (kb, vb) in zip(
                na.state_dict().items(), nb.state_dict().items()
            ):
                np.testing.assert_array_equal(va, vb)
