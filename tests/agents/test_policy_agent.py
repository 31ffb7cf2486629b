"""Tests for PPOWorkerAgent (the CEWS / DPPO machinery)."""

import numpy as np
import pytest

from repro import nn
from repro.agents import CEWSAgent, DPPOAgent, PPOConfig, PPOWorkerAgent
from repro.curiosity import NullCuriosity
from repro.env import CrowdsensingEnv


@pytest.fixture
def ppo():
    return PPOConfig(batch_size=8, epochs=1, learning_rate=1e-3)


@pytest.fixture
def cews(tiny_config, ppo):
    return CEWSAgent(tiny_config, ppo=ppo, seed=1)


@pytest.fixture
def cews_env(cews, tiny_config):
    return CrowdsensingEnv(tiny_config, reward_mode="sparse", scenario=cews.scenario)


class TestActing:
    def test_actions_always_valid(self, cews, cews_env, rng):
        cews_env.reset()
        for __ in range(tiny_steps := 8):
            mask = cews_env.valid_moves()
            action = cews.act(cews_env, rng)
            for w in range(cews_env.num_workers):
                assert mask[w, action.move[w]]
            cews_env.step(action)

    def test_greedy_act_deterministic(self, cews, cews_env):
        cews_env.reset()
        a = cews.act(cews_env, np.random.default_rng(0), greedy=True)
        b = cews.act(cews_env, np.random.default_rng(99), greedy=True)
        np.testing.assert_array_equal(a.move, b.move)
        np.testing.assert_array_equal(a.charge, b.charge)

    def test_act_full_bookkeeping(self, cews, cews_env, rng):
        cews_env.reset()
        action, log_prob, value, mask, features = cews.act_full(cews_env, rng)
        assert log_prob < 0  # a log-probability
        assert np.isfinite(value)
        assert mask.shape == (cews_env.num_workers, 9)
        assert features.shape == (cews_env.num_workers, 3)
        # Positions normalized to (0, 1); full batteries give 1.0.
        assert np.all(features[:, :2] > 0) and np.all(features[:, :2] < 1)
        np.testing.assert_allclose(features[:, 2], 1.0)


class TestCollect:
    def test_collect_episode_fills_buffer(self, cews, cews_env, rng):
        buffer, result = cews.collect_episode(cews_env, rng)
        assert len(buffer) == cews_env.config.horizon
        assert result.steps == cews_env.config.horizon
        assert result.intrinsic_reward > 0  # curiosity active

    def test_rewards_include_intrinsic(self, cews, cews_env, rng):
        buffer, result = cews.collect_episode(cews_env, rng)
        # Total stored reward equals ext + int totals.
        stored_total = sum(buffer.rewards.tolist())
        assert stored_total == pytest.approx(
            result.extrinsic_reward + result.intrinsic_reward
        )

    def test_record_trajectory(self, cews, cews_env, rng):
        __, result = cews.collect_episode(cews_env, rng, record_trajectory=True)
        assert len(result.trajectory) == cews_env.config.horizon + 1

    def test_dppo_has_zero_intrinsic(self, tiny_config, ppo, rng):
        agent = DPPOAgent(tiny_config, ppo=ppo, seed=1)
        env = CrowdsensingEnv(tiny_config, reward_mode="dense")
        __, result = agent.collect_episode(env, rng)
        assert result.intrinsic_reward == 0.0


class TestGradients:
    def test_gradient_pack_alignment(self, cews, cews_env, rng):
        buffer, __ = cews.collect_episode(cews_env, rng)
        pack = cews.compute_gradients(buffer.full_batch())
        assert len(pack.policy) == len(cews.network.parameters())
        assert len(pack.curiosity) == len(cews.curiosity.parameters())
        for grad, param in zip(pack.policy, cews.network.parameters()):
            assert grad.shape == param.data.shape

    def test_gradients_do_not_mutate_params(self, cews, cews_env, rng):
        buffer, __ = cews.collect_episode(cews_env, rng)
        before = {k: v.copy() for k, v in cews.network.state_dict().items()}
        cews.compute_gradients(buffer.full_batch())
        for key, value in cews.network.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_null_curiosity_no_curiosity_grads(self, tiny_config, ppo, rng):
        agent = DPPOAgent(tiny_config, ppo=ppo)
        env = CrowdsensingEnv(tiny_config, reward_mode="dense")
        buffer, __ = agent.collect_episode(env, rng)
        pack = agent.compute_gradients(buffer.full_batch())
        assert pack.curiosity == []


class TestStandaloneTraining:
    def test_train_runs_and_returns_results(self, cews, cews_env, rng):
        results = cews.train(cews_env, episodes=2, rng=rng)
        assert len(results) == 2
        assert all(r.steps == cews_env.config.horizon for r in results)

    def test_train_episode_changes_parameters(self, cews, cews_env, rng):
        before = {k: v.copy() for k, v in cews.network.state_dict().items()}
        optimizer = nn.Adam(cews.network.parameters(), lr=1e-2)
        curiosity_opt = nn.Adam(cews.curiosity.parameters(), lr=1e-2)
        cews.train_episode(cews_env, rng, optimizer, curiosity_opt)
        changed = any(
            not np.array_equal(v, before[k])
            for k, v in cews.network.state_dict().items()
        )
        assert changed


class TestSync:
    def test_copy_parameters_from(self, tiny_config, ppo, rng):
        a = CEWSAgent(tiny_config, ppo=ppo, seed=1)
        b = CEWSAgent(tiny_config, scenario=a.scenario, ppo=ppo, seed=2)
        b.copy_parameters_from(a)
        for (ka, va), (kb, vb) in zip(
            a.state_dict().items(), b.state_dict().items()
        ):
            np.testing.assert_array_equal(va, vb)

    def test_copy_structural_mismatch(self, tiny_config, ppo):
        a = CEWSAgent(tiny_config, ppo=ppo, seed=1)
        b = DPPOAgent(tiny_config, ppo=ppo, seed=1)
        with pytest.raises(ValueError):
            b.copy_parameters_from(a)

    def test_parameter_split(self, cews):
        policy = cews.policy_parameters()
        curiosity = cews.curiosity_parameters()
        assert len(policy) > 0 and len(curiosity) > 0
        assert not ({id(p) for p in policy} & {id(p) for p in curiosity})


class TestDefaults:
    def test_cews_defaults(self, tiny_config):
        agent = CEWSAgent(tiny_config)
        assert agent.name == "DRL-CEWS"
        assert agent.reward_mode == "sparse"
        assert agent.curiosity.eta == 0.3
        assert agent.curiosity.structure == "shared"
        assert agent.curiosity.feature_kind == "embedding"

    def test_dppo_defaults(self, tiny_config):
        agent = DPPOAgent(tiny_config)
        assert agent.name == "DPPO"
        assert agent.reward_mode == "dense"
        assert isinstance(agent.curiosity, NullCuriosity)
        assert agent.ppo.normalize_advantages

    def test_cews_scenario_mismatch_rejected(self, tiny_config):
        from repro.env import generate_scenario

        other = generate_scenario(tiny_config.replace(seed=123))
        with pytest.raises(ValueError, match="different config"):
            CEWSAgent(tiny_config, scenario=other)
