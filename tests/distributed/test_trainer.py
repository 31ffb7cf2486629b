"""Tests for the chief–employee trainer."""

import numpy as np
import pytest

from repro.agents import PPOConfig
from repro.distributed import TrainConfig, build_trainer
from repro.env import smoke_config


@pytest.fixture
def config():
    return smoke_config(seed=5, horizon=10, num_pois=15)


@pytest.fixture
def ppo():
    return PPOConfig(batch_size=10, epochs=1, learning_rate=1e-3)


def make_trainer(config, ppo, method="cews", **train_overrides):
    defaults = dict(num_employees=2, episodes=2, k_updates=2, seed=0)
    defaults.update(train_overrides)
    return build_trainer(method, config, train=TrainConfig(**defaults), ppo=ppo)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_employees", 0),
            ("episodes", 0),
            ("k_updates", 0),
            ("backend", "bogus"),
            ("eval_every", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_thread_backend_rejected(self):
        with pytest.raises(ValueError, match="'serial', 'process' or 'socket'"):
            TrainConfig(backend="thread")

    def test_mode_field_removed(self):
        with pytest.raises(TypeError):
            TrainConfig(mode="sequential")


class TestTrainingLoop:
    def test_history_recorded(self, config, ppo):
        trainer = make_trainer(config, ppo)
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 2
        assert history.total_wall_time > 0
        for log in history.logs:
            assert np.isfinite(log.kappa)
            assert np.isfinite(log.policy_loss)
            assert log.wall_time > 0

    def test_global_parameters_change(self, config, ppo):
        trainer = make_trainer(config, ppo)
        before = {
            k: v.copy() for k, v in trainer.global_agent.network.state_dict().items()
        }
        trainer.train()
        trainer.close()
        changed = any(
            not np.array_equal(v, before[k])
            for k, v in trainer.global_agent.network.state_dict().items()
        )
        assert changed

    def test_employees_synced_after_training(self, config, ppo):
        trainer = make_trainer(config, ppo)
        trainer.train()
        employee = trainer.employees[0]
        for (kg, vg), (ke, ve) in zip(
            trainer.global_agent.state_dict().items(),
            employee.agent.state_dict().items(),
        ):
            np.testing.assert_array_equal(vg, ve)
        trainer.close()

    def test_curiosity_model_trains(self, config, ppo):
        trainer = make_trainer(config, ppo)
        before = {
            k: v.copy()
            for k, v in trainer.global_agent.curiosity.state_dict().items()
        }
        trainer.train()
        trainer.close()
        changed = any(
            not np.array_equal(v, before[k])
            for k, v in trainer.global_agent.curiosity.state_dict().items()
        )
        assert changed

    def test_curve_helpers(self, config, ppo):
        trainer = make_trainer(config, ppo)
        history = trainer.train()
        trainer.close()
        assert len(history.curve("kappa")) == 2
        assert len(history.curve("intrinsic_reward")) == 2

    def test_eval_every(self, config, ppo):
        trainer = make_trainer(config, ppo, episodes=4, eval_every=2)
        history = trainer.train()
        trainer.close()
        evals = history.eval_curve("kappa")
        assert [episode for episode, __ in evals] == [1, 3]
        assert history.final_eval() is not None

    def test_no_eval_by_default(self, config, ppo):
        trainer = make_trainer(config, ppo)
        history = trainer.train()
        trainer.close()
        assert history.eval_curve("kappa") == []
        assert history.final_eval() is None

    def test_train_episode_override(self, config, ppo):
        trainer = make_trainer(config, ppo, episodes=5)
        history = trainer.train(1)
        trainer.close()
        assert len(history.logs) == 1


class TestDrivers:
    def test_context_manager(self, config, ppo):
        with make_trainer(config, ppo) as trainer:
            trainer.train(1)


class TestMethods:
    @pytest.mark.parametrize("method", ["cews", "dppo", "edics"])
    def test_all_methods_train(self, config, ppo, method):
        trainer = make_trainer(config, ppo, method=method, episodes=1)
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 1

    def test_edics_has_no_curiosity_optimizer(self, config, ppo):
        trainer = make_trainer(config, ppo, method="edics", episodes=1)
        assert trainer.curiosity_optimizer is None
        trainer.close()

    def test_dppo_intrinsic_zero(self, config, ppo):
        trainer = make_trainer(config, ppo, method="dppo", episodes=1)
        history = trainer.train()
        trainer.close()
        assert history.logs[0].intrinsic_reward == 0.0


class TestHistoryCSV:
    def test_round_trip(self, config, ppo, tmp_path):
        trainer = make_trainer(config, ppo)
        history = trainer.train()
        trainer.close()
        path = tmp_path / "logs" / "history.csv"
        history.save_csv(path)
        from repro.distributed import TrainingHistory

        loaded = TrainingHistory.load_csv(path)
        assert len(loaded.logs) == len(history.logs)
        assert loaded.curve("kappa") == pytest.approx(history.curve("kappa"))
        assert loaded.curve("value_loss") == pytest.approx(history.curve("value_loss"))


class TestDeterminism:
    def test_identical_seeds_identical_training(self, config, ppo):
        """The whole training loop is a pure function of its seeds."""
        curves = []
        for __ in range(2):
            trainer = make_trainer(config, ppo, episodes=3)
            history = trainer.train()
            trainer.close()
            curves.append(
                (history.curve("kappa"), history.curve("policy_loss"))
            )
        assert curves[0][0] == curves[1][0]
        assert curves[0][1] == curves[1][1]

    def test_different_seeds_diverge(self, config, ppo):
        histories = []
        for seed in (0, 1):
            trainer = make_trainer(config, ppo, episodes=3, seed=seed)
            histories.append(trainer.train().curve("kappa"))
            trainer.close()
        assert histories[0] != histories[1]
