"""Integration tests of the resilient chief–employee barrier.

The fault matrix: employee **crash**, **straggle** (delay / timeout),
gradient **corrupt** (NaN / Inf / norm explosion) and checkpoint
**interrupt** — each exercised through the deterministic
:class:`FaultInjector` so every recovery path is reproducible.
"""

import numpy as np
import pytest

from repro.agents import PPOConfig
from repro.distributed import (
    CorruptionFault,
    CrashFault,
    FaultInjector,
    FaultPlan,
    StragglerFault,
    TrainConfig,
    build_async_trainer,
    build_trainer,
)
from repro.distributed.async_trainer import AsyncConfig
from repro.env import smoke_config

pytestmark = pytest.mark.faults


@pytest.fixture
def config():
    return smoke_config(seed=5, horizon=10, num_pois=15)


@pytest.fixture
def ppo():
    return PPOConfig(batch_size=10, epochs=1, learning_rate=1e-3)


def make_trainer(config, ppo, injector=None, method="cews", **train_overrides):
    defaults = dict(num_employees=3, episodes=2, k_updates=2, seed=0)
    defaults.update(train_overrides)
    return build_trainer(
        method,
        config,
        train=TrainConfig(**defaults),
        ppo=ppo,
        fault_injector=injector,
    )


def curves(history):
    return (
        history.curve("kappa"),
        history.curve("policy_loss"),
        history.curve("extrinsic_reward"),
    )


class TestFaultFreeEquivalence:
    """With no faults fired, the resilient barrier is bitwise-invisible."""

    def test_noop_injector_bitwise_identical(self, config, ppo):
        plain = make_trainer(config, ppo)
        plain_history = plain.train()
        plain.close()

        instrumented = make_trainer(
            config,
            ppo,
            injector=FaultInjector(FaultPlan()),
            quorum_fraction=0.5,  # quorum armed but never triggered
            max_retries=2,
        )
        instrumented_history = instrumented.train()
        instrumented.close()

        assert curves(plain_history) == curves(instrumented_history)
        assert instrumented.health.healthy


class TestCrashRecovery:
    def test_crash_recovery_training_completes(self, config, ppo):
        # Employee 1 is dead for all of episode 0 (explore never succeeds).
        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=1, episode=0, times=100),))
        )
        trainer = make_trainer(
            config, ppo, injector=injector, quorum_fraction=0.5, max_retries=1
        )
        history = trainer.train()
        trainer.close()

        assert len(history.logs) == 2
        assert all(np.isfinite(log.kappa) for log in history.logs)
        health = trainer.health
        assert health.employee(1).crashes == 2  # initial attempt + 1 retry
        assert health.employee(1).restarts == 1  # re-synced at episode 1
        assert health.employee(1).consecutive_failures == 0  # recovered
        assert health.degraded_episodes == 1
        assert health.degraded_rounds == 2  # both K rounds ran 2/3 strong

    def test_crash_transient_retry_recovers(self, config, ppo):
        # times=1: the first attempt crashes, the retry succeeds — the
        # barrier stays full strength and nothing degrades.
        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=0, episode=0, times=1),))
        )
        trainer = make_trainer(
            config, ppo, injector=injector, quorum_fraction=0.5, max_retries=2
        )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 2
        assert trainer.health.employee(0).crashes == 1
        assert trainer.health.degraded_rounds == 0
        assert trainer.health.degraded_episodes == 0

    def test_crash_gradient_round(self, config, ppo):
        # A crash in update round 1 removes the employee from the rest of
        # the episode but keeps its exploration contribution.
        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=2, episode=0, round=1, times=100),))
        )
        trainer = make_trainer(
            config, ppo, injector=injector, quorum_fraction=0.5, max_retries=0
        )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 2
        assert trainer.health.employee(2).crashes == 1
        assert trainer.health.degraded_rounds == 1  # only round 1 degraded

    def test_crash_below_quorum_raises(self, config, ppo):
        events = tuple(
            CrashFault(employee=i, episode=0, times=100) for i in range(3)
        )
        injector = FaultInjector(FaultPlan(events=events))
        trainer = make_trainer(
            config, ppo, injector=injector, quorum_fraction=1.0, max_retries=0
        )
        with pytest.raises(RuntimeError, match="quorum"):
            trainer.train()
        trainer.close()


class TestStragglers:
    def test_straggle_process_matches_serial(self, config, ppo):
        """Injected delays (no timeout) must not change the math: the
        process driver's history is identical to the serial one."""

        def delayed_plan():
            return FaultPlan(
                events=(
                    StragglerFault(employee=0, episode=0, delay=0.05),
                    StragglerFault(employee=2, episode=1, delay=0.05, round=0),
                )
            )

        histories = []
        for backend in ("serial", "process"):
            trainer = make_trainer(
                config, ppo, injector=FaultInjector(delayed_plan()), backend=backend
            )
            histories.append(trainer.train())
            trainer.close()
        assert curves(histories[0]) == curves(histories[1])

    def test_straggle_timeout_sequential_discards_result(self, config, ppo):
        injector = FaultInjector(
            FaultPlan(events=(StragglerFault(employee=1, episode=0, delay=0.3),))
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            quorum_fraction=0.5,
            employee_timeout=0.05,
            max_retries=0,
        )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 2
        assert trainer.health.employee(1).timeouts == 1


class TestLockstepSerialBookkeeping:
    """The serial explore phase rolls its employees as one lockstep group;
    the process backend still runs one employee per task.  Per-employee
    fault bookkeeping must not see the difference: each cell gives the
    same history curves and the same health counters on both."""

    @staticmethod
    def assert_serial_matches_process(config, ppo, events, **train_overrides):
        runs = []
        for backend in ("serial", "process"):
            trainer = make_trainer(
                config,
                ppo,
                injector=FaultInjector(FaultPlan(events=events)),
                backend=backend,
                **train_overrides,
            )
            history = trainer.train()
            trainer.close()
            runs.append((curves(history), trainer.health.summary(), trainer.health))
        (serial_curves, serial_summary, serial), (proc_curves, proc_summary, proc) = runs
        assert serial_curves == proc_curves
        assert serial_summary == proc_summary
        assert serial.employees == proc.employees
        return serial

    def test_lockstep_crash_transient_explore(self, config, ppo):
        health = self.assert_serial_matches_process(
            config,
            ppo,
            (CrashFault(employee=1, episode=0, times=1),),
            quorum_fraction=0.5,
            max_retries=2,
        )
        assert health.employee(1).crashes == 1
        assert health.degraded_episodes == 0

    def test_lockstep_crash_hard_explore_degraded_quorum(self, config, ppo):
        health = self.assert_serial_matches_process(
            config,
            ppo,
            (CrashFault(employee=1, episode=0, times=100),),
            quorum_fraction=0.5,
            max_retries=1,
        )
        assert health.employee(1).crashes == 2
        assert health.employee(1).restarts == 1
        assert health.degraded_rounds == 2

    def test_lockstep_crash_gradient_round(self, config, ppo):
        health = self.assert_serial_matches_process(
            config,
            ppo,
            (CrashFault(employee=2, episode=0, round=1, times=100),),
            quorum_fraction=0.5,
            max_retries=0,
        )
        assert health.employee(2).crashes == 1
        assert health.degraded_rounds == 1

    def test_lockstep_straggle_without_timeout(self, config, ppo):
        health = self.assert_serial_matches_process(
            config,
            ppo,
            (
                StragglerFault(employee=0, episode=0, delay=0.05),
                StragglerFault(employee=2, episode=1, delay=0.05),
            ),
        )
        assert health.healthy


class TestGradientQuarantineSync:
    @pytest.mark.parametrize("fault_mode", ["nan", "inf"])
    def test_corrupt_gradient_quarantined(self, config, ppo, fault_mode):
        injector = FaultInjector(
            FaultPlan(
                events=(
                    CorruptionFault(employee=1, episode=0, round=0, mode=fault_mode),
                )
            )
        )
        trainer = make_trainer(
            config, ppo, injector=injector, quorum_fraction=0.5
        )
        history = trainer.train()
        trainer.close()

        health = trainer.health
        assert health.employee(1).rejected_policy_gradients == 1
        assert health.total_rejected_gradients >= 1
        assert health.degraded_rounds >= 1
        # The poison never reached the global model.
        for key, value in trainer.global_agent.state_dict().items():
            assert np.all(np.isfinite(value)), key
        assert all(np.isfinite(log.policy_loss) for log in history.logs)
        # Visible in the per-employee rejection tally of the buffer too.
        assert trainer.ppo_buffer.rejections.get(1) == 1

    def test_corrupt_explode_quarantined_by_norm(self, config, ppo):
        injector = FaultInjector(
            FaultPlan(
                events=(
                    CorruptionFault(employee=0, episode=0, round=0, mode="explode"),
                )
            )
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            quorum_fraction=0.5,
            quarantine_max_norm=1e6,
        )
        trainer.train()
        trainer.close()
        assert trainer.health.employee(0).rejected_policy_gradients == 1
        for key, value in trainer.global_agent.state_dict().items():
            assert np.all(np.isfinite(value)), key

    def test_corrupt_curiosity_gradient_quarantined(self, config, ppo):
        injector = FaultInjector(
            FaultPlan(
                events=(
                    CorruptionFault(
                        employee=2, episode=0, round=0, mode="nan", buffer="curiosity"
                    ),
                )
            )
        )
        trainer = make_trainer(
            config, ppo, injector=injector, quorum_fraction=0.5
        )
        trainer.train()
        trainer.close()
        assert trainer.health.employee(2).rejected_curiosity_gradients == 1
        # Policy contribution of the same employee was still accepted.
        assert trainer.health.employee(2).rejected_policy_gradients == 0


class TestGradientQuarantineAsync:
    def test_corrupt_nan_gradient_quarantined_async(self, config, ppo):
        # Episode 2 is served by actor 0 (episode % num_actors).
        injector = FaultInjector(
            FaultPlan(events=(CorruptionFault(employee=0, episode=2, round=0),))
        )
        learner = build_async_trainer(
            "cews",
            config,
            async_config=AsyncConfig(num_actors=2, episodes=4, sync_every=1, seed=0),
            ppo=ppo,
            fault_injector=injector,
        )
        history = learner.train()

        rejected = [log for log in history.logs if log.rejected]
        assert len(rejected) == 1
        assert rejected[0].episode == 2
        assert learner.health.employee(0).rejected_policy_gradients == 1
        for param in learner.learner.policy_parameters():
            assert np.all(np.isfinite(param.data))

    def test_async_quarantine_skips_update_count(self, config, ppo):
        injector = FaultInjector(
            FaultPlan(events=(CorruptionFault(employee=0, episode=0, round=0),))
        )
        learner = build_async_trainer(
            "dppo",
            config,
            async_config=AsyncConfig(num_actors=1, episodes=2, sync_every=1, seed=0),
            ppo=ppo,
            fault_injector=injector,
        )
        learner.train()
        assert learner._update_count == 1  # episode 0's update was skipped


class TestEndToEndRecovery:
    def test_crash_corrupt_interrupt_full_scenario(self, config, ppo, tmp_path):
        """The acceptance scenario: an employee crash + a NaN gradient + a
        checkpoint kill in one run — training completes, the poison is
        quarantined (visible in TrainerHealth) and resume_or_start
        restores from the last valid rolling checkpoint."""
        from repro.distributed import (
            CheckpointFault,
            InjectedCheckpointInterrupt,
        )
        from repro.experiments.training import resume_or_start

        plan = FaultPlan(
            events=(
                CrashFault(employee=0, episode=0, times=100),
                CorruptionFault(employee=1, episode=1, round=0, mode="nan"),
                CheckpointFault(save_index=2),
            )
        )
        injector = FaultInjector(plan)
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            episodes=4,
            quorum_fraction=0.5,
            max_retries=1,
        )
        with pytest.raises(InjectedCheckpointInterrupt):
            resume_or_start(
                trainer, tmp_path / "run", 4, save_every=1, fault_injector=injector
            )
        # Episodes 0-2 ran; saves #0 and #1 (episodes 1, 2) landed, save #2
        # was killed mid-write.  The fault ledger shows every event.
        health = trainer.health
        assert health.employee(0).crashes >= 1
        assert health.employee(0).restarts >= 1
        assert health.employee(1).rejected_policy_gradients == 1
        assert health.total_rejected_gradients >= 1
        trainer.close()

        # A fresh 'process' resumes from the last valid checkpoint and
        # completes the run with finite parameters throughout.
        resumed = make_trainer(config, ppo, episodes=4, quorum_fraction=0.5)
        history = resume_or_start(resumed, tmp_path / "run", 4, save_every=1)
        assert [log.episode for log in history.logs] == [2, 3]
        assert resumed.episodes_completed == 4
        for key, value in resumed.global_agent.state_dict().items():
            assert np.all(np.isfinite(value)), key
        resumed.close()


class TestRandomFaultMatrix:
    def test_random_matrix_crash_straggle_corrupt_survived(self, config, ppo):
        """A randomized (seeded) mixture of crashes, stragglers and NaN
        corruption must never hang, poison or kill a quorum-armed run."""
        plan = FaultPlan.random(
            seed=3,
            num_employees=3,
            episodes=3,
            k_updates=2,
            crash_rate=0.1,
            straggler_rate=0.1,
            straggler_delay=0.01,
            corrupt_rate=0.1,
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=FaultInjector(plan),
            episodes=3,
            quorum_fraction=1 / 3,
            max_retries=1,
        )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 3
        for key, value in trainer.global_agent.state_dict().items():
            assert np.all(np.isfinite(value)), key
