"""Socket-backend tests: loopback bitwise identity, seeded network
chaos, heartbeat-detected death and external (remote) workers.

The contract under test (PR 6's tentpole): ``backend="socket"`` — the
same chief–employee protocol over framed TCP — is observationally
identical to the process backend for a given seed, and every network
failure mode (drops, duplicates, corruption, delays, partitions,
heartbeat loss) is either masked by retransmission/dedup or mapped onto
the *existing* crash/quorum/restart bookkeeping, never a hang and never
a silently wrong result.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.agents import PPOConfig
from repro.distributed import (
    CorruptFrameFault,
    CrashFault,
    DropFrameFault,
    FaultInjector,
    FaultPlan,
    NetworkFaultInjector,
    NetworkFaultPlan,
    PartitionFault,
    StragglerFault,
    TrainConfig,
    build_trainer,
    build_worker_factories,
    run_remote_worker,
    save_checkpoint,
)
from repro.env import smoke_config

from .test_process_backend import own_shm_segments

pytestmark = pytest.mark.transport


@pytest.fixture
def config():
    return smoke_config(seed=5, horizon=10, num_pois=15)


@pytest.fixture
def ppo():
    return PPOConfig(batch_size=10, epochs=1, learning_rate=1e-3)


def make_trainer(config, ppo, injector=None, net_injector=None, **train_overrides):
    defaults = dict(num_employees=3, episodes=2, k_updates=2, seed=0)
    defaults.update(train_overrides)
    return build_trainer(
        "cews",
        config,
        train=TrainConfig(**defaults),
        ppo=ppo,
        fault_injector=injector,
        net_fault_injector=net_injector,
    )


def curves(history):
    return (
        history.curve("kappa"),
        history.curve("policy_loss"),
        history.curve("extrinsic_reward"),
    )


def run_and_fingerprint(config, ppo, tmp_path, tag, **overrides):
    trainer = make_trainer(config, ppo, **overrides)
    history = trainer.train()
    path = tmp_path / f"{tag}.npz"
    save_checkpoint(trainer, str(path))
    trainer.close()
    with np.load(str(path)) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    return curves(history), arrays, trainer


# ----------------------------------------------------------------------
# Bitwise identity over loopback TCP
# ----------------------------------------------------------------------
class TestSocketBitwise:
    def test_socket_matches_process_curves_and_checkpoint(
        self, config, ppo, tmp_path
    ):
        """History floats AND checkpoint bytes identical between the
        shared-memory pipe transport and loopback TCP."""
        ref_curves, ref_arrays, ref = run_and_fingerprint(
            config, ppo, tmp_path, "process", backend="process"
        )
        got_curves, got_arrays, trainer = run_and_fingerprint(
            config, ppo, tmp_path, "socket", backend="socket"
        )
        assert ref.health.healthy and trainer.health.healthy
        assert got_curves == ref_curves
        assert sorted(got_arrays) == sorted(ref_arrays)
        for key in ref_arrays:
            assert got_arrays[key].dtype == ref_arrays[key].dtype, key
            assert np.array_equal(got_arrays[key], ref_arrays[key]), key
        assert own_shm_segments() == []  # socket backend uses no slabs

    def test_socket_gradient_pack_equals_the_process_pack(self, config, ppo):
        """One minibatch's pack read over loopback TCP is the pack read
        from the shared-memory slab, byte for byte: one vector whose
        policy and curiosity views are the per-parameter gradients."""
        from repro.distributed.procpool import (
            OP_EXPLORE,
            OP_MINIBATCH,
            ProcessEmployeePool,
        )

        agent_factory, env_factory = build_worker_factories(
            "cews", config, ppo=ppo, seed=0
        )
        reference = agent_factory(0)
        params = reference.policy_parameters() + reference.curiosity_parameters()
        arrays = [p.data for p in params]
        state = np.random.default_rng(3).bit_generator.state
        packs = {}
        for transport in ("local", "socket"):
            with ProcessEmployeePool(
                agent_factory,
                env_factory,
                1,
                shapes=[a.shape for a in arrays],
                num_policy_params=len(reference.policy_parameters()),
                initial_rng_states=[state],
                transport=transport,
            ) as pool:
                pool.sync(arrays, [state], episode=0)
                pool.submit(0, OP_EXPLORE, episode=0)
                pool.wait(0, None, "explore")
                pool.submit(0, OP_MINIBATCH, 0, 0, batch_size=ppo.batch_size)
                packs[transport] = pool.wait(0, None, "gradients")[0]
        local, remote = packs["local"], packs["socket"]
        assert remote.vector.dtype == local.vector.dtype == np.float64
        assert remote.vector.tobytes() == local.vector.tobytes()
        assert len(remote.curiosity) == len(reference.curiosity_parameters()) > 0
        for pack in (local, remote):
            views = pack.policy + pack.curiosity
            assert [v.shape for v in views] == [a.shape for a in arrays]
            assert all(np.shares_memory(v, pack.vector) for v in views)
            assert np.concatenate([v.ravel() for v in views]).tobytes() == pack.vector.tobytes()

    def test_fleet_registry_tracks_connections(self, config, ppo):
        trainer = make_trainer(config, ppo, backend="socket", episodes=1)
        transport = trainer._proc_pool.transport
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            fleet = transport.fleet()
            if len(fleet) == 3 and all(e["connected"] for e in fleet.values()):
                break
            time.sleep(0.05)
        fleet = transport.fleet()
        assert sorted(fleet) == [0, 1, 2]
        assert all(entry["connected"] for entry in fleet.values())
        assert all(entry["generation"] == 0 for entry in fleet.values())
        trainer.train()
        trainer.close()
        assert not any(e["connected"] for e in transport.fleet().values())


# ----------------------------------------------------------------------
# Seeded chaos: masked faults stay bitwise, partitions map onto quorum
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestSocketChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_matrix_masked_faults_stay_bitwise(
        self, config, ppo, tmp_path, seed
    ):
        """Drops, duplicates, corruption and delays on command frames are
        fully masked by retransmission + seq-dedup: the seeded run
        completes (no hangs) and is bitwise-identical to the fault-free
        process run."""
        ref_curves, ref_arrays, __ = run_and_fingerprint(
            config, ppo, tmp_path, "ref", backend="process"
        )
        plan = NetworkFaultPlan.random(
            seed,
            num_employees=3,
            episodes=2,
            k_updates=2,
            drop_rate=0.15,
            duplicate_rate=0.15,
            corrupt_rate=0.1,
            delay_rate=0.1,
            delay=0.05,
        )
        assert not plan.empty
        injector = NetworkFaultInjector(plan)
        got_curves, got_arrays, trainer = run_and_fingerprint(
            config, ppo, tmp_path, f"chaos{seed}", backend="socket",
            net_injector=injector,
        )
        assert injector.fired, "chaos plan never fired; the run proved nothing"
        assert trainer.health.healthy  # masked faults are invisible
        assert got_curves == ref_curves
        for key in ref_arrays:
            assert np.array_equal(got_arrays[key], ref_arrays[key]), key

    def test_lost_gradient_payload_books_like_injected_crash(
        self, config, ppo
    ):
        """The reply arrives but the gradient TENSORS frame is lost: the
        round's contribution is dead, booked exactly like a worker crash
        in that round (same curves, same health summary)."""
        reference = make_trainer(
            config,
            ppo,
            injector=FaultInjector(
                FaultPlan(events=(CrashFault(employee=2, episode=0, round=1),))
            ),
            backend="serial",
            quorum_fraction=0.5,
            max_retries=0,
        )
        ref_history = reference.train()
        reference.close()

        net_injector = NetworkFaultInjector(
            NetworkFaultPlan(
                events=(
                    DropFrameFault(
                        employee=2,
                        op="tensors",
                        episode=0,
                        round=1,
                        direction="recv",
                    ),
                )
            )
        )
        trainer = make_trainer(
            config,
            ppo,
            net_injector=net_injector,
            backend="socket",
            quorum_fraction=0.5,
            max_retries=0,
            heartbeat_interval=0.2,
            heartbeat_timeout=2.0,
        )
        history = trainer.train()
        trainer.close()

        assert net_injector.fired_of(DropFrameFault)
        assert curves(history) == curves(ref_history)
        assert trainer.health.summary() == reference.health.summary()
        assert trainer.health.employee(2).crashes == 1
        assert trainer.health.degraded_rounds == 1

    def test_partition_mid_minibatch_books_like_crash(self, config, ppo):
        """A partition that opens on the MINIBATCH command of episode 0
        round 1: silence, heartbeat loss, WorkerDied — the same
        bookkeeping (and bytes) as an injected crash in that round."""
        reference = make_trainer(
            config,
            ppo,
            injector=FaultInjector(
                FaultPlan(events=(CrashFault(employee=2, episode=0, round=1),))
            ),
            backend="serial",
            quorum_fraction=0.5,
            max_retries=0,
        )
        ref_history = reference.train()
        reference.close()

        net_injector = NetworkFaultInjector(
            NetworkFaultPlan(
                events=(
                    PartitionFault(
                        employee=2, duration=2.5, op="minibatch",
                        episode=0, round=1,
                    ),
                )
            )
        )
        trainer = make_trainer(
            config,
            ppo,
            net_injector=net_injector,
            backend="socket",
            quorum_fraction=0.5,
            max_retries=0,
            heartbeat_interval=0.2,
            heartbeat_timeout=1.0,
        )
        history = trainer.train()
        trainer.close()

        assert net_injector.fired_of(PartitionFault)
        assert curves(history) == curves(ref_history)
        assert trainer.health.summary() == reference.health.summary()
        assert trainer.health.employee(2).crashes == 1
        assert trainer.health.employee(2).restarts == 1
        assert trainer.health.degraded_rounds == 1

    def test_heartbeat_loss_matches_sigkill_bookkeeping(self, config, ppo):
        """Pure heartbeat-detected death: the connection stays attached
        but a partition silences it mid-EXPLORE.  TrainerHealth must
        match the serial-backend crash reference exactly — the
        degraded-quorum recovery path does not care *how* the worker
        died."""
        reference = make_trainer(
            config,
            ppo,
            injector=FaultInjector(
                FaultPlan(events=(CrashFault(employee=1, episode=0, times=1),))
            ),
            backend="serial",
            quorum_fraction=0.5,
            max_retries=0,
        )
        ref_history = reference.train()
        reference.close()

        net_injector = NetworkFaultInjector(
            NetworkFaultPlan(
                events=(
                    PartitionFault(employee=1, duration=2.5, op="explore",
                                   episode=0),
                )
            )
        )
        trainer = make_trainer(
            config,
            ppo,
            net_injector=net_injector,
            backend="socket",
            quorum_fraction=0.5,
            max_retries=0,
            heartbeat_interval=0.2,
            heartbeat_timeout=1.0,
        )
        history = trainer.train()
        trainer.close()

        assert curves(history) == curves(ref_history)
        assert trainer.health.summary() == reference.health.summary()
        assert trainer.health.employee(1).crashes == 1
        assert trainer.health.employee(1).restarts == 1
        assert trainer.health.degraded_rounds == 2

    def test_sigkill_mid_explore_over_socket(self, config, ppo):
        """Hard worker death over TCP (EOF, then reconnect-grace expiry):
        same recovery as the process backend's SIGKILL path."""
        reference = make_trainer(
            config,
            ppo,
            injector=FaultInjector(
                FaultPlan(events=(CrashFault(employee=1, episode=0, times=1),))
            ),
            backend="serial",
            quorum_fraction=0.5,
            max_retries=0,
        )
        ref_history = reference.train()
        reference.close()

        injector = FaultInjector(
            FaultPlan(
                events=(StragglerFault(employee=1, episode=0, delay=60.0, times=1),)
            )
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            backend="socket",
            quorum_fraction=0.5,
            max_retries=0,
            heartbeat_interval=0.2,
            heartbeat_timeout=1.0,
        )
        # Shorten the reconnect grace (defaults to connect_timeout) so a
        # never-returning worker is declared dead quickly.
        trainer._proc_pool.transport.connect_timeout = 1.0
        victim = trainer._proc_pool.pid(1)

        def kill_when_parked():
            time.sleep(1.0)  # the worker is asleep in before_task by now
            os.kill(victim, signal.SIGKILL)

        killer = threading.Thread(target=kill_when_parked, daemon=True)
        killer.start()
        history = trainer.train()
        killer.join()
        respawned = trainer._proc_pool.pid(1)
        trainer.close()

        assert respawned != victim
        assert curves(history) == curves(ref_history)
        assert trainer.health.summary() == reference.health.summary()
        assert trainer.health.employee(1).crashes == 1
        assert trainer.health.employee(1).restarts == 1


# ----------------------------------------------------------------------
# External (remote) workers
# ----------------------------------------------------------------------
class TestRemoteWorkers:
    def test_remote_worker_run_matches_process_backend(
        self, config, ppo, tmp_path
    ):
        """One employee served by `run_remote_worker` dialing in over
        loopback (the `python -m repro worker` path, in-process): the
        run is bitwise-identical to the all-forked process backend."""
        ref_curves, ref_arrays, __ = run_and_fingerprint(
            config, ppo, tmp_path, "ref", backend="process"
        )

        trainer = make_trainer(
            config, ppo, backend="socket", remote_workers=1
        )
        transport = trainer._proc_pool.transport
        agent_factory, env_factory = build_worker_factories(
            "cews", config, ppo=ppo, seed=0
        )
        worker = threading.Thread(
            target=run_remote_worker,
            kwargs=dict(
                index=2,
                address=transport.address,
                token=transport.token,
                agent_factory=agent_factory,
                env_factory=env_factory,
                connect_timeout=30.0,
            ),
            daemon=True,
        )
        worker.start()
        history = trainer.train()
        path = tmp_path / "remote.npz"
        save_checkpoint(trainer, str(path))
        assert trainer._proc_pool.pid(2) == -1  # never forked
        trainer.close()
        worker.join(timeout=30)
        assert not worker.is_alive(), "remote worker never saw SHUTDOWN"

        assert curves(history) == ref_curves
        with np.load(str(path)) as archive:
            for key in ref_arrays:
                assert np.array_equal(archive[key], ref_arrays[key]), key

    def test_bad_token_refused(self, config, ppo):
        from repro.distributed.transport import ChannelClosed

        trainer = make_trainer(
            config, ppo, backend="socket", remote_workers=1, episodes=1
        )
        transport = trainer._proc_pool.transport
        agent_factory, env_factory = build_worker_factories(
            "cews", config, ppo=ppo, seed=0
        )
        with pytest.raises(ChannelClosed, match="refused"):
            run_remote_worker(
                index=2,
                address=transport.address,
                token="not-the-token",
                agent_factory=agent_factory,
                env_factory=env_factory,
                connect_timeout=2.0,
            )
        trainer.close()
