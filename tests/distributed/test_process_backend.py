"""Process-backend tests: bitwise identity, fault parity, real worker
death and shared-memory hygiene.

The contract under test (PR 5's tentpole): ``backend="process"`` is
observationally identical to the serial driver — same
seeded histories, same checkpoints, same fault bookkeeping — while the
transport (pipes + shared-memory slabs) and the worker processes stay
invisible, and no ``/dev/shm`` segment ever outlives the trainer.
"""

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.agents import PPOConfig
from repro.distributed import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    SHM_PREFIX,
    SlabStale,
    StragglerFault,
    TensorSlab,
    TrainConfig,
    build_trainer,
    load_checkpoint,
    save_checkpoint,
)
from repro.distributed.shm import slab_name
from repro.env import smoke_config


@pytest.fixture
def config():
    return smoke_config(seed=5, horizon=10, num_pois=15)


@pytest.fixture
def ppo():
    return PPOConfig(batch_size=10, epochs=1, learning_rate=1e-3)


def make_trainer(config, ppo, injector=None, **train_overrides):
    defaults = dict(num_employees=3, episodes=2, k_updates=2, seed=0)
    defaults.update(train_overrides)
    return build_trainer(
        "cews",
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


def own_shm_segments():
    """``/dev/shm`` entries created by *this* process (the chief)."""
    prefix = f"{SHM_PREFIX}-{os.getpid()}-"
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except FileNotFoundError:  # non-Linux: nothing to scan
        return []


# ----------------------------------------------------------------------
# Slab transport unit tests
# ----------------------------------------------------------------------
class TestTensorSlab:
    SHAPES = [(3, 4), (7,), ()]

    def test_round_trip_exact_bits(self):
        slab = TensorSlab.create(slab_name(0, "t"), self.SHAPES)
        try:
            rng = np.random.default_rng(0)
            arrays = [rng.standard_normal(shape) for shape in self.SHAPES]
            nbytes = slab.write(arrays, seq=3, episode=1, round_index=2)
            assert nbytes == slab.nbytes
            out = slab.read(expected_seq=3)
            for a, b in zip(arrays, out):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            assert slab.header() == {
                "seq": 3,
                "episode": 1,
                "round": 2,
                "payload_elems": 12 + 7 + 1,
            }
        finally:
            slab.unlink()

    def test_stale_seq_detected(self):
        slab = TensorSlab.create(slab_name(1, "t"), [(2,)])
        try:
            slab.write([np.zeros(2)], seq=5)
            with pytest.raises(SlabStale):
                slab.read(expected_seq=6)
        finally:
            slab.unlink()

    def test_attach_sees_creator_writes(self):
        name = slab_name(2, "t")
        creator = TensorSlab.create(name, [(4,)])
        try:
            payload = np.arange(4, dtype=np.float64)
            creator.write([payload], seq=1)
            attached = TensorSlab.attach(name, [(4,)])
            try:
                assert np.array_equal(attached.read(expected_seq=1)[0], payload)
            finally:
                attached.close()
        finally:
            creator.unlink()

    def test_shape_mismatch_rejected(self):
        slab = TensorSlab.create(slab_name(3, "t"), [(2, 2)])
        try:
            with pytest.raises(ValueError):
                slab.write([np.zeros((3, 3))], seq=1)
            with pytest.raises(ValueError):
                slab.write([np.zeros((2, 2)), np.zeros(1)], seq=1)
        finally:
            slab.unlink()

    def test_unlink_idempotent_and_removes_segment(self):
        slab = TensorSlab.create(slab_name(4, "t"), [(8,)])
        name = slab.name
        assert name in own_shm_segments()
        slab.unlink()
        slab.unlink()  # second call is a no-op
        assert name not in own_shm_segments()


# ----------------------------------------------------------------------
# Bitwise identity across backends
# ----------------------------------------------------------------------
class TestProcessBackendBitwise:
    def test_process_matches_serial(self, config, ppo, tmp_path):
        """History floats AND checkpoint contents identical across the
        serial and process backends for one seed."""
        fingerprints = {}
        for backend in ("serial", "process"):
            trainer = make_trainer(config, ppo, backend=backend)
            history = trainer.train()
            path = tmp_path / f"{backend}.npz"
            save_checkpoint(trainer, str(path))
            trainer.close()
            with np.load(str(path)) as archive:
                arrays = {key: archive[key].copy() for key in archive.files}
            fingerprints[backend] = (curves(history), arrays)
            assert trainer.health.healthy

        ref_curves, ref_arrays = fingerprints["serial"]
        got_curves, got_arrays = fingerprints["process"]
        assert got_curves == ref_curves
        assert sorted(got_arrays) == sorted(ref_arrays)
        for key in ref_arrays:
            assert got_arrays[key].dtype == ref_arrays[key].dtype, key
            assert np.array_equal(got_arrays[key], ref_arrays[key]), key

    def test_process_checkpoint_resume_matches_serial(self, config, ppo, tmp_path):
        """A checkpoint saved mid-run restores into a process-backend
        trainer and continues bitwise-identically to the serial driver."""
        straight = make_trainer(config, ppo, backend="serial", episodes=2)
        straight_history = straight.train()
        straight.close()

        first = make_trainer(config, ppo, backend="serial", episodes=2)
        first.train(1)
        path = str(tmp_path / "mid.npz")
        save_checkpoint(first, path)
        first.close()

        resumed = make_trainer(config, ppo, backend="process", episodes=2)
        load_checkpoint(resumed, path)
        tail = resumed.train(1)
        final = {
            key: value.copy()
            for key, value in resumed.global_agent.state_dict().items()
        }
        resumed.close()

        assert curves(tail)[0] == [straight_history.curve("kappa")[1]]
        for key, value in straight.global_agent.state_dict().items():
            assert np.array_equal(value, final[key]), key

    def test_first_draw_follows_the_first_sync(self, config, ppo):
        """A worker is seeded by SYNC alone: the state the pool is built
        with plays no part, and the first episode draws from the state
        the first SYNC shipped, as a serial employee would."""
        from repro.distributed.factories import build_worker_factories
        from repro.distributed.procpool import OP_EXPLORE, ProcessEmployeePool

        agent_factory, env_factory = build_worker_factories(
            "cews", config, ppo=ppo, seed=0
        )
        reference = agent_factory(0)
        arrays = [p.data for p in reference.policy_parameters()] + [
            p.data for p in reference.curiosity_parameters()
        ]
        synced = np.random.default_rng(2).bit_generator.state
        with ProcessEmployeePool(
            agent_factory,
            env_factory,
            1,
            shapes=[a.shape for a in arrays],
            num_policy_params=len(reference.policy_parameters()),
            initial_rng_states=[np.random.default_rng(1).bit_generator.state],
        ) as pool:
            pool.sync(arrays, [synced], episode=0)
            pool.submit(0, OP_EXPLORE, episode=0)
            result, state = pool.wait(0, None, "explore")

        rng = np.random.default_rng(0)
        rng.bit_generator.state = synced
        __, want = reference.collect_episode(env_factory(0), rng)
        assert state == rng.bit_generator.state
        assert result.extrinsic_reward == want.extrinsic_reward
        assert result.metrics == want.metrics


# ----------------------------------------------------------------------
# Placement and the heap: a forked employee runs like the serial process
# ----------------------------------------------------------------------
#: Trains DRL-CEWS at the ``smoke`` scale on the process backend in a fresh
#: interpreter (a chief whose heap earlier tests grew would hide the
#: faults) and prints each worker's minor page faults per episode once warm.
_WARM_FAULTS_CHILD = """
import json
from repro.distributed import build_trainer
from repro.experiments.scales import get_scale
from repro.experiments.training import make_ppo_config, make_train_config

def minor_faults(pid):
    with open(f"/proc/{pid}/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[7])

scale = get_scale("smoke")
trainer = build_trainer(
    "cews", scale.scenario(seed=0),
    train=make_train_config(scale, seed=0, backend="process"),
    ppo=make_ppo_config(scale), seed=0,
)
try:
    trainer.train(2)
    pool = trainer._proc_pool
    pids = [pool.pid(i) for i in range(pool.num_employees)]
    before = [minor_faults(pid) for pid in pids]
    trainer.train(3)
    print(json.dumps([(minor_faults(pid) - start) / 3
                      for pid, start in zip(pids, before)]))
finally:
    trainer.close()
"""


class TestEmployeePlacement:
    @pytest.mark.skipif(
        not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH on this platform"
    )
    def test_employees_run_sched_batch_and_the_chief_does_not(self, config, ppo):
        trainer = make_trainer(config, ppo, backend="process", episodes=1)
        try:
            trainer.train()
            pool = trainer._proc_pool
            policies = [
                os.sched_getscheduler(pool.pid(i)) for i in range(pool.num_employees)
            ]
        finally:
            trainer.close()
        assert policies == [os.SCHED_BATCH] * 3
        assert os.sched_getscheduler(0) != os.SCHED_BATCH

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/stat"),
        reason="the heap rule is glibc's; the fault count is read from /proc",
    )
    def test_a_warm_employee_keeps_its_heap(self):
        """Freed replay memory stays in the worker's heap: once warm, an
        episode costs a worker a few page faults, not one per page of
        every replay (about 3 000 per episode when glibc trims)."""
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _WARM_FAULTS_CHILD],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr
        per_episode = json.loads(child.stdout.strip().splitlines()[-1])
        assert len(per_episode) == 2
        assert all(count <= 300 for count in per_episode), per_episode


# ----------------------------------------------------------------------
# Fault parity with the serial backend
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestProcessBackendFaults:
    def test_process_injected_crash_matches_serial(self, config, ppo):
        """The forwarded FaultPlan fires inside the worker and maps onto
        the same crash/restart/degraded bookkeeping — and the
        degraded-quorum gradient rescale matches byte-for-byte."""
        outcomes = {}
        for backend in ("serial", "process"):
            injector = FaultInjector(
                FaultPlan(events=(CrashFault(employee=1, episode=0, times=100),))
            )
            trainer = make_trainer(
                config,
                ppo,
                injector=injector,
                backend=backend,
                quorum_fraction=0.5,
                max_retries=1,
            )
            history = trainer.train()
            trainer.close()
            outcomes[backend] = (curves(history), trainer.health.summary())

        assert outcomes["process"][0] == outcomes["serial"][0]
        assert outcomes["process"][1] == outcomes["serial"][1]
        assert outcomes["process"][1]["crashes"] == 2
        assert outcomes["process"][1]["restarts"] == 1
        assert outcomes["process"][1]["degraded_rounds"] == 2

    def test_process_injected_crash_gradient_round(self, config, ppo):
        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=2, episode=0, round=1, times=100),))
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            backend="process",
            quorum_fraction=0.5,
            max_retries=0,
        )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 2
        assert trainer.health.employee(2).crashes == 1
        assert trainer.health.degraded_rounds == 1

    def test_process_straggler_timeout_degrades(self, config, ppo):
        injector = FaultInjector(
            FaultPlan(events=(StragglerFault(employee=0, episode=0, delay=2.0),))
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            backend="process",
            quorum_fraction=0.5,
            employee_timeout=0.5,
            max_retries=0,
        )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 2
        assert trainer.health.employee(0).timeouts >= 1
        assert trainer.health.degraded_episodes >= 1
        assert trainer.health.employee(0).restarts >= 1
        assert own_shm_segments() == []

    def test_process_sigkill_mid_explore_matches_serial_crash(self, config, ppo):
        """Hard worker death: SIGKILL a worker mid-EXPLORE.  The chief
        records a crash, respawns + re-seeds the worker from its RNG
        mirror, and the degraded-quorum episode matches the
        serial-backend injected-crash run byte-for-byte."""
        # Serial reference: one injected crash, employee 1, episode 0.
        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=1, episode=0, times=1),))
        )
        reference = make_trainer(
            config,
            ppo,
            injector=injector,
            backend="serial",
            quorum_fraction=0.5,
            max_retries=0,
        )
        ref_history = reference.train()
        reference.close()

        # Process run: a long worker-side straggle parks employee 1 in
        # before_task (RNG untouched) so the SIGKILL lands mid-EXPLORE.
        injector = FaultInjector(
            FaultPlan(
                events=(StragglerFault(employee=1, episode=0, delay=60.0, times=1),)
            )
        )
        trainer = make_trainer(
            config,
            ppo,
            injector=injector,
            backend="process",
            quorum_fraction=0.5,
            max_retries=0,
        )
        victim = trainer._proc_pool.pid(1)

        def kill_when_parked():
            time.sleep(1.0)  # the worker is asleep in before_task by now
            os.kill(victim, signal.SIGKILL)

        killer = threading.Thread(target=kill_when_parked, daemon=True)
        killer.start()
        history = trainer.train()
        killer.join()
        respawned = trainer._proc_pool.pid(1)
        segments_before_close = own_shm_segments()
        trainer.close()

        assert respawned != victim  # the worker really was respawned
        assert curves(history) == curves(ref_history)
        assert trainer.health.summary() == reference.health.summary()
        assert trainer.health.employee(1).crashes == 1
        assert trainer.health.employee(1).restarts == 1
        assert trainer.health.degraded_rounds == 2
        # The crash did not leak segments: same slabs before close, none
        # after (the respawn reattached the existing slabs).
        assert len(segments_before_close) == 6  # 3 employees x (w, g)
        assert own_shm_segments() == []


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
class TestProcessShmLifecycle:
    def test_missing_fork_points_at_the_serial_backend(self, monkeypatch):
        import multiprocessing

        from repro.distributed.procpool import ProcessEmployeePool

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(RuntimeError, match="use backend='serial'") as excinfo:
            ProcessEmployeePool(None, None, 1, (), 0, [{}])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_no_segments_after_normal_close(self, config, ppo):
        trainer = make_trainer(config, ppo, backend="process", episodes=1)
        names = trainer._proc_pool.slab_names()
        assert len(names) == 6
        for name in names:
            assert name in own_shm_segments()
        trainer.train()
        trainer.close()
        assert own_shm_segments() == []

    def test_shm_flat_across_revive_cycles(self, config, ppo):
        """Regression: ``revive`` must eagerly unlink the stale slab pair
        when it allocates replacements — the ``/dev/shm`` segment count
        stays exactly flat across N revive cycles, then drops to zero."""
        trainer = make_trainer(config, ppo, backend="process", episodes=1)
        pool = trainer._proc_pool
        arrays = [p.data for p in trainer._param_tensors]
        assert len(own_shm_segments()) == 6
        for cycle in range(4):
            state = trainer.employees[1].rng.bit_generator.state
            pool.revive(1, arrays, state, episode=0)
            segments = own_shm_segments()
            assert len(segments) == 6, (
                f"revive cycle {cycle} leaked: {segments}"
            )
        history = trainer.train()
        trainer.close()
        assert len(history.logs) == 1
        assert own_shm_segments() == []

    def test_close_idempotent(self, config, ppo):
        trainer = make_trainer(config, ppo, backend="process", episodes=1)
        trainer.train()
        trainer.close()
        trainer.close()
        assert own_shm_segments() == []

    def test_no_segments_after_keyboard_interrupt(self, config, ppo, tmp_path):
        """SIGINT an entire process-backend run; the atexit hook must
        unlink every slab on the way out."""
        child_source = (
            "import time\n"
            "from repro.agents import PPOConfig\n"
            "from repro.distributed import TrainConfig, build_trainer\n"
            "from repro.env import smoke_config\n"
            "trainer = build_trainer(\n"
            "    'cews', smoke_config(seed=5, horizon=10, num_pois=15),\n"
            "    train=TrainConfig(num_employees=2, episodes=1, k_updates=1,\n"
            "                      seed=0, backend='process'),\n"
            "    ppo=PPOConfig(batch_size=10, epochs=1),\n"
            ")\n"
            "print('SLABS ' + ' '.join(trainer._proc_pool.slab_names()), flush=True)\n"
            "print('READY', flush=True)\n"
            "while True:\n"
            "    time.sleep(0.1)\n"
        )
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", child_source],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        slabs = []
        try:
            deadline = time.monotonic() + 60
            for line in child.stdout:
                if line.startswith("SLABS "):
                    slabs = line.split()[1:]
                if line.strip() == "READY":
                    break
                assert time.monotonic() < deadline, "child never became ready"
            assert slabs, "child reported no slabs"
            for name in slabs:
                assert os.path.exists(os.path.join("/dev/shm", name)), name
            child.send_signal(signal.SIGINT)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
            child.stdout.close()
        for name in slabs:
            assert not os.path.exists(os.path.join("/dev/shm", name)), (
                f"segment {name} leaked after KeyboardInterrupt"
            )
