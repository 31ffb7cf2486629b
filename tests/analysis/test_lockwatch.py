"""Tests of the runtime lock-order sanitizer (SAN004 / SAN005).

Covers the proxy mechanics (patch-on-enable, Condition compatibility,
RLock reentrance), the order-inversion and long-hold detectors with
stack provenance, and the acceptance gate: a seeded CEWS training run
under lockwatch is bitwise-identical to an unwatched one, reports zero
findings, and a post-disable run is bitwise-identical again.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.distributed import save_checkpoint
from repro.analysis import LockWatch, LockWatchError
from repro.analysis import lockwatch as lockwatch_mod

pytestmark = pytest.mark.sanitize


@pytest.fixture
def watch():
    """An enabled record-mode lockwatch, always disabled on teardown."""
    w = LockWatch(mode="record")
    w.enable()
    try:
        yield w
    finally:
        w.disable()


class TestPatching:
    def test_factories_patched_and_restored(self):
        original_lock, original_rlock = threading.Lock, threading.RLock
        w = LockWatch()
        w.enable()
        try:
            assert threading.Lock is not original_lock
            assert threading.RLock is not original_rlock
            assert isinstance(threading.Lock(), lockwatch_mod._WatchedLock)
        finally:
            w.disable()
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock

    def test_two_watchers_cannot_both_enable(self, watch):
        with pytest.raises(RuntimeError):
            LockWatch().enable()

    def test_proxy_degrades_after_disable(self, watch):
        lock = threading.Lock()
        watch.disable()
        acquires_before = watch.stats["acquires"]
        with lock:
            pass
        # The proxy still locks correctly but reports nothing.
        assert watch.stats["acquires"] == acquires_before
        watch.enable()  # fixture teardown expects it enabled


class TestOrderInversion:
    def _establish_a_then_b(self, lock_a, lock_b):
        def forward():
            with lock_a:
                with lock_b:
                    pass

        thread = threading.Thread(target=forward)
        thread.start()
        thread.join()

    def test_san004_recorded_with_both_stacks(self, watch):
        lock_a, lock_b = threading.Lock(), threading.Lock()
        self._establish_a_then_b(lock_a, lock_b)
        with lock_b:
            with lock_a:  # inversion of the established a -> b
                pass
        codes = [f.code for f in watch.findings]
        assert codes == ["SAN004"]
        finding = watch.findings[0]
        assert finding.kind == "order-inversion"
        # Provenance: the inverting acquisition AND the established edge.
        assert any("while holding" in stack for stack in finding.stacks)
        assert any("established edge" in stack for stack in finding.stacks)
        assert "test_lockwatch.py" in "".join(finding.stacks)

    def test_san004_raises_and_rolls_back_in_raise_mode(self):
        w = LockWatch(mode="raise")
        w.enable()
        try:
            lock_a, lock_b = threading.Lock(), threading.Lock()
            self._establish_a_then_b(lock_a, lock_b)
            errors = []

            def backward():
                try:
                    with lock_b:
                        with lock_a:
                            pass
                except LockWatchError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=backward)
            thread.start()
            thread.join()
            assert len(errors) == 1
            assert errors[0].finding.code == "SAN004"
            # The rolled-back acquisition left both locks free.
            assert not lock_a.locked()
            assert not lock_b.locked()
        finally:
            w.disable()

    def test_matches_static_rpl013_fixture_shape(self, watch):
        """The A(lock1→lock2) / B(lock2→lock1) interleaving the deleted
        static RPL013 fixture encoded is caught live."""
        lock_1, lock_2 = threading.Lock(), threading.Lock()

        def module_a():
            with lock_1:
                with lock_2:
                    pass

        def module_b():
            with lock_2:
                with lock_1:
                    pass

        first = threading.Thread(target=module_a)
        first.start()
        first.join()
        second = threading.Thread(target=module_b)
        second.start()
        second.join()
        assert [f.code for f in watch.findings] == ["SAN004"]

    def test_consistent_order_is_silent(self, watch):
        lock_a, lock_b = threading.Lock(), threading.Lock()
        for _ in range(3):
            self._establish_a_then_b(lock_a, lock_b)
        assert watch.findings == []
        assert watch.stats["edges"] == 1  # recorded once, not per pass


class TestReentrancyAndConditions:
    def test_rlock_reentrance_is_one_hold(self, watch):
        rlock = threading.RLock()
        with rlock:
            with rlock:
                tid = threading.get_ident()
                assert len(watch._held[tid]) == 1
                assert watch._held[tid][0].depth == 2
        assert watch._held[threading.get_ident()] == []

    def test_condition_wait_on_reentrant_rlock_restores_depth(self, watch):
        """RLock._release_save returns (count, owner); wait() must restore
        the full reentrant depth or later releases desynchronize the
        held-set."""
        rlock = threading.RLock()
        condition = threading.Condition(rlock)
        ready = []

        def producer():
            time.sleep(0.05)
            with condition:
                ready.append(True)
                condition.notify_all()

        thread = threading.Thread(target=producer)
        thread.start()
        with rlock:  # depth 1
            with condition:  # depth 2 (same underlying RLock)
                while not ready:
                    condition.wait(timeout=5.0)
                tid = threading.get_ident()
                assert len(watch._held[tid]) == 1
                assert watch._held[tid][0].depth == 2
        thread.join()
        assert watch._held[threading.get_ident()] == []
        assert watch.findings == []

    def test_condition_wait_notify_through_proxy(self, watch):
        condition = threading.Condition()
        ready = []

        def consumer():
            with condition:
                while not ready:
                    condition.wait(timeout=5.0)

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        with condition:
            ready.append(True)
            condition.notify_all()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert watch.findings == []
        # wait() fully removed the lock from the waiter's held-set.
        for holds in watch._held.values():
            assert holds == []


class TestLongHold:
    def test_san005_fires_on_contended_slow_hold(self):
        w = LockWatch(mode="record", hold_threshold=0.05)
        w.enable()
        try:
            lock = threading.Lock()

            def hog():
                with lock:
                    time.sleep(0.2)

            thread = threading.Thread(target=hog)
            thread.start()
            time.sleep(0.05)  # let the hog take the lock first
            with lock:  # we contend; the hog's release sees it
                pass
            thread.join()
            codes = [f.code for f in w.findings]
            assert "SAN005" in codes
            finding = next(f for f in w.findings if f.code == "SAN005")
            assert "other threads were waiting" in finding.message
        finally:
            w.disable()

    def test_uncontended_slow_hold_is_silent(self):
        w = LockWatch(mode="record", hold_threshold=0.01)
        w.enable()
        try:
            lock = threading.Lock()
            with lock:
                time.sleep(0.05)
            assert w.findings == []
        finally:
            w.disable()

    def test_failed_trylock_does_not_mark_contention(self):
        """acquire(blocking=False) never waits, so a hold it bounced off
        must not count as contended (no SAN005)."""
        w = LockWatch(mode="record", hold_threshold=0.05)
        w.enable()
        try:
            lock = threading.Lock()

            def hog():
                with lock:
                    time.sleep(0.2)

            thread = threading.Thread(target=hog)
            thread.start()
            time.sleep(0.05)  # let the hog take the lock first
            assert lock.acquire(blocking=False) is False
            thread.join()
            assert w.findings == []
        finally:
            w.disable()


class TestCrossThreadRelease:
    def test_release_in_other_thread_drops_acquirer_record(self, watch):
        """The plain-Lock signaling idiom (acquire here, release there)
        must not leave a phantom hold that fabricates order edges."""
        lock, other = threading.Lock(), threading.Lock()
        lock.acquire()
        releaser = threading.Thread(target=lock.release)
        releaser.start()
        releaser.join()
        for holds in watch._held.values():
            assert holds == []
        # Without the record dropped, this acquisition would register a
        # stale lock -> other edge ...
        with other:
            pass

        def reverse():
            with other:
                with lock:
                    pass

        thread = threading.Thread(target=reverse)
        thread.start()
        thread.join()
        # ... and the reverse nesting would report a false SAN004.
        assert watch.findings == []


# A thread created under the watch embeds a watched lock in its _started
# Event; the forked child's threading._after_fork calls _at_fork_reinit
# on it.  Runs in a fresh interpreter (not under pytest, whose
# unraisablehook would swallow the child's "Exception ignored" output).
_FORK_REINIT_SCRIPT = """
import multiprocessing
import os
import sys
import threading

from repro.analysis import lockwatch

lockwatch.enable()
thread = threading.Thread(target=lambda: None)
thread.start()
thread.join()

def child():
    # threading._after_fork already re-inited the inherited watched
    # locks; prove fresh threading machinery works on top.
    lockwatch.reset_after_fork()
    event = threading.Event()
    worker = threading.Thread(target=event.set)
    worker.start()
    worker.join()
    os._exit(0 if event.is_set() else 1)

proc = multiprocessing.get_context("fork").Process(target=child)
proc.start()
proc.join(timeout=30)
lockwatch.disable()
sys.exit(proc.exitcode)
"""


class TestForkReset:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork")
    def test_forked_child_reinits_watched_locks_cleanly(self):
        """Regression: _WatchedLock without _at_fork_reinit made
        threading._after_fork die with "Exception ignored" in every
        forked child, leaving inherited Event/Condition locks un-reinit
        and threading's bookkeeping stale."""
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", _FORK_REINIT_SCRIPT],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "Exception ignored" not in result.stderr, result.stderr
        assert "_after_fork" not in result.stderr, result.stderr

    def test_at_fork_reinit_purges_hold_records(self, watch):
        """_at_fork_reinit (child-side, single-threaded) re-inits the
        inner lock and drops any hold record the parent left behind."""
        lock = threading.Lock()
        lock.acquire()  # simulate forking while held
        lock._at_fork_reinit()
        assert not lock.locked()
        for holds in watch._held.values():
            assert all(hold.uid != lock._uid for hold in holds)

    def test_reset_clears_inherited_bookkeeping(self, watch):
        lock_a, lock_b = threading.Lock(), threading.Lock()
        with lock_a:
            with lock_b:
                pass
        assert watch.stats["edges"] == 1
        watch.reset_after_fork()
        assert watch._edges == {}
        assert watch._held == {}
        assert watch.findings == []
        # Fresh edges build up cleanly afterwards.
        with lock_b:
            with lock_a:
                pass
        assert watch.findings == []


def _seeded_run(checkpoint_path, backend):
    """One deterministic 2-episode CEWS train: (curves, checkpoint arrays)."""
    trainer = repro.build_trainer(
        "cews",
        repro.smoke_config(seed=5, horizon=8, num_pois=10),
        train=repro.TrainConfig(
            num_employees=2, episodes=2, k_updates=1, seed=0, backend=backend
        ),
        ppo=repro.PPOConfig(batch_size=8, epochs=1),
    )
    history = trainer.train()
    save_checkpoint(trainer, str(checkpoint_path))
    trainer.close()
    curves = tuple(
        history.curve(name)
        for name in ("kappa", "rho", "policy_loss", "value_loss", "extrinsic_reward")
    )
    with np.load(str(checkpoint_path)) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    return curves, arrays


def _assert_bitwise_equal(first, second):
    curves_a, arrays_a = first
    curves_b, arrays_b = second
    assert curves_a == curves_b
    assert sorted(arrays_a) == sorted(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].dtype == arrays_b[key].dtype, key
        assert np.array_equal(arrays_a[key], arrays_b[key]), key


class TestBitwiseTrainGate:
    """Acceptance: watched runs change nothing and find nothing."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_watched_run_bitwise_identical_and_clean(self, tmp_path, backend):
        baseline = _seeded_run(tmp_path / "plain.npz", backend=backend)
        watch = LockWatch(mode="record")
        watch.enable()
        try:
            watched = _seeded_run(tmp_path / "watched.npz", backend=backend)
        finally:
            watch.disable()
        assert watch.findings == []
        assert watch.stats["acquires"] > 0
        _assert_bitwise_equal(baseline, watched)
        # Post-disable the world is back to normal: identical again.
        after = _seeded_run(tmp_path / "after.npz", backend=backend)
        _assert_bitwise_equal(baseline, after)
