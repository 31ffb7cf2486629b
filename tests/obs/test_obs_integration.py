"""End-to-end observability: instrumented training runs.

The acceptance criteria exercised here:

* a seeded run with tracing installed is bitwise-identical (history
  floats AND checkpoint contents) to an uninstrumented one;
* a fault-injected run surfaces quarantine / crash / restart both as
  trace events and in the metrics snapshot;
* fault recovery logs WARNING records carrying the employee index.
"""

import logging

import pytest

from repro.agents import PPOConfig
from repro.distributed import (
    CorruptionFault,
    CrashFault,
    FaultInjector,
    FaultPlan,
    TrainConfig,
    build_trainer,
)
from repro.env import smoke_config
from repro.obs import Tracer, summarize_trace, trace_path_for

from .conftest import assert_runs_bitwise_equal, seeded_cews_run

pytestmark = pytest.mark.obs


def make_faulty_trainer(injector):
    return build_trainer(
        "cews",
        smoke_config(seed=5, horizon=10, num_pois=15),
        train=TrainConfig(
            num_employees=3,
            episodes=2,
            k_updates=2,
            seed=0,
            quorum_fraction=0.5,
            max_retries=1,
        ),
        ppo=PPOConfig(batch_size=10, epochs=1),
        fault_injector=injector,
    )


class TestTracingIsBitwiseInvisible:
    def test_traced_run_identical_to_plain_run(self, tmp_path):
        baseline = seeded_cews_run(tmp_path / "plain.npz")
        tracer = Tracer(trace_path_for(str(tmp_path / "trace"))).install()
        try:
            traced = seeded_cews_run(tmp_path / "traced.npz")
        finally:
            tracer.uninstall()
        assert_runs_bitwise_equal(baseline, traced)
        assert tracer.records_emitted > 0


class TestBackendsBitwiseUnderInstrumentation:
    """PR 5/6 acceptance gate: the seeded smoke run is bitwise-identical
    across the serial / process / socket employee backends,
    both plain and under the full instrumentation stack (sanitizer +
    tracer + profiler)."""

    def test_backends_identical_plain(self, tmp_path):
        runs = {
            backend: seeded_cews_run(tmp_path / f"{backend}.npz", backend=backend)
            for backend in ("serial", "process", "socket")
        }
        assert_runs_bitwise_equal(runs["serial"], runs["process"])
        assert_runs_bitwise_equal(runs["serial"], runs["socket"])

    @pytest.mark.parametrize("backend", ["serial", "process", "socket"])
    def test_backends_identical_fully_instrumented(self, tmp_path, backend):
        from repro.analysis import Sanitizer
        from repro.obs import OpProfiler

        baseline = seeded_cews_run(tmp_path / "plain.npz")
        tracer = Tracer(trace_path_for(str(tmp_path / backend))).install()
        profiler = OpProfiler().enable()
        try:
            with Sanitizer():
                run = seeded_cews_run(
                    tmp_path / f"{backend}.npz", backend=backend
                )
        finally:
            profiler.disable()
            tracer.uninstall()
        assert_runs_bitwise_equal(baseline, run)
        assert tracer.records_emitted > 0

    def test_process_backend_ipc_observability(self, tmp_path, registry):
        """Worker explore/minibatch spans land in the chief trace and the
        slab transport publishes byte/wait metrics."""
        path = trace_path_for(str(tmp_path))
        with Tracer(path):
            seeded_cews_run(tmp_path / "run.npz", backend="process")
        from repro.obs import read_trace

        summary = summarize_trace(read_trace(path))
        names = set(summary["by_name"])
        assert {"employee.explore", "employee.gradients"} <= names

        snapshot = registry.snapshot()
        ipc_bytes = snapshot["repro_ipc_bytes_total"]["series"]
        assert any("broadcast" in key for key in ipc_bytes)
        assert any("gather" in key for key in ipc_bytes)
        assert all(value > 0 for value in ipc_bytes.values())
        assert "repro_ipc_wait_seconds" in snapshot


class TestTraceCoversTheTrainingStack:
    def test_span_names_span_all_layers(self, tmp_path, registry):
        path = trace_path_for(str(tmp_path))
        with Tracer(path) as tracer:
            trainer = make_faulty_trainer(None)
            trainer.train()
            trainer.close()
        from repro.obs import read_trace

        summary = summarize_trace(read_trace(path))
        names = set(summary["by_name"])
        # Chief, phases, employees, autograd, curiosity, env.
        assert {
            "episode",
            "phase.sync",
            "phase.explore",
            "phase.gradients",
            "employee.explore",
            "employee.gradients",
            "chief.apply_gradients",
            "ppo.update",
            "ppo.forward",
            "curiosity.update",
            "curiosity.forward_model",
            "curiosity.intrinsic",
            "env.reset",
            "env.step",
            "policy.act",
        } <= names
        # Per-employee aggregation covers every employee.
        for employee in range(3):
            assert f"employee.explore[{employee}]" in summary["by_employee"]
        assert summary["by_name"]["episode"]["count"] == 2

    def test_serial_lockstep_keeps_one_explore_span_per_employee_attempt(
        self, tmp_path, registry
    ):
        """The serial explore phase rolls the employees as one lockstep
        group, yet each employee still gets its own ``employee.explore``
        span per attempt.  Employee 1's first attempt of episode 0
        crashes before its rollout, so it has one span there (the retry)
        and the retry is a group of its own."""
        from repro.obs import read_trace

        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=1, episode=0, times=1),))
        )
        path = trace_path_for(str(tmp_path))
        with Tracer(path):
            trainer = make_faulty_trainer(injector)
            trainer.train()
            trainer.close()
        spans = [r for r in read_trace(path) if r.get("type") == "span"]

        explore = [r["attrs"] for r in spans if r["name"] == "employee.explore"]
        cells = sorted((a["employee"], a["episode"]) for a in explore)
        assert cells == [(e, ep) for e in range(3) for ep in range(2)]

        # Groups: episode 0 runs {0, 2}, then the retry {1}; episode 1
        # runs {0, 1, 2}.  One curiosity call and one policy.act per
        # time slot per group.
        assert sum(r["name"] == "curiosity.intrinsic" for r in spans) == 3
        rows = [r["attrs"]["rows"] for r in spans if r["name"] == "policy.act"]
        horizon = 10
        assert sorted(rows) == sorted([2] * horizon + [1] * horizon + [3] * horizon)
        env_steps = sum(r["name"] == "env.step" for r in spans)
        assert env_steps == 6 * horizon


class TestFaultsAreObservable:
    def test_crash_restart_and_quarantine_in_trace_and_metrics(
        self, tmp_path, registry
    ):
        injector = FaultInjector(
            FaultPlan(
                events=(
                    CrashFault(employee=1, episode=0, times=100),
                    CorruptionFault(employee=0, episode=1, round=0, mode="nan"),
                )
            )
        )
        path = trace_path_for(str(tmp_path))
        with Tracer(path) as tracer:
            trainer = make_faulty_trainer(injector)
            history = trainer.train()
            trainer.close()
        assert len(history.logs) == 2

        # --- in the trace ------------------------------------------------
        from repro.obs import read_trace

        summary = summarize_trace(read_trace(path))
        events = summary["event_counts"]
        assert events.get("fault.crash", 0) >= 1
        assert events.get("fault.restart", 0) >= 1
        assert events.get("fault.quarantine", 0) >= 1
        assert events.get("barrier.degraded", 0) >= 1

        # --- in the metrics snapshot -------------------------------------
        snapshot = registry.snapshot()
        crashes = snapshot["repro_employee_crashes_total"]["series"]
        assert crashes['repro_employee_crashes_total{employee="1"}'] >= 1
        restarts = snapshot["repro_employee_restarts_total"]["series"]
        assert restarts['repro_employee_restarts_total{employee="1"}'] == 1
        rejected = snapshot["repro_gradients_rejected_total"]["series"]
        assert (
            rejected['repro_gradients_rejected_total{kind="policy",employee="0"}']
            == 1
        )
        assert snapshot["repro_episodes_total"]["series"]["repro_episodes_total"] == 2

        # --- and in the Prometheus exposition ----------------------------
        text = registry.render_prometheus()
        assert "repro_employee_crashes_total" in text
        assert "repro_gradients_rejected_total" in text
        assert "repro_phase_seconds_bucket" in text

    def test_history_and_health_published_as_gauges(self, registry):
        trainer = make_faulty_trainer(None)
        trainer.train()
        trainer.close()
        snapshot = registry.snapshot()
        assert snapshot["repro_history_episodes"]["series"]["repro_history_episodes"] == 2
        assert "repro_episode_reward" in snapshot
        assert "repro_health_crashes" in snapshot
        assert "repro_health_restarts" in snapshot

    def test_fault_recovery_logs_warnings_with_employee_index(self, caplog):
        injector = FaultInjector(
            FaultPlan(events=(CrashFault(employee=1, episode=0, times=100),))
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            trainer = make_faulty_trainer(injector)
            trainer.train()
            trainer.close()
        warnings = [
            record for record in caplog.records if record.levelno == logging.WARNING
        ]
        assert warnings, "expected WARNING fault logs"
        messages = " | ".join(record.getMessage() for record in warnings)
        assert "employee 1" in messages
        assert "restarted" in messages
        assert "episode" in messages
