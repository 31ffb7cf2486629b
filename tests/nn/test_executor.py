"""Execution-plan gates: fast path ≡ slow path, byte for byte.

The executor promises that replaying a compiled plan is *bitwise*
indistinguishable from walking the autograd tape, and that the fast
path silently steps aside — re-dispatching through the patchable tape —
the moment any instrument (sanitizer, tracer, profiler) is installed.
These tests pin both halves, plus ownership: every array a caller gets
from ``step`` — outputs and parameter gradients — is its own, so no
later replay can change it and it aliases neither an input nor an
earlier result.
"""

import os
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.agents import CEWSAgent, PPOConfig
from repro.agents.ppo import _ppo_arrays, make_ppo_planner, ppo_step
from repro.env import CrowdsensingEnv, smoke_config
from repro.nn import fast_path_allowed
from repro.nn import functional as F


@pytest.fixture(scope="module")
def minibatches():
    """Two distinct CEWS PPO minibatches of one shape signature."""
    config = smoke_config(seed=3, horizon=40)
    agent = CEWSAgent(config, ppo=PPOConfig(batch_size=16, epochs=1), seed=0)
    env = CrowdsensingEnv(config, reward_mode="sparse", scenario=agent.scenario)
    buffer, __ = agent.collect_episode(env, np.random.default_rng(0))
    batches = list(buffer.minibatches(16, np.random.default_rng(0)))[:2]
    return agent, batches


@pytest.fixture(scope="module")
def workload(minibatches):
    """The CEWS PPO minibatch workload (the hot path the plan exists for)."""
    agent, batches = minibatches
    return agent, batches[0]


def grads_of(network):
    return [p.grad.copy() for p in network.parameters()]


def tape_reference(agent, batch):
    agent.network.zero_grad()
    stats = ppo_step(agent.network, batch, agent.ppo)
    return stats, grads_of(agent.network)


class TestPlanEqualsTape:
    def test_planned_update_matches_tape_bitwise(self, workload):
        agent, batch = workload
        ref_stats, ref_grads = tape_reference(agent, batch)

        planner = make_ppo_planner(agent.network, agent.ppo)
        for step in range(3):  # build + validate, then two pure replays
            agent.network.zero_grad()
            stats = ppo_step(agent.network, batch, agent.ppo, planner=planner)
            assert planner.last_path == "plan", (step, planner.last_reason)
            assert stats == ref_stats
            for got, want in zip(grads_of(agent.network), ref_grads):
                assert got.tobytes() == want.tobytes()

    def test_cews_workload_never_falls_back(self, workload):
        """Every op the CEWS PPO update emits has a plan kernel: after the
        one build, repeated steps are all plan replays (the no-fallback
        acceptance gate — an unsupported op would silently eat the 2x)."""
        agent, batch = workload
        planner = make_ppo_planner(agent.network, agent.ppo)
        for __ in range(5):
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
        assert planner.stats["built"] == 1
        assert planner.stats["plan_runs"] == 5
        assert planner.stats["tape_runs"] == 0
        assert planner.stats["unsupported"] == 0
        assert planner.stats["validation_failed"] == 0

    def test_unpickled_batch_builds_a_plan(self, workload):
        """An input whose numpy base collapses to a foreign owner — here
        every array is a view of one pickle buffer — must still resolve
        (buffer-identity seeding) instead of rejecting the program."""
        agent, batch = workload
        __, ref_grads = tape_reference(agent, batch)
        planner = make_ppo_planner(agent.network, agent.ppo)
        agent.network.zero_grad()
        ppo_step(
            agent.network, pickle.loads(pickle.dumps(batch)), agent.ppo,
            planner=planner,
        )
        assert planner.last_path == "plan", planner.last_reason
        assert planner.stats["unsupported"] == 0
        for got, want in zip(grads_of(agent.network), ref_grads):
            assert got.tobytes() == want.tobytes()

    def test_new_shape_signature_builds_second_plan(self, workload):
        agent, __ = workload
        config = smoke_config(seed=3, horizon=40)
        env = CrowdsensingEnv(config, reward_mode="sparse", scenario=agent.scenario)
        buffer, __ = agent.collect_episode(env, np.random.default_rng(1))
        small = next(iter(buffer.minibatches(8, np.random.default_rng(0))))
        large = next(iter(buffer.minibatches(16, np.random.default_rng(0))))
        planner = make_ppo_planner(agent.network, agent.ppo)
        for batch in (small, large, small, large):
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
            assert planner.last_path == "plan", planner.last_reason
        assert planner.stats["built"] == 2
        assert planner.stats["plan_runs"] == 4


class TestInstrumentsForceTheTape:
    """Any observer must keep seeing every op: installed instruments flip
    ``fast_path_allowed`` and the planner re-dispatches through the tape
    — then returns to plan replay the moment the instrument leaves."""

    def test_profiler_forces_tape_then_plan_resumes(self, workload):
        from repro.obs import OpProfiler

        agent, batch = workload
        planner = make_ppo_planner(agent.network, agent.ppo)
        agent.network.zero_grad()
        ppo_step(agent.network, batch, agent.ppo, planner=planner)
        assert planner.last_path == "plan"

        profiler = OpProfiler().enable()
        try:
            ok, reason = fast_path_allowed()
            # Like every op-level instrument, the profiler wraps _make.
            assert (ok, reason) == (False, "Tensor._make patched")
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
            assert planner.last_path == "tape"
        finally:
            profiler.disable()
        agent.network.zero_grad()
        ppo_step(agent.network, batch, agent.ppo, planner=planner)
        assert planner.last_path == "plan"

    def test_tracer_forces_tape(self, workload, tmp_path):
        from repro.obs import Tracer, trace_path_for

        agent, batch = workload
        planner = make_ppo_planner(agent.network, agent.ppo)
        tracer = Tracer(trace_path_for(str(tmp_path / "t"))).install()
        try:
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
            assert planner.last_path == "tape"
            assert planner.last_reason == "tracer installed"
        finally:
            tracer.uninstall()

    def test_sanitizer_forces_tape(self, workload):
        from repro.analysis import Sanitizer

        agent, batch = workload
        planner = make_ppo_planner(agent.network, agent.ppo)
        with Sanitizer():
            agent.network.zero_grad()
            ppo_step(agent.network, batch, agent.ppo, planner=planner)
            assert planner.last_path == "tape"

    def test_env_escape_hatch_forces_tape(self, workload, monkeypatch):
        agent, batch = workload
        planner = make_ppo_planner(agent.network, agent.ppo)
        monkeypatch.setenv("REPRO_NO_PLANS", "1")
        agent.network.zero_grad()
        ppo_step(agent.network, batch, agent.ppo, planner=planner)
        assert planner.last_path == "tape"
        assert planner.last_reason == "REPRO_NO_PLANS"

    def test_no_grad_forces_tape_path_refusal(self):
        with nn.no_grad():
            ok, reason = fast_path_allowed()
        assert not ok and reason == "grad disabled"


def _forward_planner(network):
    """The policy forward alone, as the serving engine plans it."""

    def program(inputs):
        output = network.forward(
            inputs["states"],
            worker_features=inputs["worker_features"],
            mask_penalty=inputs["mask_penalty"],
        )
        return {"move_logits": output.move_logits, "value": output.value}

    return nn.ForwardPlanner(program, name="test")


class TestArenaEscapeSafety:
    """Everything ``step`` hands out is caller-owned memory: a result
    held across later replays keeps its bytes, and no result shares
    storage with an input or with the previous step's results."""

    def test_repeated_replays_do_not_corrupt_results(self, minibatches):
        """Hold step 1's results, replay a *different* minibatch of the
        same signature twice: an alias into plan-owned or input storage
        would be overwritten; unchanged bytes and disjoint memory prove
        there is none.  Run through both public names of the one core."""
        agent, (first, other) = minibatches
        first, other = (_ppo_arrays(b, agent.ppo) for b in (first, other))
        assert nn.Planner.signature(first) == nn.Planner.signature(other)
        params = list(agent.network.parameters())
        for planner, with_grads in (
            (make_ppo_planner(agent.network, agent.ppo), True),
            (_forward_planner(agent.network), False),
        ):
            kind = type(planner).__name__

            def step(inputs):
                agent.network.zero_grad()
                results = list(planner.step(inputs).values())
                assert planner.last_path == "plan", (kind, planner.last_reason)
                if with_grads:
                    results += [p.grad for p in params]
                return results

            held = step(first)
            snapshot = [a.tobytes() for a in held]
            previous = held
            for __ in range(2):
                current = step(other)
                for array in current:
                    for foreign in list(other.values()) + previous:
                        assert not np.shares_memory(array, foreign), kind
                previous = current
            assert [a.tobytes() for a in held] == snapshot, kind
            assert any(
                a.tobytes() != b.tobytes() for a, b in zip(held, previous)
            ), "the two minibatches must differ for the check to bite"


@pytest.fixture(scope="module")
def batch_of_40():
    """One CEWS PPO minibatch of 40 rows, the training minibatch size."""
    config = smoke_config(seed=3, horizon=40)
    agent = CEWSAgent(config, ppo=PPOConfig(batch_size=40, epochs=1), seed=0)
    env = CrowdsensingEnv(config, reward_mode="sparse", scenario=agent.scenario)
    buffer, __ = agent.collect_episode(env, np.random.default_rng(0))
    return agent, next(iter(buffer.minibatches(40, np.random.default_rng(0))))


class TestPlanLifetimes:
    """A replay frees each intermediate after its last reader, as the
    tape does, instead of holding every frame slot until it returns."""

    def test_replay_peak_is_at_most_the_tapes(self, batch_of_40):
        agent, batch = batch_of_40
        planner = make_ppo_planner(agent.network, agent.ppo)

        def peak(step):
            agent.network.zero_grad()
            tracemalloc.start()
            try:
                step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def planned():
            ppo_step(agent.network, batch, agent.ppo, planner=planner)

        peak(planned)  # build and validate
        plan_peak = peak(planned)
        assert planner.last_path == "plan", planner.last_reason
        assert planner.stats["validation_failed"] == 0
        tape_peak = peak(lambda: ppo_step(agent.network, batch, agent.ppo))
        assert plan_peak <= tape_peak

    def test_forward_replay_keeps_only_inputs_parameters_and_outputs(self, workload):
        agent, batch = workload
        inputs = _ppo_arrays(batch, agent.ppo)
        planner = _forward_planner(agent.network)
        with nn.no_grad():
            planner.step(inputs)
        (plan,) = planner.plans.values()
        frames, born = [], []

        def spy(fn):
            def record(frame):
                before = list(frame)
                fn(frame)
                frames.append(frame)
                born.extend(
                    weakref.ref(new)
                    for old, new in zip(before, frame)
                    if new is not old and isinstance(new, np.ndarray)
                )
            return record

        plan.records = tuple((name, spy(fn), drop) for name, fn, drop in plan.records)
        with nn.no_grad():
            outputs = planner.step(inputs)
        assert planner.last_path == "plan", planner.last_reason
        assert planner.stats["validation_failed"] == 0
        frame = frames[0]
        kept = [frame[slot] for __, slot in plan.output_slots]
        allowed = (
            list(inputs.values())
            + [p.data for p in agent.network.parameters()]
            + [value for value in plan.frame_init if value is not None]
            + kept
        )
        assert all(value is None or any(value is a for a in allowed) for value in frame)
        for got, value in zip(outputs.values(), kept):
            assert got.tobytes() == value.tobytes()
        # An output slot may hold a view: its base lives as long as it does.
        allowed += [value.base for value in kept if value.base is not None]
        alive = [ref() for ref in born if ref() is not None]
        assert all(any(value is a for a in allowed) for value in alive)
        assert len(alive) < len(born)


def _program_with_a_dropout_mask(weight):
    """A program whose one unplannable op is ``F.dropout``: its mask is
    drawn per call, an attr array the plan cannot place.  The generator
    is re-seeded per call so the tape's bytes repeat."""

    def program(inputs):
        x = nn.Tensor(inputs["x"]) * weight
        y = F.dropout(x, 0.5, np.random.default_rng(7))
        return {"loss": y.sum(), "y": y}

    return program


class TestUnresolvableAttr:
    def test_per_call_dropout_mask_retires_the_signature(self):
        rng = np.random.default_rng(0)
        weight = nn.Parameter(rng.normal(size=(3, 4)))
        program = _program_with_a_dropout_mask(weight)
        inputs = {"x": rng.normal(size=(3, 4))}

        outs = program(inputs)
        outs["loss"].backward()
        ref_outs = {name: t.data.copy() for name, t in outs.items()}
        ref_grad = weight.grad.copy()

        planner = nn.Planner(program, name="dropout")
        for step in range(2):
            weight.grad = None
            got = planner.step(inputs)
            assert planner.last_path == "tape"
            assert set(got) == set(ref_outs)
            for name, want in ref_outs.items():
                assert got[name].tobytes() == want.tobytes()
            assert weight.grad.tobytes() == ref_grad.tobytes()
            if step == 0:
                assert planner.last_reason == (
                    "unsupported: cannot resolve captured array "
                    "(shape (3, 4), dtype float64)"
                )
        assert planner.last_reason == "signature retired to tape"
        assert planner.stats["unsupported"] == 1
        assert planner.stats["tape_runs"] == 2
        assert planner.stats["plan_runs"] == 0


class TestSizeOneInputViews:
    def test_a_one_element_view_of_an_input_is_not_baked(self):
        """A minibatch of one row and one worker makes ``moves.reshape(-1)``
        a one-element view of an input.  It changes every call, so the
        plan must read it from the input, not keep the capture's value."""
        weight = nn.Parameter(np.ones((1, 3)))

        def program(inputs):
            picked = (weight * 1.0)[np.zeros(1, dtype=np.int64), inputs["moves"].reshape(-1)]
            return {"loss": picked.sum()}

        planner = nn.Planner(program, name="one-row")
        for move in (0, 2, 1):
            weight.grad = None
            planner.step({"moves": np.array([[move]], dtype=np.int64)})
            assert planner.last_path == "plan", planner.last_reason
            assert weight.grad.tolist() == [[float(i == move) for i in range(3)]]
