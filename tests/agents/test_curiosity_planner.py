"""The curiosity update runs as an execution plan, byte-equal to the tape.

``PPOWorkerAgent.compute_gradients`` steps the curiosity loss through a
third :class:`repro.nn.Planner` (``loss_inputs`` → ``loss_program``),
beside the PPO update and the acting forward.  These tests pin that the
planned gradients are the tape's bit for bit for every curiosity model,
that the smoke CEWS run never leaves the plan, which models fall back to
the tape and why, and that the planner is neither pickled nor used under
an instrument.
"""

import pickle

import numpy as np
import pytest

from repro.agents import PPOConfig
from repro.curiosity.base import TransitionBatch
from repro.distributed import build_agent, build_trainer
from repro.env import CrowdsensingEnv, smoke_config
from repro.experiments.scales import get_scale
from repro.experiments.training import make_ppo_config, make_train_config

VARIANTS = {
    "spatial-shared": dict(curiosity="spatial", structure="shared"),
    "spatial-independent": dict(curiosity="spatial", structure="independent"),
    "icm": dict(curiosity="icm"),
    "rnd": dict(curiosity="rnd"),
}

# Why the state-based baselines stay on the tape at a 16-row minibatch:
# ICM's cross-entropy indexes with a per-call row range, and RND's frozen
# target network has parameters that take no gradient, so neither is a
# leaf a plan can rebuild.
FALLBACK = {
    "icm": "unsupported: cannot resolve captured array (shape (16,), dtype int64)",
    "rnd": "unsupported: cannot resolve captured array (shape (8, 3, 3, 3), dtype float64)",
}


def _agent_and_batches(variant):
    config = smoke_config(seed=3, horizon=40)
    agent = build_agent(
        "cews", config, ppo=PPOConfig(batch_size=16, epochs=1), seed=0,
        **VARIANTS[variant],
    )
    env = CrowdsensingEnv(config, reward_mode="sparse", scenario=agent.scenario)
    buffer, __ = agent.collect_episode(env, np.random.default_rng(0))
    batches = list(buffer.minibatches(16, np.random.default_rng(0)))[:2]
    return agent, batches


def _tape_grads(agent, batch):
    params = agent.curiosity.parameters()
    for param in params:
        param.grad = None
    agent.curiosity.loss(TransitionBatch(
        positions=batch.positions,
        next_positions=batch.next_positions,
        moves=batch.moves,
        states=batch.states,
        next_states=batch.next_states,
    )).backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_planned_curiosity_gradients_match_the_tape(variant):
    agent, (first, second) = _agent_and_batches(variant)
    for batch in (first, second, first):
        pack = agent.compute_gradients(batch)
        planner = agent._curiosity_planner
        if variant in FALLBACK:
            assert planner.last_path == "tape"
        else:
            assert planner.last_path == "plan", planner.last_reason
        want = _tape_grads(agent, batch)
        assert len(pack.curiosity) == len(want) > 0
        for got, ref in zip(pack.curiosity, want):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("variant", sorted(FALLBACK))
def test_state_based_baselines_pin_their_fallback(variant):
    agent, (batch, __) = _agent_and_batches(variant)
    agent.compute_gradients(batch)
    planner = agent._curiosity_planner
    assert planner.last_reason == FALLBACK[variant]
    agent.compute_gradients(batch)
    assert planner.last_reason == "signature retired to tape"
    assert planner.stats["unsupported"] == 1
    assert planner.stats["validation_failed"] == planner.stats["plan_runs"] == 0


def _smoke_employees(**agent_kwargs):
    scale = get_scale("smoke")
    trainer = build_trainer(
        "cews",
        scale.scenario(seed=0),
        train=make_train_config(scale, seed=0, backend="serial"),
        ppo=make_ppo_config(scale),
        seed=0,
        **agent_kwargs,
    )
    try:
        trainer.train(3)
    finally:
        trainer.close()
    return [employee.agent for employee in trainer.employees]


def test_smoke_cews_curiosity_update_never_leaves_the_plan():
    agents = _smoke_employees()
    assert len(agents) > 1
    for agent in agents:
        stats = agent._curiosity_planner.stats
        assert stats["plan_runs"] > 0
        assert stats["built"] == 1
        assert stats["tape_runs"] == stats["validation_failed"] == 0
        assert stats["unsupported"] == 0


def test_pickle_round_trip_drops_the_curiosity_planner():
    agent, (batch, __) = _agent_and_batches("spatial-shared")
    agent.compute_gradients(batch)
    assert agent._curiosity_planner is not None
    clone = pickle.loads(pickle.dumps(agent))
    assert clone._curiosity_planner is None
    clone.compute_gradients(batch)
    assert clone._curiosity_planner.program.__self__ is clone.curiosity
    assert clone._curiosity_planner.last_path == "plan"


def test_tracer_runs_the_tape_and_keeps_the_forward_model_span():
    from repro.obs import Tracer

    agent, (batch, __) = _agent_and_batches("spatial-shared")
    agent.compute_gradients(batch)
    assert agent._curiosity_planner.last_path == "plan"
    tracer = Tracer().install()
    try:
        agent.compute_gradients(batch)
    finally:
        tracer.uninstall()
    planner = agent._curiosity_planner
    assert planner.last_path == "tape"
    assert planner.last_reason == "tracer installed"
    names = [record["name"] for record in tracer.ring]
    assert "curiosity.update" in names
    assert "curiosity.forward_model" in names
