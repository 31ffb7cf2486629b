"""Shared fixtures for the serving tests.

Ground truth everywhere is offline
:meth:`~repro.agents.policy.PPOWorkerAgent.act_full` — the serving
contract is *bitwise* identity with it, so fixtures hand tests matched
(request, expected) pairs captured from a live environment rollout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np
import pytest

import repro
from repro.agents import PPOConfig
from repro.agents.policy import PPOWorkerAgent
from repro.distributed import TrainConfig, build_trainer, save_checkpoint
from repro.env import CrowdsensingEnv, smoke_config
from repro.serve import InferRequest


@pytest.fixture
def agent(tiny_config) -> PPOWorkerAgent:
    return PPOWorkerAgent(tiny_config, seed=5)


@pytest.fixture
def network_state(agent):
    return agent.network.state_dict()


def tiny_scenario():
    """The root ``tiny_config`` fixture's scenario, for fixtures of wider
    scope than a test function."""
    return smoke_config(seed=3, horizon=12, num_pois=12, num_workers=2)


@pytest.fixture(scope="session")
def checkpoint_file(tmp_path_factory) -> str:
    """A real ``save_checkpoint`` archive (untrained weights) for the CLI."""
    trainer = build_trainer(
        "cews",
        tiny_scenario(),
        train=TrainConfig(num_employees=1, episodes=1, k_updates=1, seed=0),
        ppo=PPOConfig(batch_size=8, epochs=1),
    )
    try:
        path = tmp_path_factory.mktemp("serve-ckpt") / "ckpt.npz"
        return str(save_checkpoint(trainer, path))
    finally:
        trainer.close()


@contextmanager
def serve_cli(checkpoint: str, *options: str):
    """``python -m repro serve`` on free ports; yields the process and its
    banner lines (read up to the last one the CLI prints before serving)."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--checkpoint", checkpoint,
         "--port", "0", "--http-port", "0", *options],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = []
        for line in process.stdout:
            banner.append(line)
            if "http://" in line:
                break
        assert banner and "http://" in banner[-1], (
            f"serve CLI exited during start-up (code {process.poll()}): {banner}"
        )
        yield process, banner
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)
        process.stdout.close()


class Expected:
    """Offline act_full output for one captured request."""

    def __init__(self, moves, charges, log_prob, value):
        self.moves = moves
        self.charges = charges
        self.log_prob = log_prob
        self.value = value


def request_of(env: CrowdsensingEnv, seed: Optional[int]) -> InferRequest:
    """The request a fleet in ``env``'s current state would send: greedy
    when ``seed`` is ``None``, seeded sampling otherwise."""
    return InferRequest(
        state=np.ascontiguousarray(env._state(), dtype=np.float64),
        move_mask=np.ascontiguousarray(env.valid_moves(), dtype=bool),
        worker_features=np.ascontiguousarray(
            PPOWorkerAgent.worker_features_of(env), dtype=np.float64
        ),
        greedy=seed is None,
        seed=seed,
    ).validate()


def capture_cases(
    env: CrowdsensingEnv,
    agent: PPOWorkerAgent,
    steps: int,
    seeds: Optional[List[Optional[int]]] = None,
) -> List[Tuple[InferRequest, Expected]]:
    """Roll ``env`` under the greedy policy, capturing one case per step.

    ``seeds[i]`` selects the sampling mode of case ``i``: ``None`` means
    greedy, an int means seeded sampling (the request carries the seed
    and the offline expectation uses a fresh ``default_rng(seed)``, the
    same construction the server mirrors).
    """
    seeds = seeds if seeds is not None else [None] * steps
    env.reset()
    cases: List[Tuple[InferRequest, Expected]] = []
    for seed in seeds[:steps]:
        state = env._state()
        greedy = seed is None
        rng = np.random.default_rng(0 if greedy else seed)
        action, log_prob, value, __, __ = agent.act_full(
            env, rng, greedy=greedy, state=state
        )
        request = request_of(env, seed)
        cases.append(
            (request, Expected(action.move, action.charge, log_prob, value))
        )
        # Advance along the *greedy* trajectory so every case sees a
        # distinct state regardless of its own sampling mode.
        greedy_action, __, __, __, __ = agent.act_full(
            env, np.random.default_rng(0), greedy=True, state=state
        )
        env.step(greedy_action)
    return cases


def assert_bitwise(result, expected) -> None:
    """Served result == offline act_full, bit for bit."""
    assert result.moves.dtype == expected.moves.dtype
    assert np.array_equal(result.moves, expected.moves)
    assert np.array_equal(result.charges, expected.charges)
    assert result.log_prob == expected.log_prob  # exact, not approx
    assert result.value == expected.value
