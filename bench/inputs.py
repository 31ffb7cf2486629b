"""Seeded inputs.  ``--seed`` drives everything generated here; the
program under test only ever sees the generated inputs (a scenario seed,
checkpoint files, request frames)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.distributed import build_agent, save_checkpoint
from repro.env.actions import Action
from repro.env.env import CrowdsensingEnv
from repro.experiments.training import make_ppo_config
from repro.serve.engine import load_network_state
from repro.serve.protocol import InferRequest
from train_driver import smoke_trainer

__all__ = [
    "ServeInputs",
    "make_serve_inputs",
    "random_action",
    "smoke_trainer",
    "zipf_indices",
]

#: Every ``VERIFY_EVERY``-th request is fully decoded and compared with
#: offline ``act_full(greedy=True)``.
VERIFY_EVERY = 16


def random_action(env: CrowdsensingEnv, rng: np.random.Generator) -> Action:
    """A random valid move per worker (argmax of masked uniform noise) and a
    random charging decision."""
    mask = env.valid_moves()
    return Action(
        charge=rng.integers(0, 2, size=len(mask)),
        move=np.argmax(rng.random(mask.shape) * mask, axis=1),
    )


@dataclass
class ServeInputs:
    """What the serving workloads send and what they must get back."""

    checkpoints: List[str]
    requests: List[InferRequest]
    #: ``expected[c][i]`` = offline greedy ``(moves, charges)`` of request
    #: ``i`` under checkpoint ``c``; present for the verified indices only.
    expected: List[Dict[int, Tuple[np.ndarray, np.ndarray]]]


def make_serve_inputs(
    seed: int, out_dir: Path, num_states: int, verify_every: int = VERIFY_EVERY
) -> ServeInputs:
    """Two checkpoints from the smoke trainer (after 1 and 2 episodes) and
    ``num_states`` *distinct* fleet states from seeded random-walk rollouts
    on the same scenario."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer, config, scale = smoke_trainer(seed)
    checkpoints = []
    try:
        for name in ("a", "b"):
            trainer.train(1)
            checkpoints.append(
                save_checkpoint(trainer, out_dir / f"ckpt-{seed}-{name}.npz")
            )
    finally:
        trainer.close()

    offline = []
    for path in checkpoints:
        agent = build_agent("cews", config, ppo=make_ppo_config(scale), seed=seed)
        agent.network.load_state_dict(load_network_state(path))
        offline.append(agent)

    env = CrowdsensingEnv(config)
    rng = np.random.default_rng(seed)
    unused = np.random.default_rng(0)  # greedy act_full draws nothing
    requests: List[InferRequest] = []
    expected: List[Dict[int, Tuple[np.ndarray, np.ndarray]]] = [{} for __ in offline]
    seen = set()
    while len(requests) < num_states:
        state, done = env.reset(), False
        while not done and len(requests) < num_states:
            mask = env.valid_moves()
            key = state.tobytes()
            if key not in seen:
                seen.add(key)
                index = len(requests)
                requests.append(
                    InferRequest(
                        state=np.ascontiguousarray(state, dtype=np.float64),
                        move_mask=np.ascontiguousarray(mask, dtype=bool),
                        worker_features=np.ascontiguousarray(
                            offline[0].worker_features_of(env), dtype=np.float64
                        ),
                    ).validate()
                )
                if index % verify_every == 0:
                    for table, agent in zip(expected, offline):
                        action = agent.act_full(env, unused, greedy=True, state=state)[0]
                        table[index] = (action.move.copy(), action.charge.copy())
            state, __, done, __ = env.step(random_action(env, rng))
    return ServeInputs(checkpoints=checkpoints, requests=requests, expected=expected)


def zipf_indices(rng: np.random.Generator, count: int, hot: int, exponent: float) -> np.ndarray:
    """``count`` draws from Zipf(``exponent``) truncated to ``hot`` ranks."""
    weights = 1.0 / np.arange(1, hot + 1) ** exponent
    return rng.choice(hot, size=count, p=weights / weights.sum())
