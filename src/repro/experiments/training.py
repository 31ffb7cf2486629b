"""Shared train-and-evaluate plumbing for the experiment runners.

Every table/figure needs the same recipe: build a scenario at the chosen
scale, train the learned methods with the chief–employee architecture,
evaluate everything with the testing process of Section VI-D, and report
κ / ξ / ρ.  This module centralizes that recipe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..agents import DnCAgent, GreedyAgent, PPOConfig, RandomAgent, run_episode
from ..distributed import (
    CheckpointManager,
    ChiefEmployeeTrainer,
    TrainConfig,
    TrainingHistory,
    build_trainer,
)
from ..env.config import ScenarioConfig
from ..env.env import CrowdsensingEnv
from .scales import Scale

__all__ = [
    "LEARNED_METHODS",
    "SCRIPTED_METHODS",
    "ALL_METHODS",
    "method_display_name",
    "make_ppo_config",
    "make_train_config",
    "train_method",
    "resume_or_start",
    "evaluate_agent",
    "evaluate_method",
    "evaluate_scripted",
]

LEARNED_METHODS = ("cews", "dppo", "edics")
SCRIPTED_METHODS = ("dnc", "greedy", "random")
ALL_METHODS = LEARNED_METHODS + SCRIPTED_METHODS[:2]

_DISPLAY = {
    "cews": "DRL-CEWS",
    "dppo": "DPPO",
    "edics": "Edics",
    "dnc": "D&C",
    "greedy": "Greedy",
    "random": "Random",
}


def method_display_name(method: str) -> str:
    """Paper-style display name for a method id (e.g. cews -> DRL-CEWS)."""
    return _DISPLAY.get(method, method)


def make_ppo_config(scale: Scale, batch_size: Optional[int] = None) -> PPOConfig:
    # The curiosity model trains 5x faster than the policy so its novelty
    # bonus decays within the scale's episode budget (see PPOConfig docs).
    return PPOConfig(
        batch_size=batch_size if batch_size is not None else scale.batch_size,
        epochs=1,
        learning_rate=scale.learning_rate,
        curiosity_learning_rate=5 * scale.learning_rate,
    )


def make_train_config(
    scale: Scale,
    num_employees: Optional[int] = None,
    episodes: Optional[int] = None,
    seed: int = 0,
    backend: str = "serial",
) -> TrainConfig:
    return TrainConfig(
        num_employees=num_employees if num_employees is not None else scale.num_employees,
        episodes=episodes if episodes is not None else scale.episodes,
        k_updates=scale.k_updates,
        backend=backend,
        seed=seed,
    )


def train_method(
    method: str,
    config: ScenarioConfig,
    scale: Scale,
    seed: int = 0,
    episodes: Optional[int] = None,
    num_employees: Optional[int] = None,
    batch_size: Optional[int] = None,
    backend: str = "serial",
    **agent_kwargs,
) -> Tuple[object, TrainingHistory]:
    """Train one learned method; returns (trained global agent, history)."""
    trainer = build_trainer(
        method,
        config,
        train=make_train_config(
            scale,
            num_employees=num_employees,
            episodes=episodes,
            seed=seed,
            backend=backend,
        ),
        ppo=make_ppo_config(scale, batch_size=batch_size),
        seed=seed,
        **agent_kwargs,
    )
    try:
        history = trainer.train()
    finally:
        trainer.close()
    return trainer.global_agent, history


def resume_or_start(
    trainer: ChiefEmployeeTrainer,
    checkpoint_dir,
    episodes: int,
    save_every: int = 1,
    keep_last: int = 3,
    fault_injector=None,
    on_episode_end=None,
) -> TrainingHistory:
    """Train ``trainer`` to ``episodes`` total with crash-safe auto-recovery.

    On entry the newest *valid* rolling checkpoint under ``checkpoint_dir``
    (if any) is restored — agent parameters, optimizer moments, RNG states
    and the global episode counter — so a process killed mid-run resumes
    bitwise-identically to an uninterrupted one.  During training a
    checkpoint is written every ``save_every`` episodes (atomic write,
    ``keep_last`` rolling archives, ``latest`` pointer).

    Returns the history of the episodes run by *this* call (empty when the
    checkpoint already covers ``episodes``).  ``fault_injector`` threads
    checkpoint-interrupt faults into the writer (tests only).
    ``on_episode_end(trainer, episode)`` is invoked after each episode's
    checkpoint bookkeeping (e.g. the CLI's ASCII dashboard).
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    if save_every < 1:
        raise ValueError(f"save_every must be >= 1, got {save_every}")
    manager = CheckpointManager(
        checkpoint_dir, keep_last=keep_last, fault_injector=fault_injector
    )
    manager.restore_latest(trainer)
    remaining = episodes - trainer.episodes_completed
    if remaining <= 0:
        return TrainingHistory()

    def checkpoint_callback(t: ChiefEmployeeTrainer, episode: int) -> None:
        if (episode + 1) % save_every == 0 or episode + 1 == episodes:
            manager.save(t, episode + 1)
        if on_episode_end is not None:
            on_episode_end(t, episode)

    return trainer.train(remaining, on_episode_end=checkpoint_callback)


def evaluate_agent(
    agent,
    config: ScenarioConfig,
    scale: Scale,
    seed: int = 0,
    reward_mode: str = "dense",
) -> Dict[str, float]:
    """Mean κ / ξ / ρ over ``scale.eval_episodes`` stochastic rollouts.

    Stochastic (sampled) rollouts match the paper's testing process of
    drawing actions from the trained policy distribution; scripted agents
    are deterministic anyway (their rng only breaks ties).
    """
    env = CrowdsensingEnv(config, reward_mode=reward_mode)
    rng = np.random.default_rng(seed + 77)
    snapshots = [
        run_episode(agent, env, rng, greedy=False).metrics
        for __ in range(scale.eval_episodes)
    ]
    return {
        "kappa": float(np.mean([m.kappa for m in snapshots])),
        "xi": float(np.mean([m.xi for m in snapshots])),
        "rho": float(np.mean([m.rho for m in snapshots])),
    }


def evaluate_method(
    method: str,
    config: ScenarioConfig,
    scale: Scale,
    seed: int = 0,
    **train_kwargs,
) -> Dict[str, float]:
    """Train (if learned) and evaluate one method on one scenario."""
    if method in SCRIPTED_METHODS:
        return evaluate_scripted(method, config, scale, seed=seed)
    if method not in LEARNED_METHODS:
        raise ValueError(f"unknown method {method!r}")
    agent, __ = train_method(method, config, scale, seed=seed, **train_kwargs)
    return evaluate_agent(
        agent, config, scale, seed=seed, reward_mode=getattr(agent, "reward_mode", "dense")
    )


def evaluate_scripted(
    method: str, config: ScenarioConfig, scale: Scale, seed: int = 0
) -> Dict[str, float]:
    """Evaluate a scripted baseline (greedy / dnc / random)."""
    agents = {
        "greedy": GreedyAgent,
        "dnc": DnCAgent,
        "random": RandomAgent,
    }
    if method not in agents:
        raise ValueError(f"unknown scripted method {method!r}")
    return evaluate_agent(agents[method](), config, scale, seed=seed)
