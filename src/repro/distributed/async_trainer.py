"""Asynchronous actor-learner training — the alternative the paper rejects.

Section V-A: "Although asynchronous setting can be more efficient than the
synchronous one, the decoupling between data sampling and policy learning
will result in a *policy-lag* between chief and employees, which will
further make the learning process unstable.  Espeholt et al. proposed a
novel off-policy correction method called V-trace ...  However ... we
simply adopt a synchronous structure."

This module implements that rejected alternative so the trade-off can be
measured: an IMPALA-style actor-learner where

* **actors** (employees) roll episodes with *stale* local parameters —
  they re-sync from the learner only every ``sync_every`` episodes, which
  is exactly the policy-lag knob;
* the **learner** (chief) consumes each trajectory as it arrives and
  applies one update immediately — no barrier, no gradient summing;
* the learner's loss is the actor-critic objective with either **no
  off-policy correction** (``correction="none"``, the naive A3C-ish
  setup whose instability the paper warns about) or **V-trace**
  (``correction="vtrace"``).

The update is sequential-deterministic (single process): "asynchrony" here
*is* the policy lag, which is the semantics that matters; thread carriers
add nondeterminism but no new behaviour.

Like the synchronous trainer, the learner **quarantines** poisoned
updates: if any policy or curiosity gradient turns non-finite after the
backward pass (or a :class:`~repro.distributed.faults.FaultInjector`
corrupts it), the optimizer step is skipped, the rejection is tallied in
:attr:`AsyncActorLearner.health`, and training continues on the next
trajectory instead of diverging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .. import nn
from ..agents.base import EpisodeResult
from ..agents.rollout import MiniBatch
from ..env.env import CrowdsensingEnv
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import event as trace_event
from ..obs.trace import span as trace_span
from .faults import FaultInjector
from .trainer import TrainerHealth
from .vtrace import vtrace_targets

_LOG = get_logger(__name__)

__all__ = ["AsyncConfig", "AsyncLog", "AsyncHistory", "AsyncActorLearner"]

CORRECTIONS = ("none", "vtrace")


def _grads_finite(params) -> bool:
    """True iff every present gradient is fully finite."""
    for param in params:
        if param.grad is not None and not np.all(np.isfinite(param.grad)):
            return False
    return True


@dataclass(frozen=True)
class AsyncConfig:
    """Knobs of the asynchronous loop.

    Attributes
    ----------
    num_actors:
        Number of actor replicas with independently lagging parameters.
    episodes:
        Total episodes consumed by the learner (actors contribute
        round-robin).
    sync_every:
        An actor copies the learner's parameters every this many of *its
        own* episodes.  1 = always fresh (minimal lag); larger values
        increase policy-lag.
    correction:
        ``"vtrace"`` or ``"none"``.
    clip_rho, clip_c:
        V-trace truncation levels.
    value_coef, entropy_coef:
        Loss weights of the learner's actor-critic objective.
    seed:
        Master seed.
    """

    num_actors: int = 4
    episodes: int = 100
    sync_every: int = 4
    correction: str = "vtrace"
    clip_rho: float = 1.0
    clip_c: float = 1.0
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_actors < 1:
            raise ValueError(f"need at least one actor, got {self.num_actors}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if self.sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {self.sync_every}")
        if self.correction not in CORRECTIONS:
            raise ValueError(
                f"correction must be one of {CORRECTIONS}, got {self.correction!r}"
            )


@dataclass
class AsyncLog:
    """One learner update's record."""

    episode: int
    actor: int
    lag: int
    extrinsic_reward: float
    kappa: float
    rho: float
    rho_mean: float
    value_loss: float
    policy_loss: float
    rejected: bool = False
    """True when this update's gradients were quarantined (step skipped)."""


@dataclass
class AsyncHistory:
    logs: List[AsyncLog] = field(default_factory=list)

    def curve(self, key: str) -> List[float]:
        """Per-update series of one scalar field."""
        return [getattr(log, key) for log in self.logs]


class AsyncActorLearner:
    """IMPALA-style asynchronous trainer over PPOWorkerAgent-like agents.

    Parameters
    ----------
    learner_agent:
        The global agent; its network is the learner's model.
    actor_factory:
        ``f(actor_index) -> agent`` building structurally identical actors.
    env_factory:
        ``f(actor_index) -> CrowdsensingEnv``.
    config:
        Loop configuration.
    fault_injector:
        Optional :class:`~repro.distributed.faults.FaultInjector`; its
        corruption events (keyed by actor index / episode, round 0) poison
        the learner's gradients so the quarantine path is testable.
    """

    def __init__(
        self,
        learner_agent,
        actor_factory: Callable[[int], object],
        env_factory: Callable[[int], CrowdsensingEnv],
        config: Optional[AsyncConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.config = config if config is not None else AsyncConfig()
        self.learner = learner_agent
        self.fault_injector = fault_injector
        self.health = TrainerHealth()
        master = np.random.SeedSequence(self.config.seed)
        seeds = master.spawn(self.config.num_actors)
        self.actors = [actor_factory(i) for i in range(self.config.num_actors)]
        self.envs = [env_factory(i) for i in range(self.config.num_actors)]
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self._episodes_per_actor = [0] * self.config.num_actors
        self._updates_at_sync = [0] * self.config.num_actors
        self._update_count = 0
        self.optimizer = nn.Adam(
            self.learner.policy_parameters(), lr=self.learner.ppo.learning_rate
        )
        curiosity_params = self.learner.curiosity_parameters()
        self.curiosity_optimizer = (
            nn.Adam(curiosity_params, lr=self.learner.ppo.effective_curiosity_lr)
            if curiosity_params
            else None
        )
        for actor in self.actors:
            actor.copy_parameters_from(self.learner)

    # ------------------------------------------------------------------
    def train(self, episodes: Optional[int] = None) -> AsyncHistory:
        """Run the asynchronous loop; returns per-update history."""
        episodes = episodes if episodes is not None else self.config.episodes
        config = self.config
        history = AsyncHistory()

        for episode in range(episodes):
            actor_index = episode % config.num_actors
            actor = self.actors[actor_index]
            env = self.envs[actor_index]
            rng = self.rngs[actor_index]

            # Actor re-syncs on its own schedule (policy lag in between).
            if self._episodes_per_actor[actor_index] % config.sync_every == 0:
                actor.copy_parameters_from(self.learner)
                self._updates_at_sync[actor_index] = self._update_count
            self._episodes_per_actor[actor_index] += 1
            lag = self._update_count - self._updates_at_sync[actor_index]

            with trace_span(
                "actor.rollout", actor=actor_index, episode=episode, lag=lag
            ):
                buffer, result = actor.collect_episode(env, rng)
            batch = buffer.full_batch()  # ordered trajectory
            rewards = buffer.rewards
            dones = buffer.dones

            # Learner-side forward pass with *current* parameters.
            with trace_span("learner.forward", actor=actor_index, episode=episode):
                output = self.learner.network.forward(
                    batch.states,
                    move_mask=batch.move_masks,
                    worker_features=batch.worker_features,
                )
                target_log_probs = output.log_prob(batch.moves, batch.charges)
                values = output.value

            if config.correction == "vtrace":
                trace = vtrace_targets(
                    behaviour_log_probs=batch.log_probs,
                    target_log_probs=target_log_probs.data,
                    rewards=rewards,
                    values=values.data,
                    dones=dones,
                    gamma=self.learner.ppo.gamma,
                    clip_rho=config.clip_rho,
                    clip_c=config.clip_c,
                )
                advantages = trace.advantages
                value_targets = trace.vs
                rho_mean = float(trace.rhos.mean())
            else:
                # Naive uncorrected actor-critic: pretend the trajectory is
                # on-policy (this is the policy-lag failure mode).
                from ..agents.rollout import discounted_returns

                value_targets = discounted_returns(
                    rewards, dones, self.learner.ppo.gamma, 0.0
                )
                advantages = value_targets - values.data
                rho_mean = 1.0

            policy_loss = -(target_log_probs * nn.Tensor(advantages)).mean()
            value_error = values - nn.Tensor(value_targets)
            value_loss = (value_error * value_error).mean()
            entropy = output.entropy().mean()
            loss = (
                policy_loss
                + config.value_coef * value_loss
                - config.entropy_coef * entropy
            )

            params = self.learner.policy_parameters()
            for param in params:
                param.grad = None
            with trace_span("learner.update", actor=actor_index, episode=episode):
                loss.backward()
            if self.fault_injector is not None:
                self.fault_injector.corrupt_arrays(
                    actor_index,
                    episode,
                    0,
                    [p.grad for p in params if p.grad is not None],
                    "policy",
                )
            rejected = not _grads_finite(params)
            if rejected:
                # Quarantine: a poisoned step would corrupt the Adam
                # moments of every parameter it touches.  Skip it.
                self.health.employee(actor_index).rejected_policy_gradients += 1
                get_registry().counter(
                    "repro_gradients_rejected_total",
                    "Gradient contributions quarantined by the chief",
                    labelnames=("kind", "employee"),
                ).labels(kind="policy", employee=actor_index).inc()
                trace_event(
                    "fault.quarantine",
                    employee=actor_index,
                    episode=episode,
                    round=0,
                    kind="policy",
                )
                _LOG.warning(
                    "quarantined policy gradient from actor %d (episode %d)",
                    actor_index,
                    episode,
                )
                for param in params:
                    param.grad = None
            else:
                nn.clip_grad_norm(params, self.learner.ppo.max_grad_norm)
                self.optimizer.step()
                self._update_count += 1

            # The curiosity model (if any) trains on the same trajectory.
            if self.curiosity_optimizer is not None:
                from ..curiosity.base import TransitionBatch

                curiosity_batch = TransitionBatch(
                    positions=batch.positions,
                    next_positions=batch.next_positions,
                    moves=batch.moves,
                    states=batch.states,
                    next_states=batch.next_states,
                )
                curiosity_params = self.learner.curiosity_parameters()
                for param in curiosity_params:
                    param.grad = None
                self.learner.curiosity.loss(curiosity_batch).backward()
                if self.fault_injector is not None:
                    self.fault_injector.corrupt_arrays(
                        actor_index,
                        episode,
                        0,
                        [p.grad for p in curiosity_params if p.grad is not None],
                        "curiosity",
                    )
                if _grads_finite(curiosity_params):
                    self.curiosity_optimizer.step()
                else:
                    self.health.employee(
                        actor_index
                    ).rejected_curiosity_gradients += 1
                    get_registry().counter(
                        "repro_gradients_rejected_total",
                        "Gradient contributions quarantined by the chief",
                        labelnames=("kind", "employee"),
                    ).labels(kind="curiosity", employee=actor_index).inc()
                    trace_event(
                        "fault.quarantine",
                        employee=actor_index,
                        episode=episode,
                        round=0,
                        kind="curiosity",
                    )
                    _LOG.warning(
                        "quarantined curiosity gradient from actor %d (episode %d)",
                        actor_index,
                        episode,
                    )
                    for param in curiosity_params:
                        param.grad = None

            history.logs.append(
                AsyncLog(
                    episode=episode,
                    actor=actor_index,
                    lag=lag,
                    extrinsic_reward=result.extrinsic_reward,
                    kappa=result.metrics.kappa,
                    rho=result.metrics.rho,
                    rho_mean=rho_mean,
                    value_loss=float(value_loss.item()),
                    policy_loss=float(policy_loss.item()),
                    rejected=rejected,
                )
            )
        return history
