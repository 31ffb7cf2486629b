"""The learned PPO worker-scheduling agent.

:class:`PPOWorkerAgent` is the shared machinery behind DRL-CEWS and the
DPPO baseline: a :class:`~repro.agents.networks.CNNActorCritic` policy, an
optional curiosity module supplying intrinsic rewards, rollout collection
(the *exploration* phase of Algorithm 1) and gradient computation (the
*exploitation* phase).  The chief–employee trainer in
:mod:`repro.distributed` drives many of these agents in parallel; the
agent also supports standalone single-process training for tests and small
experiments.

The rollout is batch-native where that keeps every bit: ``act_full``
replays a forward-only execution plan of
:meth:`~repro.agents.networks.CNNActorCritic.forward_rows` — the same
row-invariant program the inference service runs over a batch — and
``collect_episode`` scores curiosity once per episode over the whole
trajectory instead of once per step.  The PPO update keeps
:meth:`~repro.agents.networks.CNNActorCritic.forward` and its plain
minibatch GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import nn
from ..curiosity.base import CuriosityModule, NullCuriosity, TransitionBatch
from ..env.actions import Action, NUM_MOVES
from ..env.config import ScenarioConfig
from ..env.env import CrowdsensingEnv
from ..env.state import STATE_CHANNELS
from ..obs.trace import span as trace_span
from .base import EpisodeResult
from .networks import CNNActorCritic, PolicyOutput, row_inputs, select_actions
from .ppo import PPOConfig, PPOStats, make_ppo_planner, ppo_loss, ppo_step
from .rollout import RolloutBuffer, Transition

__all__ = ["PPOWorkerAgent", "GradientPack"]


@dataclass
class GradientPack:
    """Gradients an employee ships to the chief after one minibatch.

    ``policy`` aligns with ``agent.network.parameters()`` order and
    ``curiosity`` with ``agent.curiosity.parameters()`` order (empty for
    curiosity-free agents).
    """

    policy: List[np.ndarray]
    curiosity: List[np.ndarray]
    stats: PPOStats


class PPOWorkerAgent:
    """PPO agent over the full crowdsensing state.

    Parameters
    ----------
    config:
        Scenario configuration (supplies state geometry and worker count).
    curiosity:
        Intrinsic reward module; :class:`NullCuriosity` disables curiosity.
    ppo:
        PPO hyperparameters.
    seed:
        Seeds the network initialization and the agent's private RNG.
    name:
        Display name used by the experiment harness.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        curiosity: Optional[CuriosityModule] = None,
        ppo: Optional[PPOConfig] = None,
        seed: int = 0,
        feature_dim: int = 128,
        layer_norm: bool = True,
        name: str = "ppo",
    ):
        self.config = config
        self.curiosity = curiosity if curiosity is not None else NullCuriosity()
        self.ppo = ppo if ppo is not None else PPOConfig()
        self.name = name
        self.network = CNNActorCritic(
            channels=STATE_CHANNELS,
            grid=config.grid,
            num_workers=config.num_workers,
            feature_dim=feature_dim,
            rng=np.random.default_rng(seed),
            layer_norm=layer_norm,
        )
        self._needs_states = not isinstance(self.curiosity, NullCuriosity)
        # Lazily-built execution planners for the PPO update program and
        # the acting forward.  They hold compiled closures over the live
        # network parameters, so they are rebuilt (not pickled or copied)
        # on the far side of a process boundary or a deepcopy.
        self._planner: Optional[nn.Planner] = None
        self._act_planner: Optional[nn.ForwardPlanner] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_planner"] = None
        state["_act_planner"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._planner = None
        self._act_planner = None

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def act(
        self, env: CrowdsensingEnv, rng: np.random.Generator, greedy: bool = False
    ) -> Action:
        """Choose a joint action (sampled, or argmax when ``greedy``)."""
        action, __, __, __, __ = self.act_full(env, rng, greedy=greedy)
        return action

    @staticmethod
    def worker_features_of(env: CrowdsensingEnv) -> np.ndarray:
        """(W, 3) per-worker features ``[x/L, y/L, b/b0]``."""
        return np.concatenate(
            [
                env.workers.positions / env.config.size,
                (env.workers.energy / env.workers.capacity)[:, None],
            ],
            axis=1,
        )

    def act_full(
        self,
        env: CrowdsensingEnv,
        rng: np.random.Generator,
        greedy: bool = False,
        state: Optional[np.ndarray] = None,
    ) -> Tuple[Action, float, float, np.ndarray, np.ndarray]:
        """Choose an action; returns (action, log_prob, value, move_mask,
        worker_features).

        ``state`` lets rollout loops pass the state matrix they already hold
        (from ``reset()``/``step()``) instead of re-encoding it — the encoder
        is deterministic, so the result is unchanged.  The forward is
        :meth:`~repro.agents.networks.CNNActorCritic.forward_rows` at
        ``B = 1`` — the program the inference service runs over a batch —
        replayed under :class:`repro.nn.no_grad` from a forward-only
        execution plan (acting never backpropagates; PPO recomputes the
        forward on minibatches during the update).
        """
        if state is None:
            state = env._state()
        move_mask = env.valid_moves()
        worker_features = self.worker_features_of(env)
        if self._act_planner is None:
            self._act_planner = nn.ForwardPlanner(self.network.forward_rows, name="act")
        with nn.no_grad():
            outputs = self._act_planner.step(
                row_inputs(state[None], move_mask[None], worker_features[None])
            )
            moves, charges, log_prob = select_actions(
                PolicyOutput.from_arrays(outputs), [None if greedy else rng]
            )
        value = float(outputs["value"][0])
        return (
            Action(charge=charges[0], move=moves[0]),
            float(log_prob[0]),
            value,
            move_mask,
            worker_features,
        )

    # ------------------------------------------------------------------
    # Exploration phase (Algorithm 1, lines 4-15)
    # ------------------------------------------------------------------
    def collect_episode(
        self,
        env: CrowdsensingEnv,
        rng: np.random.Generator,
        buffer: Optional[RolloutBuffer] = None,
        record_trajectory: bool = False,
    ) -> Tuple[RolloutBuffer, EpisodeResult]:
        """Roll one episode with the stochastic policy, filling ``buffer``.

        Each stored reward is ``r_t = r_t^ext + r_t^int`` (Eqn. 10).  The
        per-step loop only acts and steps the environment; the intrinsic
        part of every step comes from **one** curiosity call over the
        whole ``(T, …)`` trajectory after the last step.  That is
        Algorithm 1 unchanged: the policy never reads ``r_t^int`` while
        acting, and the forward model's parameters only move in the
        update phase.  The call is bitwise-equal to T single-step calls
        because ``intrinsic_reward`` is row-invariant (see
        :class:`~repro.curiosity.base.CuriosityModule`), and the rewards
        and running totals are then formed in step order, so every stored
        float is the one a per-step loop would store.
        """
        if buffer is None:
            buffer = RolloutBuffer(gamma=self.ppo.gamma, gae_lambda=self.ppo.gae_lambda)
        with trace_span("env.reset"):
            state = env.reset()
        trajectory = [env.workers.positions.copy()] if record_trajectory else None
        steps: List[dict] = []
        done = False
        while not done:
            positions_before = env.workers.positions.copy()
            with trace_span("policy.act", step=len(steps)):
                action, log_prob, value, move_mask, worker_features = self.act_full(
                    env, rng, greedy=False, state=state
                )
            with trace_span("env.step", step=len(steps)):
                next_state, extrinsic, done, info = env.step(action)
            # Transition fields; ``reward`` holds r^ext until r^int is known.
            steps.append(
                dict(
                    state=state,
                    move_mask=move_mask,
                    moves=action.move,
                    charges=action.charge,
                    log_prob=log_prob,
                    value=value,
                    reward=extrinsic,
                    done=done,
                    positions=positions_before,
                    next_positions=info["positions"].copy(),
                    next_state=next_state,
                    worker_features=worker_features,
                )
            )
            state = next_state
            if trajectory is not None:
                trajectory.append(info["positions"].copy())

        def column(name: str) -> np.ndarray:
            return np.stack([step[name] for step in steps])

        with trace_span("curiosity.intrinsic", steps=len(steps)):
            intrinsic = self.curiosity.intrinsic_reward(
                TransitionBatch(
                    positions=column("positions"),
                    next_positions=column("next_positions"),
                    moves=column("moves"),
                    states=column("state") if self._needs_states else None,
                    next_states=column("next_state") if self._needs_states else None,
                )
            )
        extrinsic_total = 0.0
        intrinsic_total = 0.0
        for step, bonus in zip(steps, intrinsic.tolist()):
            extrinsic_total += step["reward"]
            intrinsic_total += bonus
            step["reward"] = step["reward"] + bonus
            buffer.add(Transition(**step))

        buffer.finalize(bootstrap_value=0.0)
        result = EpisodeResult(
            metrics=env.metrics(),
            extrinsic_reward=extrinsic_total,
            intrinsic_reward=intrinsic_total,
            steps=len(steps),
            trajectory=trajectory,
        )
        return buffer, result

    # ------------------------------------------------------------------
    # Exploitation phase (Algorithm 1, lines 16-23)
    # ------------------------------------------------------------------
    def compute_gradients(self, batch) -> GradientPack:
        """Compute PPO and curiosity gradients for one minibatch.

        The agent's parameters are *not* updated — gradients are returned
        for the chief (or a local optimizer) to apply.
        """
        for param in self.network.parameters():
            param.grad = None
        if self._planner is None:
            self._planner = make_ppo_planner(self.network, self.ppo)
        with trace_span("ppo.update"):
            stats = ppo_step(self.network, batch, self.ppo, planner=self._planner)
        policy_grads = [
            np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in self.network.parameters()
        ]

        curiosity_grads: List[np.ndarray] = []
        curiosity_params = self.curiosity.parameters()
        if curiosity_params:
            for param in curiosity_params:
                param.grad = None
            curiosity_batch = TransitionBatch(
                positions=batch.positions,
                next_positions=batch.next_positions,
                moves=batch.moves,
                states=batch.states if self._needs_states else None,
                next_states=batch.next_states if self._needs_states else None,
            )
            with trace_span("curiosity.update"):
                self.curiosity.loss(curiosity_batch).backward()
            curiosity_grads = [
                np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in curiosity_params
            ]
        return GradientPack(policy=policy_grads, curiosity=curiosity_grads, stats=stats)

    # ------------------------------------------------------------------
    # Standalone (single-process) training
    # ------------------------------------------------------------------
    def train_episode(
        self,
        env: CrowdsensingEnv,
        rng: np.random.Generator,
        policy_optimizer: nn.Optimizer,
        curiosity_optimizer: Optional[nn.Optimizer] = None,
    ) -> EpisodeResult:
        """Collect one episode and run ``epochs`` PPO passes locally."""
        buffer, result = self.collect_episode(env, rng)
        for batch in buffer.minibatches(self.ppo.batch_size, rng, epochs=self.ppo.epochs):
            pack = self.compute_gradients(batch)
            nn_params = self.network.parameters()
            for param, grad in zip(nn_params, pack.policy):
                param.grad = grad
            nn.clip_grad_norm(nn_params, self.ppo.max_grad_norm)
            policy_optimizer.step()
            if curiosity_optimizer is not None and pack.curiosity:
                cur_params = self.curiosity.parameters()
                for param, grad in zip(cur_params, pack.curiosity):
                    param.grad = grad
                curiosity_optimizer.step()
        return result

    def train(
        self,
        env: CrowdsensingEnv,
        episodes: int,
        rng: Optional[np.random.Generator] = None,
        learning_rate: Optional[float] = None,
    ) -> List[EpisodeResult]:
        """Convenience standalone training loop; returns per-episode results."""
        rng = rng if rng is not None else np.random.default_rng(0)
        lr = learning_rate if learning_rate is not None else self.ppo.learning_rate
        policy_optimizer = nn.Adam(self.network.parameters(), lr=lr)
        curiosity_params = self.curiosity.parameters()
        curiosity_optimizer = (
            nn.Adam(curiosity_params, lr=self.ppo.effective_curiosity_lr)
            if curiosity_params
            else None
        )
        results = []
        for __ in range(episodes):
            results.append(
                self.train_episode(env, rng, policy_optimizer, curiosity_optimizer)
            )
        return results

    # ------------------------------------------------------------------
    # Parameter plumbing (employee <- chief synchronization)
    # ------------------------------------------------------------------
    def policy_parameters(self) -> List[nn.Parameter]:
        """Parameters updated through the PPO gradient buffer."""
        return self.network.parameters()

    def curiosity_parameters(self) -> List[nn.Parameter]:
        """Parameters updated through the curiosity gradient buffer."""
        return self.curiosity.parameters()

    def copy_parameters_from(self, other: "PPOWorkerAgent") -> None:
        """In-place copy of policy and curiosity parameters from ``other``."""
        self.network.copy_from(other.network)
        own_params = self.curiosity.parameters()
        other_params = other.curiosity.parameters()
        if len(own_params) != len(other_params):
            raise ValueError("curiosity modules are structurally different")
        for mine, theirs in zip(own_params, other_params):
            mine.data[...] = theirs.data

    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters (network + curiosity), keyed by dotted path."""
        state = {f"network.{k}": v for k, v in self.network.state_dict().items()}
        state.update(
            {f"curiosity.{k}": v for k, v in self.curiosity.state_dict().items()}
        )
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        self.network.load_state_dict(
            {
                key[len("network."):]: value
                for key, value in state.items()
                if key.startswith("network.")
            }
        )
        curiosity_state = {
            key[len("curiosity."):]: value
            for key, value in state.items()
            if key.startswith("curiosity.")
        }
        if curiosity_state or self.curiosity.parameters():
            self.curiosity.load_state_dict(curiosity_state)
