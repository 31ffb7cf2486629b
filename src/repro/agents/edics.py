"""Edics baseline — multi-agent DRL crowdsensing (Liu et al., JSAC 2019).

Section VII-B: "We implement it by using W agents, each of which makes
task assignment decision for one worker", trained on the dense reward of
Eqn. (20).  Each per-worker agent owns a CNN actor-critic whose input is
the global 3-channel state plus a fourth *identity* channel marking that
worker's own position, so an agent can tell itself apart from its peers.
Every agent is updated with PPO on its own per-worker reward stream.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..env.actions import Action
from ..env.config import ScenarioConfig
from ..env.env import CrowdsensingEnv
from ..env.state import STATE_CHANNELS
from .base import EpisodeResult
from .networks import CNNActorCritic
from .policy import GradientPack
from .ppo import PPOConfig, PPOStats, ppo_loss
from .rollout import MiniBatch, RolloutBuffer, Transition

__all__ = ["EdicsAgent", "EdicsRollout"]


def _with_identity_channel(
    state: np.ndarray, position: np.ndarray, space, capacity_marker: float = 1.0
) -> np.ndarray:
    """Append a one-hot channel marking the deciding worker's own cell."""
    row, col = space.cell_of(position)
    identity = np.zeros((1,) + state.shape[1:])
    identity[0, row, col] = capacity_marker
    return np.concatenate([state, identity], axis=0)


class EdicsRollout:
    """W per-worker rollout buffers sampled with aligned indices."""

    def __init__(self, buffers: List[RolloutBuffer]):
        if not buffers:
            raise ValueError("EdicsRollout needs at least one buffer")
        self.buffers = buffers

    def __len__(self) -> int:
        return len(self.buffers[0])

    def minibatches(
        self, batch_size: int, rng: np.random.Generator, epochs: int = 1
    ) -> Iterator[List[MiniBatch]]:
        """Yield per-worker minibatch lists drawn with shared indices."""
        count = len(self)
        for __ in range(epochs):
            order = rng.permutation(count)
            for start in range(0, count, batch_size):
                indices = order[start : start + batch_size]
                yield [buffer._gather(indices) for buffer in self.buffers]

    def full_batch(self) -> List[MiniBatch]:
        """Every worker's whole trajectory, aligned by time index."""
        indices = np.arange(len(self))
        return [buffer._gather(indices) for buffer in self.buffers]


class EdicsAgent:
    """W independent single-worker PPO agents over identity-augmented states."""

    name = "Edics"
    #: reward mode the training environment should use for this agent
    reward_mode = "dense"

    def __init__(
        self,
        config: ScenarioConfig,
        ppo: Optional[PPOConfig] = None,
        seed: int = 0,
        feature_dim: int = 64,
    ):
        self.config = config
        self.ppo = ppo if ppo is not None else PPOConfig()
        self.networks = [
            CNNActorCritic(
                channels=STATE_CHANNELS + 1,
                grid=config.grid,
                num_workers=1,
                feature_dim=feature_dim,
                rng=np.random.default_rng(seed + w),
            )
            for w in range(config.num_workers)
        ]

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def _decide(
        self,
        env: CrowdsensingEnv,
        rng: np.random.Generator,
        greedy: bool,
    ) -> Tuple[Action, np.ndarray, np.ndarray, List[np.ndarray], np.ndarray]:
        """Per-worker forward passes; returns action plus PPO bookkeeping."""
        state = env._state()
        move_mask = env.valid_moves()
        moves = np.zeros(env.num_workers, dtype=np.int64)
        charges = np.zeros(env.num_workers, dtype=np.int64)
        log_probs = np.zeros(env.num_workers)
        values = np.zeros(env.num_workers)
        aug_states: List[np.ndarray] = []
        worker_features = np.concatenate(
            [
                env.workers.positions / env.config.size,
                (env.workers.energy / env.workers.capacity)[:, None],
            ],
            axis=1,
        )
        # Acting never backpropagates (the PPO update recomputes its own
        # forward passes), so elide the autograd tape for every per-worker
        # decision forward.
        with nn.no_grad():
            for w, network in enumerate(self.networks):
                aug = _with_identity_channel(state, env.workers.positions[w], env.space)
                aug_states.append(aug)
                output = network.forward(
                    aug,
                    move_mask=move_mask[None, w : w + 1],
                    worker_features=worker_features[None, w : w + 1],
                )
                move_dist = output.move_distribution()
                charge_dist = output.charge_distribution()
                if greedy:
                    move = move_dist.mode()[0, 0]
                    charge = charge_dist.mode()[0, 0]
                else:
                    move = move_dist.sample(rng)[0, 0]
                    charge = charge_dist.sample(rng)[0, 0]
                moves[w] = move
                charges[w] = charge
                log_probs[w] = float(
                    output.log_prob(np.array([[move]]), np.array([[charge]])).item()
                )
                values[w] = float(output.value.item())
        action = Action(charge=charges, move=moves)
        return action, log_probs, values, aug_states, move_mask, worker_features

    def act(
        self, env: CrowdsensingEnv, rng: np.random.Generator, greedy: bool = False
    ) -> Action:
        """Choose every worker's action via its own network."""
        action, __, __, __, __, __ = self._decide(env, rng, greedy)
        return action

    # ------------------------------------------------------------------
    # Rollout collection (per-worker buffers, per-worker dense rewards)
    # ------------------------------------------------------------------
    def collect_episode(
        self, env: CrowdsensingEnv, rng: np.random.Generator
    ) -> Tuple[EdicsRollout, EpisodeResult]:
        """Roll one episode, filling one buffer per worker with its own
        dense reward stream."""
        buffers = [
            RolloutBuffer(gamma=self.ppo.gamma, gae_lambda=self.ppo.gae_lambda)
            for __ in range(env.num_workers)
        ]
        env.reset()
        extrinsic_total = 0.0
        done = False
        steps = 0
        while not done:
            positions_before = env.workers.positions.copy()
            action, log_probs, values, aug_states, move_mask, worker_features = (
                self._decide(env, rng, greedy=False)
            )
            next_state, reward, done, info = env.step(action)
            per_worker = info["reward_per_worker"]
            extrinsic_total += reward
            next_positions = info["positions"]
            for w in range(env.num_workers):
                aug_next = _with_identity_channel(
                    next_state, next_positions[w], env.space
                )
                buffers[w].add(
                    Transition(
                        state=aug_states[w],
                        move_mask=move_mask[w : w + 1],
                        moves=action.move[w : w + 1],
                        charges=action.charge[w : w + 1],
                        log_prob=float(log_probs[w]),
                        value=float(values[w]),
                        reward=float(per_worker[w]),
                        done=done,
                        positions=positions_before[w : w + 1],
                        next_positions=next_positions[w : w + 1].copy(),
                        next_state=aug_next,
                        worker_features=worker_features[w : w + 1],
                    )
                )
            steps += 1
        for buffer in buffers:
            buffer.finalize(bootstrap_value=0.0)
        result = EpisodeResult(
            metrics=env.metrics(), extrinsic_reward=extrinsic_total, steps=steps
        )
        return EdicsRollout(buffers), result

    def collect_episodes(
        self,
        envs: Sequence[CrowdsensingEnv],
        rngs: Sequence[np.random.Generator],
    ) -> List[Tuple[EdicsRollout, EpisodeResult]]:
        """One :meth:`collect_episode` per env, in order (the trainer's
        group protocol; Edics acts through W separate networks, so it has
        no stacked forward to share)."""
        return [self.collect_episode(env, rng) for env, rng in zip(envs, rngs)]

    # ------------------------------------------------------------------
    # Gradients (uniform protocol with PPOWorkerAgent)
    # ------------------------------------------------------------------
    def policy_parameters(self) -> List[nn.Parameter]:
        """All W networks' parameters, concatenated in worker order."""
        params: List[nn.Parameter] = []
        for network in self.networks:
            params.extend(network.parameters())
        return params

    def curiosity_parameters(self) -> List[nn.Parameter]:
        """Edics has no curiosity model (always empty)."""
        return []

    def compute_gradients(self, batches: List[MiniBatch]) -> GradientPack:
        """PPO gradients for all W agents; ``batches`` is one list per worker."""
        if len(batches) != len(self.networks):
            raise ValueError(
                f"got {len(batches)} worker batches for {len(self.networks)} networks"
            )
        stats_list: List[PPOStats] = []
        for network, batch in zip(self.networks, batches):
            for param in network.parameters():
                param.grad = None
            loss, stats = ppo_loss(network, batch, self.ppo)
            loss.backward()
            stats_list.append(stats)
        merged = PPOStats(
            policy_loss=float(np.mean([s.policy_loss for s in stats_list])),
            value_loss=float(np.mean([s.value_loss for s in stats_list])),
            entropy=float(np.mean([s.entropy for s in stats_list])),
            clip_fraction=float(np.mean([s.clip_fraction for s in stats_list])),
            approx_kl=float(np.mean([s.approx_kl for s in stats_list])),
        )
        params = self.policy_parameters()
        return GradientPack.from_vector(
            nn.flatten_gradients(params), params, len(params), merged
        )

    # ------------------------------------------------------------------
    # Standalone training
    # ------------------------------------------------------------------
    def train(
        self,
        env: CrowdsensingEnv,
        episodes: int,
        rng: Optional[np.random.Generator] = None,
        learning_rate: Optional[float] = None,
    ) -> List[EpisodeResult]:
        """Standalone (single-process) training loop over all W agents."""
        rng = rng if rng is not None else np.random.default_rng(0)
        lr = learning_rate if learning_rate is not None else self.ppo.learning_rate
        optimizer = nn.Adam(self.policy_parameters(), lr=lr)
        results = []
        for __ in range(episodes):
            rollout, result = self.collect_episode(env, rng)
            for batch_list in rollout.minibatches(
                self.ppo.batch_size, rng, epochs=self.ppo.epochs
            ):
                pack = self.compute_gradients(batch_list)
                params = self.policy_parameters()
                for param, grad in zip(params, pack.policy):
                    param.grad = grad
                nn.clip_grad_norm(params, self.ppo.max_grad_norm)
                optimizer.step()
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def copy_parameters_from(self, other: "EdicsAgent") -> None:
        """In-place parameter copy from a same-shape Edics agent."""
        if len(self.networks) != len(other.networks):
            raise ValueError("worker counts differ")
        for mine, theirs in zip(self.networks, other.networks):
            mine.copy_from(theirs)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """All W networks' parameters, keyed ``worker<i>.<param>``."""
        state: Dict[str, np.ndarray] = {}
        for w, network in enumerate(self.networks):
            for key, value in network.state_dict().items():
                state[f"worker{w}.{key}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for w, network in enumerate(self.networks):
            prefix = f"worker{w}."
            network.load_state_dict(
                {
                    key[len(prefix):]: value
                    for key, value in state.items()
                    if key.startswith(prefix)
                }
            )
