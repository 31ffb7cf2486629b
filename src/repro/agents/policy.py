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
``collect_episodes`` steps a group of envs in lockstep through one such
forward per time slot, then scores curiosity once over every row's
trajectory instead of once per step and hands the episode to the
buffer as columns.  The PPO update keeps
:meth:`~repro.agents.networks.CNNActorCritic.forward` and its plain
minibatch GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
from .rollout import COLUMNS, RolloutBuffer

__all__ = ["PPOWorkerAgent", "GradientPack"]


def _stack_rows(rows: List[np.ndarray]) -> np.ndarray:
    """``rows`` on a new leading axis; a lone row (every step of a group
    of one) is a view instead of a copy."""
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


@dataclass
class GradientPack:
    """Gradients an employee ships to the chief after one minibatch.

    ``vector`` holds them all as one float64 vector laid out by
    :func:`repro.nn.unflatten_vector`: the policy parameters'
    (``agent.network.parameters()`` order), then the curiosity
    parameters' (``agent.curiosity.parameters()`` order, none for
    curiosity-free agents).  ``policy`` and ``curiosity`` are
    per-parameter views of it, so writing into one writes the other.
    """

    vector: np.ndarray
    policy: List[np.ndarray]
    curiosity: List[np.ndarray]
    stats: PPOStats

    @classmethod
    def from_vector(
        cls, vector: np.ndarray, params: Sequence, num_policy: int, stats: PPOStats
    ) -> "GradientPack":
        """The pack over ``vector``; ``params`` (parameters or shapes)
        lay it out, and the first ``num_policy`` of them are the policy's."""
        views = nn.unflatten_vector(vector, params)
        return cls(vector, views[:num_policy], views[num_policy:], stats)

    @property
    def policy_vector(self) -> np.ndarray:
        """The policy gradients: the leading part of :attr:`vector`."""
        return self.vector[: sum(grad.size for grad in self.policy)]

    @property
    def curiosity_vector(self) -> np.ndarray:
        """The curiosity gradients: the rest of :attr:`vector`."""
        return self.vector[sum(grad.size for grad in self.policy) :]


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
        # Lazily-built execution planners for the PPO update program, the
        # curiosity update program and the acting forward.  They hold
        # compiled closures over the live parameters, so they are rebuilt
        # (not pickled or copied) on the far side of a process boundary or
        # a deepcopy.
        self._planner: Optional[nn.Planner] = None
        self._curiosity_planner: Optional[nn.Planner] = None
        self._act_planner: Optional[nn.ForwardPlanner] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_planner"] = None
        state["_curiosity_planner"] = None
        state["_act_planner"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._planner = None
        self._curiosity_planner = None
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
        moves, charges, log_prob, value = self._act_rows(
            self._acting_planner(1),
            state[None],
            move_mask[None],
            worker_features[None],
            [None if greedy else rng],
        )
        return (
            Action(charge=charges[0], move=moves[0]),
            float(log_prob[0]),
            float(value[0]),
            move_mask,
            worker_features,
        )

    def _acting_planner(self, rows: int) -> nn.ForwardPlanner:
        """The lazily built plan cache of ``forward_rows``, sized for
        ``rows``: a lockstep group of E rows replays one plan per
        live-row count, so the cache must hold at least E of them."""
        if self._act_planner is None:
            self._act_planner = nn.ForwardPlanner(self.network.forward_rows, name="act")
        self._act_planner.max_plans = max(self._act_planner.max_plans, rows)
        return self._act_planner

    @staticmethod
    def _act_rows(
        planner: nn.ForwardPlanner,
        states: np.ndarray,
        move_masks: np.ndarray,
        worker_features: np.ndarray,
        rngs: Sequence[Optional[np.random.Generator]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One planned forward and one action selection over (B, …) rows.

        Returns ``(moves, charges, log_probs, values)``; row ``i`` draws
        from ``rngs[i]`` (``None`` picks its greedy action).
        """
        with nn.no_grad():
            outputs = planner.step(row_inputs(states, move_masks, worker_features))
        moves, charges, log_prob = select_actions(PolicyOutput.from_arrays(outputs), rngs)
        return moves, charges, log_prob, outputs["value"]

    # ------------------------------------------------------------------
    # Exploration phase (Algorithm 1, lines 4-15)
    # ------------------------------------------------------------------
    def collect_episode(
        self,
        env: CrowdsensingEnv,
        rng: np.random.Generator,
        record_trajectory: bool = False,
    ) -> Tuple[RolloutBuffer, EpisodeResult]:
        """Roll one episode with the stochastic policy: a group of one
        (see :meth:`collect_episodes`)."""
        return self.collect_episodes([env], [rng], record_trajectory)[0]

    def collect_episodes(
        self,
        envs: Sequence[CrowdsensingEnv],
        rngs: Sequence[np.random.Generator],
        record_trajectory: bool = False,
    ) -> List[Tuple[RolloutBuffer, EpisodeResult]]:
        """Roll one episode per env in lockstep; one (buffer, result) each.

        Every time slot stacks the rows still running into one planned
        ``forward_rows`` replay and one ``select_actions`` call (row
        ``i`` draws from ``rngs[i]``), then steps each env with its own
        row.  A row leaves the group when its env reports done.  Both
        calls are row-invariant, so each row's bits are those of a
        rollout of its own: E employees with equal parameters may share
        one agent.

        Each stored reward is ``r_t = r_t^ext + r_t^int`` (Eqn. 10).  The
        intrinsic part of every step of every row comes from **one**
        curiosity call after the last step.  That is Algorithm 1
        unchanged: the policy never reads ``r_t^int`` while acting, and
        the forward model's parameters only move in the update phase.
        The call is bitwise-equal to one call per step because
        ``intrinsic_reward`` is row-invariant (see
        :class:`~repro.curiosity.base.CuriosityModule`), and the rewards
        and running totals are then formed per env in step order, so
        every stored float is the one a per-step loop would store.

        The episode is kept as columns, not per-step objects: each step
        appends one tuple of its fields, each column is stacked once for
        the whole group after the last step, and every env's buffer
        receives its rows of those columns through
        :meth:`~repro.agents.rollout.RolloutBuffer.extend`.  The same
        columns feed the one curiosity call.
        """
        if len(envs) != len(rngs):
            raise ValueError(f"got {len(rngs)} generators for {len(envs)} envs")
        planner = self._acting_planner(len(envs))
        states = []
        for env in envs:
            with trace_span("env.reset"):
                states.append(env.reset())
        trajectories = [
            [env.workers.positions.copy()] if record_trajectory else None
            for env in envs
        ]
        # One tuple of COLUMNS-ordered fields per step and env; each column
        # is stacked once, over the whole group, after the last step.
        steps: List[List[tuple]] = [[] for __ in envs]
        live = list(range(len(envs)))
        slot = 0
        while live:
            move_masks = [envs[i].valid_moves() for i in live]
            features = [self.worker_features_of(envs[i]) for i in live]
            with trace_span("policy.act", step=slot, rows=len(live)):
                moves, charges, log_probs, values = self._act_rows(
                    planner,
                    _stack_rows([states[i] for i in live]),
                    _stack_rows(move_masks),
                    _stack_rows(features),
                    [rngs[i] for i in live],
                )
            running = []
            for row, i in enumerate(live):
                env = envs[i]
                positions_before = env.workers.positions.copy()
                action = Action(charge=charges[row], move=moves[row])
                with trace_span("env.step", step=slot):
                    next_state, extrinsic, done, info = env.step(action)
                # ``rewards`` holds r^ext until r^int is known.
                steps[i].append(
                    (
                        states[i],
                        move_masks[row],
                        action.move,
                        action.charge,
                        log_probs[row],
                        values[row],
                        positions_before,
                        info["positions"],
                        next_state,
                        features[row],
                        extrinsic,
                        done,
                    )
                )
                states[i] = next_state
                if trajectories[i] is not None:
                    trajectories[i].append(info["positions"].copy())
                if not done:
                    running.append(i)
            live = running
            slot += 1

        flat = [step for episode in steps for step in episode]
        columns = {name: np.stack(rows) for name, rows in zip(COLUMNS, zip(*flat))}
        extrinsic_rewards = columns["rewards"]
        transitions = TransitionBatch(
            positions=columns["positions"],
            next_positions=columns["next_positions"],
            moves=columns["moves"],
            states=columns["states"] if self._needs_states else None,
            next_states=columns["next_states"] if self._needs_states else None,
        )
        with trace_span("curiosity.intrinsic", steps=len(flat), rows=len(envs)):
            intrinsic_rewards = self.curiosity.intrinsic_reward(transitions)
        columns["rewards"] = extrinsic_rewards + intrinsic_rewards
        episodes = []
        offset = 0
        for env, episode, trajectory in zip(envs, steps, trajectories):
            rows = slice(offset, offset + len(episode))
            offset += len(episode)
            buffer = RolloutBuffer(gamma=self.ppo.gamma, gae_lambda=self.ppo.gae_lambda)
            buffer.extend({name: column[rows] for name, column in columns.items()})
            buffer.finalize(bootstrap_value=0.0)
            # Sequential float sums in step order, as a per-step loop forms them.
            extrinsic_total = 0.0
            for reward in extrinsic_rewards[rows].tolist():
                extrinsic_total += reward
            intrinsic_total = 0.0
            for bonus in intrinsic_rewards[rows].tolist():
                intrinsic_total += bonus
            result = EpisodeResult(
                metrics=env.metrics(),
                extrinsic_reward=extrinsic_total,
                intrinsic_reward=intrinsic_total,
                steps=len(episode),
                trajectory=trajectory,
            )
            episodes.append((buffer, result))
        return episodes

    # ------------------------------------------------------------------
    # Exploitation phase (Algorithm 1, lines 16-23)
    # ------------------------------------------------------------------
    def compute_gradients(self, batch) -> GradientPack:
        """Compute PPO and curiosity gradients for one minibatch.

        The agent's parameters are *not* updated — gradients are returned
        for the chief (or a local optimizer) to apply, as one vector (see
        :class:`GradientPack`).
        """
        policy_params = self.network.parameters()
        curiosity_params = self.curiosity.parameters()
        cut = sum(param.size for param in policy_params)
        vector = np.empty(cut + sum(param.size for param in curiosity_params))
        for param in policy_params:
            param.grad = None
        if self._planner is None:
            self._planner = make_ppo_planner(self.network, self.ppo)
        with trace_span("ppo.update"):
            stats = ppo_step(self.network, batch, self.ppo, planner=self._planner)
        nn.flatten_gradients(policy_params, out=vector[:cut])

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
            if self._curiosity_planner is None:
                self._curiosity_planner = nn.Planner(
                    self.curiosity.loss_program, loss="loss", name="curiosity"
                )
            with trace_span("curiosity.update"):
                self._curiosity_planner.step(self.curiosity.loss_inputs(curiosity_batch))
            nn.flatten_gradients(curiosity_params, out=vector[cut:])
        return GradientPack.from_vector(
            vector, policy_params + curiosity_params, len(policy_params), stats
        )

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
