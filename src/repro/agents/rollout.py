"""Experience storage and return/advantage computation.

:class:`RolloutBuffer` is the replay buffer ``D`` of Algorithm 1: each
slot's ``[s_t, u_t, v_t, r_t]`` record plus what PPO needs later (old log
probabilities, values, validity masks) and what the curiosity model needs
(worker positions before/after the move), kept as one array per field
so a minibatch is one ``take`` per column.

Returns are the paper's ``G_t = r_t + γ r_{t+1} + ... + γ^{T-t} V(s_T)``
(Eqn. 11); advantages can be either ``G_t − V(s_t)`` (Monte-Carlo) or the
generalized advantage estimator (GAE), controlled by ``gae_lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

import numpy as np

__all__ = [
    "Transition",
    "MiniBatch",
    "RolloutBuffer",
    "COLUMNS",
    "discounted_returns",
    "gae_advantages",
]


#: width of the per-worker feature vector stored with each transition
WORKER_FEATURE_DIM = 3

#: the :class:`MiniBatch` fields a buffer stores one column each for
#: (``returns`` and ``advantages`` are computed by ``finalize``)
BATCH_COLUMNS = (
    "states",
    "move_masks",
    "moves",
    "charges",
    "log_probs",
    "values",
    "positions",
    "next_positions",
    "next_states",
    "worker_features",
)

#: every column of a :class:`RolloutBuffer`, in storage order
COLUMNS = BATCH_COLUMNS + ("rewards", "dones")


@dataclass(frozen=True)
class Transition:
    """One time slot's record.

    ``worker_features`` holds the per-worker ``[x/L, y/L, b/b0]`` vector
    fed to the policy heads; ``None`` stores zeros (CNN-only operation).
    """

    state: np.ndarray
    move_mask: np.ndarray
    moves: np.ndarray
    charges: np.ndarray
    log_prob: float
    value: float
    reward: float
    done: bool
    positions: np.ndarray
    next_positions: np.ndarray
    next_state: np.ndarray
    worker_features: Optional[np.ndarray] = None

    def worker_features_or_zeros(self) -> np.ndarray:
        """Stored features, or zeros for CNN-only transitions."""
        if self.worker_features is not None:
            return self.worker_features
        return np.zeros((len(self.moves), WORKER_FEATURE_DIM))


@dataclass(frozen=True)
class MiniBatch:
    """A sampled slice of the buffer, as dense arrays."""

    states: np.ndarray          # (B, C, G, G)
    move_masks: np.ndarray      # (B, W, M)
    moves: np.ndarray           # (B, W)
    charges: np.ndarray         # (B, W)
    log_probs: np.ndarray       # (B,)
    values: np.ndarray          # (B,)
    returns: np.ndarray         # (B,)
    advantages: np.ndarray      # (B,)
    positions: np.ndarray       # (B, W, 2)
    next_positions: np.ndarray  # (B, W, 2)
    next_states: np.ndarray     # (B, C, G, G)
    worker_features: np.ndarray  # (B, W, WORKER_FEATURE_DIM)

    def __len__(self) -> int:
        return len(self.states)


def discounted_returns(
    rewards: np.ndarray, dones: np.ndarray, gamma: float, bootstrap: float
) -> np.ndarray:
    """``G_t`` with a terminal bootstrap value (Eqn. 11's target)."""
    returns = np.zeros_like(rewards, dtype=np.float64)
    running = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            running = 0.0
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    bootstrap: float,
) -> np.ndarray:
    """Generalized advantage estimation (Schulman et al. 2016)."""
    advantages = np.zeros_like(rewards, dtype=np.float64)
    gae = 0.0
    next_value = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            next_value = 0.0
            gae = 0.0
        delta = rewards[t] + gamma * next_value - values[t]
        gae = delta + gamma * lam * gae
        advantages[t] = gae
        next_value = values[t]
    return advantages


class RolloutBuffer:
    """Replay buffer ``D`` of Algorithm 1, cleared each episode.

    The buffer is columnar: it stores one array per :class:`MiniBatch`
    row field plus the ``rewards`` and ``dones`` columns (:data:`COLUMNS`),
    and a minibatch is one ``take`` of the sampled rows from each column.
    A buffer is filled one of two ways:

    * :meth:`add` appends one :class:`Transition`'s fields to per-column
      row lists, which :meth:`finalize` stacks once per column;
    * :meth:`extend` hands an empty buffer whole columns — how
      :meth:`~repro.agents.policy.PPOWorkerAgent.collect_episodes` passes
      on an episode it has already stacked.

    A take copies the same values an ``np.stack`` of the picked rows
    would, so every sampled array is byte-equal to one stacked from
    :class:`Transition` objects.
    """

    def __init__(self, gamma: float = 0.99, gae_lambda: Optional[float] = 0.95):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if gae_lambda is not None and not 0.0 <= gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {gae_lambda}")
        self.gamma = gamma
        self.gae_lambda = gae_lambda
        self.clear()

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        """Drop all stored rows (start of a new episode)."""
        # ``add``'s row lists; None once ``extend`` filled the buffer.
        self._rows: Optional[Dict[str, list]] = {name: [] for name in COLUMNS}
        # The stacked rows, or ``extend``'s columns.
        self._columns: Optional[Dict[str, np.ndarray]] = None
        self._count = 0
        self._returns: Optional[np.ndarray] = None
        self._advantages: Optional[np.ndarray] = None

    def add(self, transition: Transition) -> None:
        """Append one transition (invalidates computed returns)."""
        if self._rows is None:
            raise RuntimeError("cannot add() to a buffer filled by extend()")
        fields = (
            transition.state,
            transition.move_mask,
            transition.moves,
            transition.charges,
            transition.log_prob,
            transition.value,
            transition.positions,
            transition.next_positions,
            transition.next_state,
            transition.worker_features_or_zeros(),
            transition.reward,
            transition.done,
        )
        for rows, value in zip(self._rows.values(), fields):
            rows.append(value)
        self._count += 1
        self._columns = None
        self._returns = None
        self._advantages = None

    def extend(self, columns: Mapping[str, np.ndarray]) -> None:
        """Fill an empty buffer with whole columns: one array per name in
        :data:`COLUMNS`, all with the same number of rows."""
        if self._count:
            raise RuntimeError("extend() needs an empty buffer; call clear() first")
        count = len(columns["rewards"])
        for name in COLUMNS:
            if len(columns[name]) != count:
                raise ValueError(
                    f"column {name!r} has {len(columns[name])} rows, expected {count}"
                )
        self._rows = None
        self._columns = {name: columns[name] for name in COLUMNS}
        self._count = count

    def _stacked(self) -> Dict[str, np.ndarray]:
        """Every column as one array; ``add``'s rows are stacked once."""
        if self._count == 0:
            raise RuntimeError("the rollout buffer is empty")
        if self._columns is None:
            self._columns = {name: np.stack(rows) for name, rows in self._rows.items()}
        return self._columns

    def _read_only(self, name: str) -> np.ndarray:
        view = self._stacked()[name].view()
        view.flags.writeable = False
        return view

    @property
    def rewards(self) -> np.ndarray:
        """(T,) stored rewards ``r_t``, in step order (a read-only view)."""
        return self._read_only("rewards")

    @property
    def dones(self) -> np.ndarray:
        """(T,) episode-end flags, in step order (a read-only view)."""
        return self._read_only("dones")

    # ------------------------------------------------------------------
    def finalize(self, bootstrap_value: float = 0.0) -> None:
        """Compute returns and advantages for everything stored so far."""
        if self._count == 0:
            raise RuntimeError("cannot finalize an empty rollout buffer")
        columns = self._stacked()
        rewards, values, dones = columns["rewards"], columns["values"], columns["dones"]
        self._returns = discounted_returns(rewards, dones, self.gamma, bootstrap_value)
        if self.gae_lambda is None:
            self._advantages = self._returns - values
        else:
            self._advantages = gae_advantages(
                rewards, values, dones, self.gamma, self.gae_lambda, bootstrap_value
            )

    def _gather(self, indices: np.ndarray) -> MiniBatch:
        if self._returns is None or self._advantages is None:
            raise RuntimeError("call finalize() before sampling")
        columns = self._columns
        return MiniBatch(
            **{name: columns[name].take(indices, axis=0) for name in BATCH_COLUMNS},
            returns=self._returns.take(indices, axis=0),
            advantages=self._advantages.take(indices, axis=0),
        )

    def minibatches(
        self, batch_size: int, rng: np.random.Generator, epochs: int = 1
    ) -> Iterator[MiniBatch]:
        """Yield shuffled minibatches; ``epochs`` full passes over the data."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        count = self._count
        for __ in range(epochs):
            order = rng.permutation(count)
            for start in range(0, count, batch_size):
                yield self._gather(order[start : start + batch_size])

    def full_batch(self) -> MiniBatch:
        """The whole buffer as one batch (used by tests and small updates)."""
        return self._gather(np.arange(self._count))
