"""Common interface of all curiosity (intrinsic reward) modules.

Every curiosity model in this package — the paper's spatial curiosity, the
full ICM of Pathak et al., and RND — implements :class:`CuriosityModule`:

* :meth:`intrinsic_reward` scores a batch of transitions — the rollout
  passes a whole episode's trajectory at once — and returns one
  ``r_t^int = η · Loss^f`` (Eqn. 17) per row without touching any
  learnable parameters.  It is **row-invariant**: row ``t`` of a
  ``T``-row batch is bitwise-equal to transition ``t`` scored alone, so
  scoring an episode in one call stores the bits a per-step loop would.
  The modules keep it so by running their detached Linears through
  :func:`repro.nn.functional.linear_rows`;
* :meth:`loss` builds the differentiable training loss over a batch of
  transitions so employees can compute gradients for the chief's curiosity
  gradient buffer.  It is two halves: :meth:`loss_inputs` turns the batch
  into plain arrays, and :meth:`loss_program` maps those arrays to
  ``{"loss": Tensor}`` — the program shape :class:`repro.nn.Planner`
  captures and replays, which is how an employee runs the update;
* :meth:`parameters` exposes the trainable parameters (the chief owns the
  optimizer).

A :class:`TransitionBatch` carries everything any of the models could need;
each model reads only the fields relevant to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import nn

__all__ = ["TransitionBatch", "CuriosityModule", "NullCuriosity"]


@dataclass(frozen=True)
class TransitionBatch:
    """A batch of environment transitions for curiosity training.

    Attributes
    ----------
    positions:
        (B, W, 2) worker positions before the move (``l_t``).
    next_positions:
        (B, W, 2) worker positions after the move (``l_{t+1}``).
    moves:
        (B, W) integer route-planning decisions ``v_t``.
    states:
        Optional (B, C, G, G) full states ``s_t`` (used by ICM / RND).
    next_states:
        Optional (B, C, G, G) full next states ``s_{t+1}``.
    """

    positions: np.ndarray
    next_positions: np.ndarray
    moves: np.ndarray
    states: Optional[np.ndarray] = None
    next_states: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[-1] != 2:
            raise ValueError(f"positions must be (B, W, 2), got {positions.shape}")
        object.__setattr__(self, "positions", positions)
        next_positions = np.asarray(self.next_positions, dtype=np.float64)
        if next_positions.shape != positions.shape:
            raise ValueError(
                f"next_positions shape {next_positions.shape} != {positions.shape}"
            )
        object.__setattr__(self, "next_positions", next_positions)
        moves = np.asarray(self.moves, dtype=np.int64)
        if moves.shape != positions.shape[:2]:
            raise ValueError(f"moves must be (B, W), got {moves.shape}")
        object.__setattr__(self, "moves", moves)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def num_workers(self) -> int:
        return self.positions.shape[1]

    @staticmethod
    def single(
        positions: np.ndarray,
        moves: np.ndarray,
        next_positions: np.ndarray,
        state: Optional[np.ndarray] = None,
        next_state: Optional[np.ndarray] = None,
    ) -> "TransitionBatch":
        """Wrap a single timestep (W, ...) as a batch of size one."""
        return TransitionBatch(
            positions=np.asarray(positions)[None],
            next_positions=np.asarray(next_positions)[None],
            moves=np.asarray(moves)[None],
            states=None if state is None else np.asarray(state)[None],
            next_states=None if next_state is None else np.asarray(next_state)[None],
        )


class CuriosityModule:
    """Abstract base; see the module docstring for the contract."""

    #: scaling factor η of Eqn. (17)
    eta: float

    def intrinsic_reward(self, batch: TransitionBatch) -> np.ndarray:
        """(B,) intrinsic rewards, detached and row-invariant."""
        raise NotImplementedError

    def per_worker_curiosity(self, batch: TransitionBatch) -> np.ndarray:
        """(B, W) per-worker curiosity values (for the Fig. 9 heatmaps).

        Models that do not decompose per worker broadcast the batch value.
        """
        values = self.intrinsic_reward(batch)
        return np.repeat(values[:, None], batch.num_workers, axis=1)

    def loss_inputs(self, batch: TransitionBatch) -> Dict[str, np.ndarray]:
        """The plain arrays :meth:`loss_program` reads (no tape ops)."""
        raise NotImplementedError

    def loss_program(self, inputs: Dict[str, np.ndarray]) -> Dict[str, nn.Tensor]:
        """``{"loss": scalar tensor}`` from :meth:`loss_inputs`' arrays."""
        raise NotImplementedError

    def loss(self, batch: TransitionBatch) -> nn.Tensor:
        """Differentiable training loss (scalar tensor)."""
        return self.loss_program(self.loss_inputs(batch))["loss"]

    def parameters(self) -> List[nn.Parameter]:
        """Trainable parameters (empty for parameter-free modules)."""
        raise NotImplementedError

    def state_dict(self):
        """Copy of every trainable parameter, keyed by dotted path."""
        raise NotImplementedError

    def load_state_dict(self, state) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        raise NotImplementedError


class NullCuriosity(CuriosityModule):
    """A curiosity stub that always returns zero (the "w/o curiosity" arm).

    Used by the Fig. 5 ablation and by baselines that train on extrinsic
    reward only; it has no parameters and a constant-zero loss.
    """

    def __init__(self):
        self.eta = 0.0
        # One dummy (frozen) parameter so optimizers are never constructed
        # over it; parameters() returns an empty list instead.

    def intrinsic_reward(self, batch: TransitionBatch) -> np.ndarray:
        return np.zeros(len(batch))

    def loss_inputs(self, batch: TransitionBatch) -> Dict[str, np.ndarray]:
        return {}

    def loss_program(self, inputs: Dict[str, np.ndarray]) -> Dict[str, nn.Tensor]:
        return {"loss": nn.Tensor(0.0)}

    def parameters(self) -> List[nn.Parameter]:
        """No parameters."""
        return []

    def state_dict(self):
        """Empty (nothing to save)."""
        return {}

    def load_state_dict(self, state) -> None:
        """Accepts only an empty state."""
        if state:
            raise ValueError("NullCuriosity has no state to load")
