"""Random Network Distillation (Burda et al., ICLR'19) baseline.

RND scores novelty of the *next state*: a fixed, randomly initialized
target network maps states to embeddings, and a trained predictor network
tries to match it.  States the predictor has not seen produce large errors
and hence large intrinsic rewards.  Section VII-D uses RND as the
state-of-the-art comparison point for the spatial curiosity model and
finds it "inefficient in our system" because the multi-worker state is too
complex to model jointly — a shape our reproduction also exhibits.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import nn
from .base import CuriosityModule, TransitionBatch
from .icm import StateEncoder

__all__ = ["RNDCuriosity"]


class RNDCuriosity(CuriosityModule):
    """Fixed random target + trained predictor over full next states."""

    def __init__(
        self,
        channels: int,
        grid: int,
        eta: float = 0.3,
        feature_dim: int = 32,
        seed: int = 0,
        target_seed: Optional[int] = None,
    ):
        self.eta = eta
        # The frozen target network must be identical across every agent
        # synced from one global model, so its seed is separate from the
        # trainable predictor's seed.
        target_rng = np.random.default_rng(seed if target_seed is None else target_seed)
        predictor_rng = np.random.default_rng(seed + 1)
        self.target = StateEncoder(channels, grid, feature_dim=feature_dim, rng=target_rng)
        for param in self.target.parameters():
            param.requires_grad = False
        self.predictor = StateEncoder(
            channels, grid, feature_dim=feature_dim, rng=predictor_rng
        )

    def loss_inputs(self, batch: TransitionBatch) -> Dict[str, np.ndarray]:
        if batch.next_states is None:
            raise ValueError("RNDCuriosity needs next_states in the TransitionBatch")
        return {"next_states": np.asarray(batch.next_states)}

    def intrinsic_reward(self, batch: TransitionBatch) -> np.ndarray:
        """The predictor's squared error scaled by ``η``, untaped and row-invariant."""
        states = nn.Tensor(self.loss_inputs(batch)["next_states"])
        with nn.no_grad():
            diff = self.predictor.forward_rows(states) - self.target.forward_rows(states)
            return self.eta * (diff * diff).sum(axis=1).data

    def loss_program(self, inputs: Dict[str, np.ndarray]) -> Dict[str, nn.Tensor]:
        states = nn.Tensor(inputs["next_states"])
        target = self.target(states).detach()
        diff = self.predictor(states) - target
        return {"loss": (diff * diff).sum(axis=1).mean()}

    def parameters(self) -> List[nn.Parameter]:
        """Predictor parameters only (the target is frozen)."""
        return self.predictor.parameters()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Predictor parameters (the target regenerates from its seed)."""
        return {f"predictor.{k}": v for k, v in self.predictor.state_dict().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore predictor parameters saved by :meth:`state_dict`."""
        sub = {
            key[len("predictor."):]: value
            for key, value in state.items()
            if key.startswith("predictor.")
        }
        self.predictor.load_state_dict(sub)
