"""The full Intrinsic Curiosity Module of Pathak et al. (CVPR'17).

Included for reference and ablation: the paper's Section V-C describes this
three-network design (encoder ``φ``, forward model ``f``, inverse model)
before specializing it into the *spatial* curiosity model.  Here the
encoder is a small CNN over the full 3-channel state; the forward model
predicts the next state's encoding from the current encoding plus the joint
action; the inverse model predicts the (first worker's) route decision from
the two encodings, which shapes the encoder to attend to controllable
state.

Unlike :class:`~repro.curiosity.spatial.SpatialCuriosity`, the encoder here
is *learned* — trained through the inverse-model loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..env.actions import NUM_MOVES
from .base import CuriosityModule, TransitionBatch

__all__ = ["StateEncoder", "ICMCuriosity"]


class StateEncoder(nn.Module):
    """Small CNN: (C, G, G) state -> D-dim feature vector."""

    def __init__(
        self,
        channels: int,
        grid: int,
        feature_dim: int = 32,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.conv1 = nn.Conv2d(channels, 8, kernel_size=3, stride=2, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(8, 16, kernel_size=3, stride=2, padding=1, rng=rng)
        h1, w1 = self.conv1.output_size(grid, grid)
        h2, w2 = self.conv2.output_size(h1, w1)
        self.fc = nn.Linear(16 * h2 * w2, feature_dim, rng=rng)
        self.feature_dim = feature_dim

    def _conv_trunk(self, states: nn.Tensor) -> nn.Tensor:
        x = self.conv1(states).relu()
        x = self.conv2(x).relu()
        return x.reshape(x.shape[0], -1)

    def forward(self, states: nn.Tensor) -> nn.Tensor:
        """Encode (B, C, G, G) states into (B, feature_dim) vectors."""
        return self.fc(self._conv_trunk(states))

    def forward_rows(self, states: nn.Tensor) -> nn.Tensor:
        """:meth:`forward` with each row's bits those of a batch of one.

        The convs already keep every sample in its own im2col row block;
        only the Linear needs :func:`repro.nn.functional.linear_rows`.
        """
        return F.linear_rows(self._conv_trunk(states), self.fc.weight, self.fc.bias)


class ICMCuriosity(CuriosityModule):
    """Encoder + forward + inverse model over full states.

    Parameters
    ----------
    channels, grid:
        State tensor geometry.
    num_workers:
        Width of the joint move vector (one categorical per worker).
    eta:
        Intrinsic reward scale.
    forward_weight:
        Weight of the forward loss in the combined training loss; the
        inverse loss gets ``1 - forward_weight`` (Pathak et al. use 0.2).
    """

    def __init__(
        self,
        channels: int,
        grid: int,
        num_workers: int,
        eta: float = 0.3,
        feature_dim: int = 32,
        hidden: int = 64,
        forward_weight: float = 0.2,
        seed: int = 0,
    ):
        if not 0.0 < forward_weight < 1.0:
            raise ValueError(f"forward_weight must be in (0, 1), got {forward_weight}")
        self.eta = eta
        self.num_workers = num_workers
        self.forward_weight = forward_weight
        rng = np.random.default_rng(seed)
        self.encoder = StateEncoder(channels, grid, feature_dim=feature_dim, rng=rng)
        action_dim = num_workers * NUM_MOVES
        self.forward_net = nn.Sequential(
            nn.Linear(feature_dim + action_dim, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, feature_dim, rng=rng),
        )
        # Inverse model predicts each worker's move from (φ_t, φ_{t+1}).
        self.inverse_net = nn.Sequential(
            nn.Linear(2 * feature_dim, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, action_dim, rng=rng),
        )

    # ------------------------------------------------------------------
    def _one_hot_moves(self, moves: np.ndarray) -> np.ndarray:
        batch_size = moves.shape[0]
        one_hot = np.zeros((batch_size, self.num_workers * NUM_MOVES))
        for w in range(self.num_workers):
            one_hot[np.arange(batch_size), w * NUM_MOVES + moves[:, w]] = 1.0
        return one_hot

    # ------------------------------------------------------------------
    # CuriosityModule interface
    # ------------------------------------------------------------------
    def loss_inputs(self, batch: TransitionBatch) -> Dict[str, np.ndarray]:
        """Full states, the joint one-hot action and the raw moves."""
        if batch.states is None or batch.next_states is None:
            raise ValueError("ICMCuriosity needs full states in the TransitionBatch")
        return {
            "states": np.asarray(batch.states),
            "next_states": np.asarray(batch.next_states),
            "actions": self._one_hot_moves(batch.moves),
            "moves": batch.moves,
        }

    def intrinsic_reward(self, batch: TransitionBatch) -> np.ndarray:
        """Forward-model squared error scaled by ``η``, untaped and row-invariant."""
        inputs = self.loss_inputs(batch)
        hidden, __, out = self.forward_net
        with nn.no_grad():
            phi_t = self.encoder.forward_rows(nn.Tensor(inputs["states"]))
            phi_t1 = self.encoder.forward_rows(nn.Tensor(inputs["next_states"]))
            x = nn.concat([phi_t, nn.Tensor(inputs["actions"])], axis=1)
            x = F.linear_rows(x, hidden.weight, hidden.bias).relu()
            diff = F.linear_rows(x, out.weight, out.bias) - phi_t1
            return self.eta * (diff * diff).sum(axis=1).data

    def loss_program(self, inputs: Dict[str, np.ndarray]) -> Dict[str, nn.Tensor]:
        states = nn.Tensor(inputs["states"])
        next_states = nn.Tensor(inputs["next_states"])
        # Forward loss trains the forward model on frozen encodings.
        phi_t = self.encoder(states)
        phi_t1 = self.encoder(next_states).detach()
        predicted = self.forward_net(
            nn.concat([phi_t.detach(), nn.Tensor(inputs["actions"])], axis=1)
        )
        diff = predicted - phi_t1
        forward_loss = (diff * diff).sum(axis=1).mean()

        # Inverse loss trains the encoder: predict each worker's move.
        phi_t = self.encoder(states)
        phi_t1 = self.encoder(next_states)
        logits = self.inverse_net(nn.concat([phi_t, phi_t1], axis=1))
        inverse_loss = None
        for w in range(self.num_workers):
            worker_logits = logits[:, w * NUM_MOVES : (w + 1) * NUM_MOVES]
            term = F.cross_entropy(worker_logits, inputs["moves"][:, w])
            inverse_loss = term if inverse_loss is None else inverse_loss + term
        inverse_loss = inverse_loss * (1.0 / self.num_workers)

        loss = (
            forward_loss * self.forward_weight
            + inverse_loss * (1.0 - self.forward_weight)
        )
        return {"loss": loss}

    def parameters(self) -> List[nn.Parameter]:
        """Encoder + forward + inverse model parameters."""
        return (
            self.encoder.parameters()
            + self.forward_net.parameters()
            + self.inverse_net.parameters()
        )

    def state_dict(self) -> Dict[str, np.ndarray]:
        """All three networks' parameters, prefixed by network role."""
        state: Dict[str, np.ndarray] = {}
        for prefix, module in (
            ("encoder", self.encoder),
            ("forward", self.forward_net),
            ("inverse", self.inverse_net),
        ):
            for key, value in module.state_dict().items():
                state[f"{prefix}.{key}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for prefix, module in (
            ("encoder", self.encoder),
            ("forward", self.forward_net),
            ("inverse", self.inverse_net),
        ):
            sub = {
                key[len(prefix) + 1 :]: value
                for key, value in state.items()
                if key.startswith(prefix + ".")
            }
            module.load_state_dict(sub)
