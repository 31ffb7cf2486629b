"""The spatial curiosity model of Section V-C — the paper's contribution.

A forward model ``f`` predicts the (frozen) feature of a worker's *next*
position from the feature of its current position and its route-planning
decision:

.. math:: \\hat{φ}(l_{t+1}) = f(φ(l_t), v_t)                     (Eqn. 15)

The prediction error is both the training loss (Eqn. 16) and, scaled by
``η``, the intrinsic reward (Eqn. 17).  Novel positions — cells the fleet
has seldom visited — are poorly predicted and therefore attractive.

Two structures are compared in Section VII-D:

* **shared** — one forward model consumes every worker's transitions, so
  "different workers share their historical information by using common
  parameters" and the parameter count is independent of ``W``;
* **independent** — ``W`` separate forward models, one per worker.

The feature extractor (direct or embedding) is always static; only the
forward model trains.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..obs.trace import span as trace_span
from ..env.actions import NUM_MOVES
from ..env.space import CrowdsensingSpace
from .base import CuriosityModule, TransitionBatch
from .features import PositionFeature, make_feature

__all__ = ["ForwardModel", "SpatialCuriosity"]


class ForwardModel(nn.Module):
    """MLP ``f(φ(l_t), one_hot(v_t)) -> φ̂(l_{t+1})``."""

    def __init__(
        self,
        feature_dim: int,
        num_moves: int = NUM_MOVES,
        hidden: int = 64,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.feature_dim = feature_dim
        self.num_moves = num_moves
        self.fc1 = nn.Linear(feature_dim + num_moves, hidden, rng=rng)
        self.fc2 = nn.Linear(hidden, hidden, rng=rng)
        self.out = nn.Linear(hidden, feature_dim, rng=rng)

    def one_hot(self, moves: np.ndarray) -> np.ndarray:
        """(B, num_moves) one-hot encoding of the route decisions ``v_t``."""
        moves = np.asarray(moves, dtype=np.int64).reshape(-1)
        one_hot = np.zeros((len(moves), self.num_moves))
        one_hot[np.arange(len(moves)), moves] = 1.0
        return one_hot

    def forward(self, features: nn.Tensor, one_hot: np.ndarray) -> nn.Tensor:
        """Predict the next position's feature from (feature, one-hot move)."""
        x = nn.concat([features, nn.Tensor(one_hot)], axis=1)
        x = self.fc1(x).relu()
        x = self.fc2(x).relu()
        return self.out(x)

    def forward_rows(self, features: nn.Tensor, one_hot: np.ndarray) -> nn.Tensor:
        """:meth:`forward` with each row's bits those of a batch of one."""
        x = nn.concat([features, nn.Tensor(one_hot)], axis=1)
        for layer in (self.fc1, self.fc2):
            x = F.linear_rows(x, layer.weight, layer.bias).relu()
        return F.linear_rows(x, self.out.weight, self.out.bias)


class SpatialCuriosity(CuriosityModule):
    """Spatial curiosity with configurable feature and structure.

    Parameters
    ----------
    space:
        The crowdsensing space (provides size / grid for the features).
    feature:
        ``"embedding"`` (paper's choice) or ``"direct"``.
    structure:
        ``"shared"`` (paper's choice) or ``"independent"``.
    num_workers:
        Required for the independent structure (one model per worker).
    eta:
        Intrinsic-reward scale ``η`` (paper: 0.3).
    """

    def __init__(
        self,
        space: CrowdsensingSpace,
        feature: str = "embedding",
        structure: str = "shared",
        num_workers: int = 1,
        eta: float = 0.3,
        hidden: int = 64,
        embedding_dim: int = 8,
        seed: int = 0,
        feature_seed: Optional[int] = None,
    ):
        if structure not in ("shared", "independent"):
            raise ValueError(
                f"structure must be 'shared' or 'independent', got {structure!r}"
            )
        if eta < 0:
            raise ValueError(f"eta cannot be negative, got {eta}")
        self.eta = eta
        self.structure = structure
        self.feature_kind = feature
        self.num_workers = num_workers
        # The frozen feature table is the *target* of the forward model.
        # Every agent trained against one global model must use the same
        # table, so its seed is separate from the trainable-weight seed
        # (chief-employee sync copies only trainable parameters).
        feature_seed = seed if feature_seed is None else feature_seed
        self._feature: PositionFeature = make_feature(
            feature, space, seed=feature_seed, dim=embedding_dim
        )
        rng = np.random.default_rng(seed + 1)
        if structure == "shared":
            self._models = [ForwardModel(self._feature.dim, hidden=hidden, rng=rng)]
        else:
            self._models = [
                ForwardModel(self._feature.dim, hidden=hidden, rng=rng)
                for __ in range(num_workers)
            ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _model_for(self, worker: int) -> ForwardModel:
        if self.structure == "shared":
            return self._models[0]
        if worker >= len(self._models):
            raise IndexError(
                f"worker {worker} out of range for independent structure with "
                f"{len(self._models)} models"
            )
        return self._models[worker]

    def _squared_errors(self, inputs: Dict[str, np.ndarray], w: int, rows: bool) -> nn.Tensor:
        """Worker ``w``'s (B,) forward-model squared errors from :meth:`loss_inputs`."""
        model = self._model_for(w)
        forward = model.forward_rows if rows else model.forward
        predicted = forward(nn.Tensor(inputs[f"features{w}"]), inputs[f"one_hot{w}"])
        diff = predicted - nn.Tensor(inputs[f"targets{w}"])
        return (diff * diff).sum(axis=1)

    def _per_worker_errors(self, batch: TransitionBatch) -> List[np.ndarray]:
        """Detached squared errors, one (B,) array per worker.

        Intrinsic rewards never backpropagate, so the forward pass is not
        taped, and it runs row-invariant: a trajectory scored at once
        equals its steps scored one by one.
        """
        inputs = self.loss_inputs(batch)
        with trace_span(
            "curiosity.forward_model", workers=batch.num_workers, detach=True
        ), nn.no_grad():
            return [
                self._squared_errors(inputs, w, rows=True).data.copy()
                for w in range(batch.num_workers)
            ]

    # ------------------------------------------------------------------
    # CuriosityModule interface
    # ------------------------------------------------------------------
    def intrinsic_reward(self, batch: TransitionBatch) -> np.ndarray:
        """(B,) rewards ``η · mean_w Loss^f`` per timestep, detached."""
        errors = self._per_worker_errors(batch)
        return self.eta * np.mean(np.stack(errors, axis=1), axis=1)

    def per_worker_curiosity(self, batch: TransitionBatch) -> np.ndarray:
        """(B, W) per-worker ``η · Loss^f`` values (Fig. 9 heatmap data)."""
        errors = self._per_worker_errors(batch)
        return self.eta * np.stack(errors, axis=1)

    def raw_errors(self, batch: TransitionBatch) -> np.ndarray:
        """(B, W) raw forward losses, independent of ``η``.

        Used by the Fig. 9 visualization, which probes curiosity values
        even for agents trained with ``η = 0`` (the DPPO comparison arm).
        """
        errors = self._per_worker_errors(batch)
        return np.stack(errors, axis=1)

    def loss_inputs(self, batch: TransitionBatch) -> Dict[str, np.ndarray]:
        """Per-worker ``features<w>``, ``one_hot<w>`` and ``targets<w>`` arrays."""
        if self.structure == "independent" and batch.num_workers != len(self._models):
            raise ValueError(
                f"batch has {batch.num_workers} workers but the independent "
                f"structure was built for {len(self._models)}"
            )
        inputs: Dict[str, np.ndarray] = {}
        for w in range(batch.num_workers):
            inputs[f"features{w}"] = self._feature(batch.positions[:, w])
            inputs[f"one_hot{w}"] = self._model_for(w).one_hot(batch.moves[:, w])
            inputs[f"targets{w}"] = self._feature(batch.next_positions[:, w])
        return inputs

    def loss_program(self, inputs: Dict[str, np.ndarray]) -> Dict[str, nn.Tensor]:
        """Mean forward loss over the batch and all workers (Eqn. 16)."""
        workers = len(inputs) // 3
        with trace_span("curiosity.forward_model", workers=workers, detach=False):
            errors = [self._squared_errors(inputs, w, rows=False) for w in range(workers)]
        total = errors[0].mean()
        for err in errors[1:]:
            total = total + err.mean()
        return {"loss": total * (1.0 / workers)}

    def parameters(self) -> List[nn.Parameter]:
        """Forward-model parameters (all structures, concatenated)."""
        params: List[nn.Parameter] = []
        for model in self._models:
            params.extend(model.parameters())
        return params

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Forward-model parameters keyed ``model<i>.<param>``."""
        state: Dict[str, np.ndarray] = {}
        for i, model in enumerate(self._models):
            for key, value in model.state_dict().items():
                state[f"model{i}.{key}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for i, model in enumerate(self._models):
            prefix = f"model{i}."
            sub = {
                key[len(prefix):]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            model.load_state_dict(sub)

    def copy_from(self, other: "SpatialCuriosity") -> None:
        """In-place parameter copy (employee <- chief synchronization)."""
        if len(self._models) != len(other._models):
            raise ValueError("curiosity structures differ")
        for mine, theirs in zip(self._models, other._models):
            mine.copy_from(theirs)
