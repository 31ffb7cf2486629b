"""Position feature extractors for the spatial curiosity model (Sec. VII-D).

The paper compares two *static* representations of a worker's spatial
information (following Burda et al.'s observation that random, untrained
features are stable targets for curiosity):

* the **direct feature** scales a worker's position into ``(0, 1)``
  (2 dimensions);
* the **embedding feature** maps the position through a static, randomly
  initialized embedding layer to an 8-dimensional spatial vector — "two
  locations could be far away from each other in the embedding space, even
  if these two points are close physically", which yields larger intrinsic
  rewards for unvisited cells.

Both extractors are deliberately frozen: they are *targets* for the forward
model, never trained.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .. import nn
from ..env.space import CrowdsensingSpace

__all__ = ["PositionFeature", "DirectFeature", "EmbeddingFeature", "make_feature"]

DEFAULT_EMBEDDING_DIM = 8


class PositionFeature(Protocol):
    """A frozen map from continuous positions (N, 2) to features (N, D)."""

    dim: int

    def __call__(self, positions: np.ndarray) -> np.ndarray: ...


class DirectFeature:
    """Scale positions into (0, 1)²; feature dimension 2."""

    def __init__(self, space: CrowdsensingSpace):
        self._size = space.size
        self.dim = 2

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        return positions / self._size


class EmbeddingFeature:
    """Static random embedding of the position's grid cell.

    Each of the ``grid²`` cells gets a fixed random D-dimensional vector;
    a position is represented by its cell's vector.  The table is sampled
    once from a seeded RNG and never trained.
    """

    def __init__(
        self,
        space: CrowdsensingSpace,
        dim: int = DEFAULT_EMBEDDING_DIM,
        seed: int = 0,
    ):
        if dim < 1:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        self._space = space
        self.dim = dim
        rng = np.random.default_rng(seed)
        self._table = nn.Embedding(space.grid * space.grid, dim, rng=rng, frozen=True)
        # Normalize so an unvisited cell's expected squared error is ~1
        # regardless of dim, keeping η (Eqn. 17) comparable across feature
        # kinds and the intrinsic reward on the extrinsic reward's scale.
        self._table.weight.data /= np.sqrt(dim)

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        ids = self._space.flat_index(positions)
        return self._table(ids).data


def make_feature(
    kind: str, space: CrowdsensingSpace, seed: int = 0, dim: int = DEFAULT_EMBEDDING_DIM
) -> "PositionFeature":
    """Factory: ``kind`` is ``"direct"`` or ``"embedding"``."""
    if kind == "direct":
        return DirectFeature(space)
    if kind == "embedding":
        return EmbeddingFeature(space, dim=dim, seed=seed)
    raise ValueError(f"unknown feature kind {kind!r}; use 'direct' or 'embedding'")
