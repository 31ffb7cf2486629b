"""Action space of the worker-scheduling MDP (Section V).

The whole action is ``a_t = [u_t, v_t]``: per-worker binary charging
decisions ``u_t`` and per-worker route-planning decisions ``v_t``.  Route
planning is discretized into nine moves — stay plus the eight compass
directions — whose Euclidean length never exceeds the worker's per-slot
travel maximum (``√2 * move_step`` for diagonals).

Validity rules (paper, Section V "Action"):

(a) a move may not enter an obstacle or leave the crowdsensing space,
(b) the worker's energy budget must not be exhausted,
(c) the move length is bounded by the fixed per-slot maximum (guaranteed
    by construction of the move set).

Charging additionally requires the worker to be within ``charging_range``
of some station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .entities import ChargingStations, WorkerFleet
from .space import CrowdsensingSpace, _segment_ts

__all__ = [
    "MOVE_OFFSETS",
    "MOVE_NAMES",
    "NUM_MOVES",
    "STAY",
    "Action",
    "move_targets",
    "valid_move_mask",
    "forbid_exhausted",
    "can_charge",
]

#: Unit offsets of the nine route-planning moves, order: stay, N, NE, E,
#: SE, S, SW, W, NW.  "North" is +y.
MOVE_OFFSETS = np.array(
    [
        [0.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [1.0, 0.0],
        [1.0, -1.0],
        [0.0, -1.0],
        [-1.0, -1.0],
        [-1.0, 0.0],
        [-1.0, 1.0],
    ]
)

MOVE_NAMES = ("stay", "N", "NE", "E", "SE", "S", "SW", "W", "NW")
NUM_MOVES = len(MOVE_OFFSETS)
STAY = 0

#: Indices of the diagonal moves (both offset components non-zero) and the
#: two orthogonal "corner" offsets checked by the no-corner-cutting rule:
#: ``_SIDE_A[k] = [dx, 0]`` and ``_SIDE_B[k] = [0, dy]`` for diagonal k.
_DIAGONAL_MOVES = np.array(
    [m for m in range(NUM_MOVES) if MOVE_OFFSETS[m, 0] != 0.0 and MOVE_OFFSETS[m, 1] != 0.0]
)
_SIDE_A_OFFSETS = np.stack(
    [np.array([MOVE_OFFSETS[m, 0], 0.0]) for m in _DIAGONAL_MOVES]
)
_SIDE_B_OFFSETS = np.stack(
    [np.array([0.0, MOVE_OFFSETS[m, 1]]) for m in _DIAGONAL_MOVES]
)
_SEGMENT_SAMPLES = 4


@dataclass(frozen=True)
class Action:
    """One joint action for all workers.

    Attributes
    ----------
    charge:
        (W,) int array of ``u_t^w`` in {0, 1}.
    move:
        (W,) int array of ``v_t^w`` in [0, NUM_MOVES).
    """

    charge: np.ndarray
    move: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "charge", np.asarray(self.charge, dtype=np.int64))
        object.__setattr__(self, "move", np.asarray(self.move, dtype=np.int64))
        if self.charge.shape != self.move.shape:
            raise ValueError(
                f"charge shape {self.charge.shape} != move shape {self.move.shape}"
            )
        if np.any((self.charge < 0) | (self.charge > 1)):
            raise ValueError("charge decisions must be 0 or 1")
        if np.any((self.move < 0) | (self.move >= NUM_MOVES)):
            raise ValueError(f"move decisions must be in [0, {NUM_MOVES})")

    @staticmethod
    def stay(num_workers: int) -> "Action":
        """The all-stay, no-charge action."""
        zeros = np.zeros(num_workers, dtype=np.int64)
        return Action(charge=zeros, move=zeros.copy())


def move_targets(positions: np.ndarray, move_step: float) -> np.ndarray:
    """Candidate next positions, shape (W, NUM_MOVES, 2)."""
    positions = np.asarray(positions, dtype=np.float64)
    return positions[:, None, :] + MOVE_OFFSETS[None, :, :] * move_step


def valid_move_mask(
    space: CrowdsensingSpace,
    positions: np.ndarray,
    energy: np.ndarray,
    move_step: float,
) -> np.ndarray:
    """(W, NUM_MOVES) boolean mask of moves valid under the paper's rules.

    Workers with exhausted energy can only stay (rule b); other moves are
    masked when the target cell is blocked / outside or the straight path
    crosses an obstacle (rule a).  "Stay" is always valid.

    Every obstacle query — the nine move targets, the four interior path
    samples per move, and the two corner-cut cells per diagonal move — is
    gathered into **one** batched :meth:`CrowdsensingSpace.is_blocked`
    call (a single coordinate conversion and obstacle-grid gather for
    ``(9 + 4·9 + 2·4)·W`` points) instead of the previous fourteen
    round-trips.  Each point's coordinates are computed with the same
    arithmetic as before, so the mask is bit-for-bit unchanged.
    """
    positions = np.asarray(positions, dtype=np.float64)
    num_workers = len(positions)
    targets = move_targets(positions, move_step)  # (W, M, 2)

    # Interior samples of each start->target segment at the same fractions
    # segment_blocked(samples=4) used: t in {0.25, 0.5, 0.75, 1.0}.
    ts = _segment_ts(_SEGMENT_SAMPLES)
    delta = targets - positions[:, None, :]
    path_points = positions[None, :, None, :] + ts[:, None, None, None] * delta[None]

    # Corner-cut cells flanking each diagonal move.
    side_a = positions[:, None, :] + _SIDE_A_OFFSETS[None] * move_step  # (W, D, 2)
    side_b = positions[:, None, :] + _SIDE_B_OFFSETS[None] * move_step

    num_targets = num_workers * NUM_MOVES
    num_sides = num_workers * len(_DIAGONAL_MOVES)
    points = np.concatenate(
        [
            targets.reshape(-1, 2),
            path_points.reshape(-1, 2),
            side_a.reshape(-1, 2),
            side_b.reshape(-1, 2),
        ]
    )
    blocked = space.is_blocked(points)

    target_blocked = blocked[:num_targets].reshape(num_workers, NUM_MOVES)
    path_blocked = (
        blocked[num_targets : num_targets * (1 + _SEGMENT_SAMPLES)]
        .reshape(_SEGMENT_SAMPLES, num_workers, NUM_MOVES)
        .any(axis=0)
    )
    mask = ~(target_blocked | path_blocked)

    # No corner cutting: a diagonal move also requires both orthogonal
    # intermediate cells to be free (a zero-width path grazing the corner
    # between two obstacles is not traversable by a physical worker).
    side_start = num_targets * (1 + _SEGMENT_SAMPLES)
    a_blocked = blocked[side_start : side_start + num_sides].reshape(num_workers, -1)
    b_blocked = blocked[side_start + num_sides :].reshape(num_workers, -1)
    mask[:, _DIAGONAL_MOVES] &= ~a_blocked & ~b_blocked

    mask[:, STAY] = True
    return forbid_exhausted(mask, energy)


def forbid_exhausted(mask: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Rule (b) in place on a (W, NUM_MOVES) mask: a worker whose energy
    is exhausted may only stay.  Returns ``mask``."""
    exhausted = np.asarray(energy) <= 1e-12
    if exhausted.any():
        mask[exhausted] = False
        mask[exhausted, STAY] = True
    return mask


def can_charge(
    stations: ChargingStations,
    positions: np.ndarray,
    charging_range: float,
) -> np.ndarray:
    """(W,) boolean mask: which workers may wait to be charged here."""
    return stations.nearest_distance(positions) <= charging_range
