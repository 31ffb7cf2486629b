"""The crowdsensing environment: the OLDC MDP of Sections III and V.

:class:`CrowdsensingEnv` owns a generated :class:`~repro.env.generator.Scenario`
and exposes the familiar ``reset() -> state`` / ``step(action) -> (state,
reward, done, info)`` interface.  One step implements a full time slot:

1. validate each worker's route-planning decision ``v_t^w`` (invalid moves
   bump: the worker stays put and the obstacle penalty ``τ`` applies);
2. workers with a valid charging decision ``u_t^w = 1`` near a station stay
   and recharge instead of moving or collecting (the paper's trade-off:
   "it takes time that workers cannot collect data at the current time
   slots");
3. moving workers travel and collect ``min(λ δ0^p, δ_t^p)`` from every PoI
   within sensing range (Eqn. 1), processed in worker order so simultaneous
   coverage of one PoI is competitive;
4. energy is consumed per Eqn. (3) and clamped at zero — a drained worker
   can only stay until recharged;
5. PoI access times, cumulative counters and the reward trackers update.

The environment emits the configured extrinsic reward ("sparse" for
DRL-CEWS, "dense" for the Edics/DPPO baselines) and always surfaces the raw
:class:`~repro.env.rewards.StepOutcome` in ``info`` so agents can derive
any signal (including intrinsic curiosity rewards) themselves.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .actions import (
    Action,
    MOVE_OFFSETS,
    NUM_MOVES,
    STAY,
    can_charge,
    forbid_exhausted,
    valid_move_mask,
)
from .config import ScenarioConfig
from .entities import ChargingStations, PoiField, WorkerFleet
from .generator import Scenario, generate_scenario
from .metrics import Metrics, compute_metrics
from .rewards import DenseReward, SparseRewardTracker, StepOutcome
from .space import CrowdsensingSpace, euclidean
from .state import STATE_CHANNELS, StateEncoder

__all__ = ["CrowdsensingEnv"]

REWARD_MODES = ("sparse", "dense")

#: Bound on an env's move-mask row memo.  A smoke env visits about 55
#: distinct worker positions over any number of episodes; a memo that
#: reaches the bound starts over.
_MASK_MEMO_ROWS = 4096


class CrowdsensingEnv:
    """The worker-scheduling MDP over a generated crowdsensing scenario.

    Parameters
    ----------
    config:
        Scenario parameters; the world map is generated deterministically
        from ``config.seed``.
    reward_mode:
        ``"sparse"`` (Eqns. 18-19, DRL-CEWS) or ``"dense"`` (Eqn. 20,
        Edics / DPPO).
    scenario:
        Optionally, a pre-generated scenario to share between environments
        (the employee threads of the chief–employee architecture all train
        on the same map, per the paper's setup).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        reward_mode: str = "sparse",
        scenario: Optional[Scenario] = None,
    ):
        if reward_mode not in REWARD_MODES:
            raise ValueError(
                f"reward_mode must be one of {REWARD_MODES}, got {reward_mode!r}"
            )
        if scenario is not None and scenario.config != config:
            raise ValueError("provided scenario was generated from a different config")
        self.config = config
        self.reward_mode = reward_mode
        self.scenario = scenario if scenario is not None else generate_scenario(config)
        self.space: CrowdsensingSpace = self.scenario.space
        self.stations: ChargingStations = self.scenario.stations

        self._sparse = SparseRewardTracker(
            num_workers=config.num_workers,
            total_initial_data=self.scenario.pois.total_initial,
            energy_budget=config.energy_budget,
            epsilon1=config.epsilon1,
            epsilon2=config.epsilon2,
            obstacle_penalty=config.obstacle_penalty,
        )
        self._dense = DenseReward(
            energy_budget=config.energy_budget,
            obstacle_penalty=config.obstacle_penalty,
        )

        self.workers: WorkerFleet
        self.pois: PoiField
        self._encoder: Optional[StateEncoder] = None
        self.t = 0
        self._needs_reset = True
        self._sensing_ranges = np.asarray(config.sensing_ranges())
        # One worker's valid_move_mask row under rules (a) and (c), keyed
        # by the bytes of its float64 position.  The row depends on nothing
        # else (the space and move_step never change), so it outlives
        # resets; rule (b) reads the live energy on every call.
        self._mask_rows: Dict[bytes, bytes] = {}

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.config.num_workers

    @property
    def num_moves(self) -> int:
        return NUM_MOVES

    @property
    def state_shape(self) -> Tuple[int, int, int]:
        return (STATE_CHANNELS, self.config.grid, self.config.grid)

    def reset(self) -> np.ndarray:
        """Start a new episode on the same map; returns the initial state."""
        self.pois, self.workers = self.scenario.fresh_world()
        self.t = 0
        self._sparse.reset()
        self._needs_reset = False
        # PoIs and stations are static for the episode: resolve their state
        # cells once here instead of on every step's encode.
        self._encoder = StateEncoder(
            self.space, self.pois, self.stations, self.config.horizon
        )
        return self._state()

    def step(self, action: Action) -> Tuple[np.ndarray, float, bool, Dict]:
        """Advance one time slot; see the module docstring for semantics."""
        if self._needs_reset:
            raise RuntimeError("call reset() before step()")
        if action.move.shape != (self.num_workers,):
            raise ValueError(
                f"action is for {action.move.shape[0]} workers, env has {self.num_workers}"
            )
        config = self.config
        workers = self.workers
        old_positions = workers.positions.copy()

        # --- 1. Move validation -------------------------------------------------
        move_mask = self._move_mask()
        chosen = action.move.copy()
        bumped = ~move_mask[np.arange(self.num_workers), chosen]
        chosen[bumped] = STAY

        # --- 2. Charging decisions ----------------------------------------------
        near_station = can_charge(self.stations, workers.positions, config.charging_range)
        charging = (action.charge == 1) & near_station
        chosen[charging] = STAY  # charging workers wait at the station

        # --- 3. Movement ---------------------------------------------------------
        offsets = MOVE_OFFSETS[chosen] * config.move_step
        new_positions = workers.positions + offsets
        distances = euclidean(workers.positions, new_positions)
        workers.positions = new_positions

        # --- 4. Data collection (sequential, competitive) ------------------------
        # The worker-PoI distance matrix and the per-PoI collection caps are
        # computed once, vectorized over all workers; only the competitive
        # depletion (worker order matters when ranges overlap) stays in the
        # loop.  ``euclidean`` broadcasts to (W, P) with the same per-element
        # arithmetic as the old per-worker calls, so ``in_range`` — and the
        # subset sums below it — are bit-for-bit unchanged.
        collected = np.zeros(self.num_workers)
        sensed_any = np.zeros(len(self.pois), dtype=bool)
        in_range_all = (
            euclidean(self.pois.positions[None, :, :], new_positions[:, None, :])
            <= self._sensing_ranges[:, None]
        )
        collect_caps = config.collect_rate * self.pois.initial_values
        poi_values = self.pois.values
        for w in range(self.num_workers):
            if charging[w] or workers.energy[w] <= 1e-12:
                continue
            in_range = in_range_all[w]
            if not np.any(in_range):
                continue
            take = np.minimum(collect_caps[in_range], poi_values[in_range])
            poi_values[in_range] -= take
            collected[w] = float(take.sum())
            sensed_any |= in_range
        self.pois.access_time[sensed_any] += 1

        # --- 5. Energy accounting (Eqn. 3) ---------------------------------------
        consumed = config.beta * distances + config.alpha * collected
        # A worker cannot consume more than it has; the shortfall is not
        # collected either (clamp keeps b >= 0; overdraw is negligible at
        # one slot's scale and never goes negative).
        overdraw = consumed > workers.energy
        if np.any(overdraw):
            consumed = np.minimum(consumed, workers.energy)
        workers.energy = workers.energy - consumed

        charged = np.zeros(self.num_workers)
        if np.any(charging):
            room = workers.capacity - workers.energy
            charged[charging] = np.minimum(config.charge_per_slot, room[charging])
            workers.energy = workers.energy + charged

        workers.collected += collected
        workers.consumed += consumed
        workers.charged_total += charged

        # --- 6. Rewards and bookkeeping ------------------------------------------
        outcome = StepOutcome(
            collected=collected,
            consumed=consumed,
            charged=charged,
            bumped=bumped,
            collected_cumulative=workers.collected.copy(),
        )
        if self.reward_mode == "sparse":
            reward_per_worker = self._sparse.per_worker(outcome)
        else:
            reward_per_worker = self._dense.per_worker(outcome)
        reward = float(reward_per_worker.mean())

        self.t += 1
        done = self.t >= config.horizon
        if done:
            self._needs_reset = True

        info = {
            "outcome": outcome,
            "reward_per_worker": reward_per_worker,
            "positions": new_positions.copy(),
            "previous_positions": old_positions,
            "moves": chosen.copy(),
            "charging": charging.copy(),
            "bumped": bumped.copy(),
            "t": self.t,
        }
        return self._state(), reward, done, info

    # ------------------------------------------------------------------
    # Queries used by agents
    # ------------------------------------------------------------------
    def valid_moves(self) -> np.ndarray:
        """(W, NUM_MOVES) validity mask at the current positions.

        Each worker's row under rules (a) and (c) is memoized on the
        exact bytes of its position (see :meth:`_move_mask`), so a
        position the env has seen before costs a dict lookup; a write to
        ``workers.positions`` from outside simply looks up other keys.
        Rule (b) reads ``workers.energy`` on every call.  Each call
        returns a fresh array, which the caller may mutate.
        """
        return self._move_mask()

    def _move_mask(self) -> np.ndarray:
        """``valid_move_mask`` at the current positions and energies.

        ``valid_move_mask`` is separable by row: a worker's row is a
        function of its own position bytes, the static obstacle grid
        and ``move_step``, then rule (b) on its energy.  Rows missing
        from the memo are computed in one batched call with energies
        that are not exhausted, and rule (b) is applied afterwards to
        the assembled mask, so every byte equals a fresh
        ``valid_move_mask(space, positions, energy, move_step)``.
        """
        positions = np.ascontiguousarray(self.workers.positions, dtype=np.float64)
        raw = positions.tobytes()
        width = 2 * positions.itemsize
        keys = [raw[i : i + width] for i in range(0, len(raw), width)]
        memo = self._mask_rows
        missed = [key for key in dict.fromkeys(keys) if key not in memo]
        if missed:
            if len(memo) + len(missed) > _MASK_MEMO_ROWS:
                memo.clear()
                missed = list(dict.fromkeys(keys))
            rows = valid_move_mask(
                self.space,
                np.frombuffer(b"".join(missed)).reshape(-1, 2),
                np.ones(len(missed)),
                self.config.move_step,
            )
            for key, row in zip(missed, rows):
                memo[key] = row.tobytes()
        mask = np.frombuffer(b"".join([memo[key] for key in keys]), dtype=bool)
        return forbid_exhausted(
            mask.reshape(len(keys), NUM_MOVES).copy(), self.workers.energy
        )

    def charge_possible(self) -> np.ndarray:
        """(W,) mask of workers currently within charging range."""
        return can_charge(self.stations, self.workers.positions, self.config.charging_range)

    def sensing_range_of(self, worker: int) -> float:
        """``g^w`` for one worker (Definition 2)."""
        return float(self._sensing_ranges[worker])

    def metrics(self) -> Metrics:
        """Current κ / ξ / ρ snapshot (Definitions 4-6)."""
        return compute_metrics(self.workers, self.pois, self.config.collect_rate)

    def _state(self) -> np.ndarray:
        return self._encoder.encode(self.workers, self.pois)
