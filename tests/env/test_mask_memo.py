"""``valid_moves()`` memoizes the valid-move mask row by row.

A worker's row under rules (a) and (c) is keyed by the bytes of its
position; the space and ``move_step`` are fixed per env, so the memo
outlives resets.  Rule (b) reads ``workers.energy`` on every call.  It
is a pure cache: wherever the workers stand, whatever outside code
writes to either array and however many distinct positions pass the
memo's bound, the answer equals a fresh ``valid_move_mask`` byte for
byte, and a caller that mutates a returned mask changes neither a later
query nor ``step()``.
"""

import numpy as np
import pytest

import repro.env.env as env_module
from repro.env import Action, CrowdsensingEnv, smoke_config
from repro.env.actions import MOVE_OFFSETS, NUM_MOVES, STAY, valid_move_mask


def fresh_mask(env):
    return valid_move_mask(
        env.space, env.workers.positions, env.workers.energy, env.config.move_step
    )


def random_valid_action(env, rng):
    mask = env.valid_moves()
    moves = np.array([rng.choice(np.flatnonzero(row)) for row in mask])
    return Action(charge=rng.integers(0, 2, size=env.num_workers), move=moves)


@pytest.fixture
def counted(monkeypatch):
    """Counts ``valid_move_mask`` calls made by the env module."""
    calls = []
    real = env_module.valid_move_mask

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(env_module, "valid_move_mask", counting)
    return calls


class TestMaskMemo:
    def test_equals_a_fresh_mask_over_an_episode(self, tiny_env, rng):
        tiny_env.reset()
        done = False
        while not done:
            assert tiny_env.valid_moves().tobytes() == fresh_mask(tiny_env).tobytes()
            __, __, done, __ = tiny_env.step(random_valid_action(tiny_env, rng))

    def test_query_then_step_computes_the_mask_once(self, tiny_env, rng, counted):
        tiny_env.reset()
        steps = 0
        done = False
        while not done:
            __, __, done, __ = tiny_env.step(random_valid_action(tiny_env, rng))
            steps += 1
        assert len(counted) <= steps

    def test_outside_write_to_positions_misses_the_memo(self, tiny_env):
        tiny_env.reset()
        before = tiny_env.valid_moves()
        # Move worker 0 in place to the far corner of the map.
        tiny_env.workers.positions[0] = [0.1, 0.1]
        after = tiny_env.valid_moves()
        assert after.tobytes() == fresh_mask(tiny_env).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_outside_write_to_energy_misses_the_memo(self, tiny_env):
        tiny_env.reset()
        assert tiny_env.valid_moves()[0].sum() > 1
        tiny_env.workers.energy[0] = 0.0  # drained: only STAY is valid
        mask = tiny_env.valid_moves()
        assert mask.tobytes() == fresh_mask(tiny_env).tobytes()
        assert mask[0].tolist() == [move == STAY for move in range(NUM_MOVES)]

    def test_rebinding_the_arrays_misses_the_memo(self, tiny_env):
        tiny_env.reset()
        tiny_env.valid_moves()
        tiny_env.workers.energy = np.zeros(tiny_env.num_workers)
        assert tiny_env.valid_moves()[:, STAY].all()
        assert tiny_env.valid_moves().sum() == tiny_env.num_workers

    def test_mutating_a_returned_mask_leaks_nowhere(self, tiny_config, rng):
        env = CrowdsensingEnv(tiny_config)
        twin = CrowdsensingEnv(tiny_config)
        env.reset()
        twin.reset()
        for __ in range(tiny_config.horizon):
            action = random_valid_action(twin, rng)
            returned = env.valid_moves()
            expected = returned.copy()
            returned[...] = ~returned  # every valid move now reads invalid
            assert env.valid_moves().tobytes() == expected.tobytes()
            state, reward, done, info = env.step(action)
            want_state, want_reward, __, want_info = twin.step(action)
            assert not info["bumped"].any()
            assert state.tobytes() == want_state.tobytes()
            assert reward == want_reward
            assert info["moves"].tobytes() == want_info["moves"].tobytes()
            if done:
                break


def probe_positions(env, rng, count):
    """``count`` positions from the places a mask row is easy to get wrong:
    on and just inside the map edge, cell centres next to an obstacle,
    cells whose diagonal move would cut an obstacle's corner, points
    inside obstacles, and arbitrary points anywhere (a few off the map)."""
    space = env.space
    size, cell = space.size, space.cell
    step = env.config.move_step
    blocked_rows, blocked_cols = np.nonzero(space.obstacles)
    centres = space.cell_center(*np.indices(space.obstacles.shape).reshape(2, -1)).reshape(-1, 2)
    free = centres[~space.is_blocked(centres)]
    # Free cells with a blocked cell among their eight neighbours.
    near = free[
        space.is_blocked(free[:, None, :] + MOVE_OFFSETS[None, 1:] * step).any(axis=1)
    ]
    # Free cells with a free diagonal target but a blocked corner cell.
    diagonal = MOVE_OFFSETS[[2, 4, 6, 8]] * step
    corner_cut = free[
        (
            ~space.is_blocked(free[:, None, :] + diagonal[None])
            & (
                space.is_blocked(free[:, None, :] + diagonal[None] * [1.0, 0.0])
                | space.is_blocked(free[:, None, :] + diagonal[None] * [0.0, 1.0])
            )
        ).any(axis=1)
    ]
    edge = np.array(
        [
            [1e-9, size / 2], [size - 1e-9, size / 2], [size / 2, 1e-9],
            [size / 2, size - 1e-9], [cell / 2, cell / 2],
            [size - cell / 2, size - cell / 2], [0.0, size / 2], [size, size],
            [-0.0, cell / 2], [step, step], [size - step, size - step],
        ]
    )
    inside = space.cell_center(blocked_rows, blocked_cols).reshape(-1, 2)
    anywhere = rng.uniform(-0.5, size + 0.5, size=(count, 2))
    pool = np.concatenate([near, corner_cut, edge, inside, anywhere])
    assert len(near) and len(corner_cut) and len(inside)
    return pool[rng.integers(len(pool), size=count)]


def probe_energies(rng, count, budget):
    """Energies with exhausted workers mixed in at the 1e-12 threshold."""
    special = np.array([0.0, -0.0, 1e-12, 1e-13, 1.0000001e-12, 2e-12, budget])
    energy = rng.uniform(0.0, budget, size=count)
    pick = rng.random(count) < 0.4
    energy[pick] = special[rng.integers(len(special), size=int(pick.sum()))]
    return energy


@pytest.fixture
def crowded_env():
    """Six workers on the obstacle-carrying smoke map."""
    env = CrowdsensingEnv(smoke_config(seed=3, num_workers=6, horizon=12))
    env.reset()
    return env


class TestRowMemo:
    def test_random_positions_and_energies_match_a_fresh_mask(self, crowded_env):
        env, rng = crowded_env, np.random.default_rng(1)
        for trial in range(300):
            positions = probe_positions(env, rng, env.num_workers)
            if trial % 3 == 0:  # two workers on one spot share one memo row
                positions[1] = positions[0]
            energy = probe_energies(rng, env.num_workers, env.config.energy_budget)
            if trial % 2:  # an in-place write ...
                env.workers.positions[...] = positions
                env.workers.energy[...] = energy
            else:  # ... and a rebinding of both arrays
                env.workers.positions = positions
                env.workers.energy = energy
            assert env.valid_moves().tobytes() == fresh_mask(env).tobytes()
        assert 0 < len(env._mask_rows) <= env_module._MASK_MEMO_ROWS

    def test_the_memo_outlives_resets(self, tiny_env, counted):
        rng = np.random.default_rng(2)
        tiny_env.reset()
        actions = []
        done = False
        while not done:
            assert tiny_env.valid_moves().tobytes() == fresh_mask(tiny_env).tobytes()
            actions.append(random_valid_action(tiny_env, rng))
            __, __, done, __ = tiny_env.step(actions[-1])
        rows = len(tiny_env._mask_rows)
        calls = len(counted)
        assert rows > 0 and calls > 0
        # Replaying the same episode visits only positions seen before.
        tiny_env.reset()
        for action in actions:
            assert tiny_env.valid_moves().tobytes() == fresh_mask(tiny_env).tobytes()
            tiny_env.step(action)
        assert len(tiny_env._mask_rows) == rows
        assert len(counted) == calls

    def test_more_positions_than_the_bound(self, crowded_env, monkeypatch):
        monkeypatch.setattr(env_module, "_MASK_MEMO_ROWS", 8)
        env, rng = crowded_env, np.random.default_rng(3)
        seen = []
        for trial in range(200):
            if seen and trial % 4 == 0:  # revisit: hits mixed with misses
                positions = seen[rng.integers(len(seen))].copy()
                positions[rng.integers(env.num_workers)] = probe_positions(env, rng, 1)[0]
            else:
                positions = probe_positions(env, rng, env.num_workers)
            seen.append(positions)
            env.workers.positions = positions
            env.workers.energy = probe_energies(
                rng, env.num_workers, env.config.energy_budget
            )
            assert env.valid_moves().tobytes() == fresh_mask(env).tobytes()
            assert len(env._mask_rows) <= 8

    def test_step_bumps_exactly_the_fresh_masks_invalid_moves(self, crowded_env):
        env, rng = crowded_env, np.random.default_rng(4)
        for __ in range(100):
            env.reset()
            env.workers.positions = probe_positions(env, rng, env.num_workers)
            env.workers.energy = probe_energies(
                rng, env.num_workers, env.config.energy_budget
            )
            want = fresh_mask(env)
            moves = rng.integers(NUM_MOVES, size=env.num_workers)
            action = Action(charge=np.zeros(env.num_workers, dtype=np.int64), move=moves)
            __, __, __, info = env.step(action)
            assert info["bumped"].tolist() == (~want[np.arange(env.num_workers), moves]).tolist()
