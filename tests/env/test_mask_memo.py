"""``valid_moves()`` memoizes the valid-move mask on its exact inputs.

The memo key is the bytes of ``workers.positions`` and
``workers.energy``; the space and ``move_step`` are fixed per env.  It
is a pure cache: whatever outside code writes to either array, the
answer equals a fresh ``valid_move_mask``, and a caller that mutates a
returned mask changes neither a later query nor ``step()``.
"""

import numpy as np
import pytest

import repro.env.env as env_module
from repro.env import Action, CrowdsensingEnv
from repro.env.actions import NUM_MOVES, STAY, valid_move_mask


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
