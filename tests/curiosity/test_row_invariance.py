"""The curiosity row-invariance contract.

``collect_episode`` scores a whole trajectory with one
``intrinsic_reward`` call, and must store the bits a per-step loop
would.  So for every module, row ``t`` of a ``T``-row batch must equal
transition ``t`` scored alone — bitwise, not approximately.  A plain
batched ``(T, in)`` Linear breaks that in the last bits (OpenBLAS picks
its kernel by row count); the modules keep it by running their detached
Linears through ``nn.functional.linear_rows``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curiosity import (
    ICMCuriosity,
    NullCuriosity,
    RNDCuriosity,
    SpatialCuriosity,
    TransitionBatch,
)
from repro.env import CrowdsensingSpace
from repro.env.actions import MOVE_OFFSETS

CHANNELS, GRID, WORKERS = 3, 8, 3


def make_modules():
    space = CrowdsensingSpace(float(GRID), GRID)
    modules = {
        f"spatial-{feature}-{structure}": SpatialCuriosity(
            space, feature=feature, structure=structure, num_workers=WORKERS, seed=4
        )
        for feature in ("embedding", "direct")
        for structure in ("shared", "independent")
    }
    modules["icm"] = ICMCuriosity(CHANNELS, GRID, num_workers=WORKERS, seed=4)
    modules["rnd"] = RNDCuriosity(CHANNELS, GRID, seed=4)
    modules["null"] = NullCuriosity()
    return modules


MODULES = make_modules()


def trajectory(seed, steps):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.5, GRID - 0.5, size=(steps, WORKERS, 2))
    moves = rng.integers(0, 9, size=(steps, WORKERS))
    return TransitionBatch(
        positions=positions,
        next_positions=np.clip(positions + MOVE_OFFSETS[moves], 0.1, GRID - 0.1),
        moves=moves,
        states=rng.normal(size=(steps, CHANNELS, GRID, GRID)),
        next_states=rng.normal(size=(steps, CHANNELS, GRID, GRID)),
    )


def step_of(batch, t):
    return TransitionBatch.single(
        positions=batch.positions[t],
        moves=batch.moves[t],
        next_positions=batch.next_positions[t],
        state=batch.states[t],
        next_state=batch.next_states[t],
    )


@pytest.mark.parametrize("name", sorted(MODULES))
@settings(max_examples=15, deadline=None)
@given(steps=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_batched_reward_equals_steps_scored_alone(name, steps, seed):
    module = MODULES[name]
    batch = trajectory(seed, steps)
    batched = module.intrinsic_reward(batch)
    assert batched.shape == (steps,)
    singles = np.concatenate(
        [module.intrinsic_reward(step_of(batch, t)) for t in range(steps)]
    )
    assert batched.tobytes() == singles.tobytes()
