"""``select_actions`` on arrays keeps the bits of the Tensor distributions.

The rollout and the inference service choose actions with
:func:`repro.agents.networks.select_actions`, which computes on the
policy output's plain arrays.  The reference below is the same choice
spelled through the Tensor distributions the PPO loss uses
(:meth:`PolicyOutput.move_distribution`, :meth:`charge_distribution`
and :meth:`log_prob`): greedy rows take the modes, and each sampled row
draws as a batch of one, moves first, then charges.  Both must agree on
the moves, the charges, the log-probability bytes and on how far each
generator was advanced.
"""

import numpy as np
import pytest

from repro import nn
from repro.agents.networks import MASKED_LOGIT, PolicyOutput, select_actions
from repro.env.actions import NUM_MOVES

NUM_WORKERS = 3


def reference_select(output, rngs):
    moves = output.move_distribution().mode()
    charges = output.charge_distribution().mode()
    for row, rng in enumerate(rngs):
        if rng is not None:
            one = PolicyOutput(
                move_logits=nn.Tensor(output.move_logits.data[row : row + 1]),
                charge_logits=nn.Tensor(output.charge_logits.data[row : row + 1]),
                value=nn.Tensor(output.value.data[row : row + 1]),
            )
            moves[row] = one.move_distribution().sample(rng)[0]
            charges[row] = one.charge_distribution().sample(rng)[0]
    with nn.no_grad():
        log_prob = output.log_prob(moves, charges)
    return moves, charges, log_prob.data


def policy_output(rng, batch, kind):
    move_logits = rng.normal(scale=3.0, size=(batch, NUM_WORKERS, NUM_MOVES))
    charge_logits = rng.normal(scale=3.0, size=(batch, NUM_WORKERS))
    if kind == "masked":
        masked = rng.random(move_logits.shape) < 0.4
        masked[..., 0] = False  # stay is always valid
        move_logits = move_logits + np.where(masked, MASKED_LOGIT, 0.0)
    elif kind == "extreme":
        move_logits = rng.choice([-30.0, 30.0, 0.0], size=move_logits.shape)
        charge_logits = rng.choice([-30.0, 30.0, 0.0], size=charge_logits.shape)
    elif kind == "tied":
        move_logits = np.round(move_logits)
        move_logits[..., 3] = move_logits[..., 5]
        charge_logits = np.zeros_like(charge_logits)
    return PolicyOutput(
        move_logits=nn.Tensor(move_logits),
        charge_logits=nn.Tensor(charge_logits),
        value=nn.Tensor(rng.normal(size=batch)),
    )


def generators(pattern, seed):
    return [
        np.random.default_rng(seed + row) if sampled else None
        for row, sampled in enumerate(pattern)
    ]


@pytest.mark.parametrize("kind", ["plain", "masked", "extreme", "tied"])
@pytest.mark.parametrize("batch", range(1, 9))
def test_array_selection_equals_the_tensor_distributions(batch, kind):
    rng = np.random.default_rng(100 * batch + len(kind))
    for trial in range(4):
        output = policy_output(rng, batch, kind)
        if trial == 0:
            pattern = [False] * batch
        elif trial == 1:
            pattern = [True] * batch
        else:
            pattern = rng.random(batch) < 0.5
        seed = int(rng.integers(1 << 30))
        got_rngs = generators(pattern, seed)
        want_rngs = generators(pattern, seed)

        moves, charges, log_prob = select_actions(output, got_rngs)
        want_moves, want_charges, want_log_prob = reference_select(output, want_rngs)

        assert moves.dtype == want_moves.dtype == np.int64
        assert charges.dtype == want_charges.dtype == np.int64
        np.testing.assert_array_equal(moves, want_moves)
        np.testing.assert_array_equal(charges, want_charges)
        assert log_prob.shape == (batch,)
        assert log_prob.tobytes() == want_log_prob.tobytes()
        for got, want in zip(got_rngs, want_rngs):
            if got is not None:
                assert got.bit_generator.state == want.bit_generator.state
